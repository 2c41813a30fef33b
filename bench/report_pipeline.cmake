# report_pipeline.cmake — ctest script enforcing the offline result-store
# contract end to end for one harness:
#
#   1. two *separate worker processes* (--shard=0/2, --shard=1/2) write
#      per-shard NDJSON files — the multi-host simulation: nothing but the
#      files crosses process boundaries;
#   2. `dsm_report merge` over the collected files must be byte-identical
#      to the `--shards=2` fleet coordinator's merged stream;
#   3. `dsm_report render` over the merged file must be byte-identical to
#      the harness's live human stdout (and agree on the exit code) —
#      live output and offline render are the same renderer code on the
#      same records.
#
# Variables: HARNESS (binary path), HARNESS_ARGS (;-list of flags),
#            LIVE_ARGS (;-list of live-only extra flags, may be empty),
#            DSM_REPORT (dsm_report binary path), TAG (file-name tag),
#            WORK_DIR (where the artifacts land), CSV (optional: non-empty
#            to also byte-compare live --csv exports vs render --csv).

set(s0 "${WORK_DIR}/${TAG}_shard0.ndjson")
set(s1 "${WORK_DIR}/${TAG}_shard1.ndjson")
set(merged_ref "${WORK_DIR}/${TAG}_shards2.ndjson")
set(merged "${WORK_DIR}/${TAG}_merged.ndjson")
set(live_out "${WORK_DIR}/${TAG}_live.txt")
set(rendered "${WORK_DIR}/${TAG}_rendered.txt")

# 1. Two independent shard workers, each writing its own file.
execute_process(
  COMMAND ${HARNESS} ${HARNESS_ARGS} --shard=0/2
  OUTPUT_FILE ${s0}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${HARNESS} --shard=0/2 exited with ${rc}")
endif()
execute_process(
  COMMAND ${HARNESS} ${HARNESS_ARGS} --shard=1/2
  OUTPUT_FILE ${s1}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${HARNESS} --shard=1/2 exited with ${rc}")
endif()

# 2. Fleet coordinator reference stream.
execute_process(
  COMMAND ${HARNESS} ${HARNESS_ARGS} --shards=2
  OUTPUT_FILE ${merged_ref}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${HARNESS} --shards=2 exited with ${rc}")
endif()

# Offline merge over the collected files.
execute_process(
  COMMAND ${DSM_REPORT} merge ${s0} ${s1}
  OUTPUT_FILE ${merged}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dsm_report merge exited with ${rc}")
endif()

file(READ ${merged_ref} ref_bytes)
file(READ ${merged} merged_bytes)
if(ref_bytes STREQUAL "")
  message(FATAL_ERROR "--shards=2 stream ${merged_ref} is empty")
endif()
if(NOT ref_bytes STREQUAL merged_bytes)
  message(FATAL_ERROR
    "offline `dsm_report merge` differs from the in-process --shards=2 "
    "stream:\n  reference: ${merged_ref}\n  merged:    ${merged}")
endif()

# 3. Live human output vs offline render of the merged records.
set(live_cmd ${HARNESS} ${HARNESS_ARGS})
if(LIVE_ARGS)
  list(APPEND live_cmd ${LIVE_ARGS})
endif()
set(render_cmd ${DSM_REPORT} render)
if(CSV)
  file(MAKE_DIRECTORY "${WORK_DIR}/${TAG}_csv_live")
  file(MAKE_DIRECTORY "${WORK_DIR}/${TAG}_csv_render")
  list(APPEND live_cmd "--csv=${WORK_DIR}/${TAG}_csv_live")
  list(APPEND render_cmd "--csv=${WORK_DIR}/${TAG}_csv_render")
endif()
list(APPEND render_cmd ${merged})

execute_process(
  COMMAND ${live_cmd}
  OUTPUT_FILE ${live_out}
  RESULT_VARIABLE rc_live)
execute_process(
  COMMAND ${render_cmd}
  OUTPUT_FILE ${rendered}
  RESULT_VARIABLE rc_render)
if(NOT rc_live EQUAL rc_render)
  message(FATAL_ERROR
    "live run exited with ${rc_live} but `dsm_report render` with "
    "${rc_render}")
endif()
if(NOT rc_live EQUAL 0)
  message(FATAL_ERROR "live run exited with ${rc_live}")
endif()

file(READ ${live_out} live_bytes)
file(READ ${rendered} rendered_bytes)
if(live_bytes STREQUAL "")
  message(FATAL_ERROR "live output ${live_out} is empty")
endif()
if(NOT live_bytes STREQUAL rendered_bytes)
  message(FATAL_ERROR
    "`dsm_report render` output differs from the live human output:\n"
    "  live:     ${live_out}\n  rendered: ${rendered}")
endif()

# 4. Optional: the CSV exports must match file for file.
if(CSV)
  file(GLOB live_csvs RELATIVE "${WORK_DIR}/${TAG}_csv_live"
       "${WORK_DIR}/${TAG}_csv_live/*.csv")
  file(GLOB render_csvs RELATIVE "${WORK_DIR}/${TAG}_csv_render"
       "${WORK_DIR}/${TAG}_csv_render/*.csv")
  if(NOT live_csvs)
    message(FATAL_ERROR "live --csv run produced no CSV files")
  endif()
  if(NOT live_csvs STREQUAL render_csvs)
    message(FATAL_ERROR
      "CSV file sets differ: live [${live_csvs}] vs render [${render_csvs}]")
  endif()
  foreach(f IN LISTS live_csvs)
    file(READ "${WORK_DIR}/${TAG}_csv_live/${f}" a)
    file(READ "${WORK_DIR}/${TAG}_csv_render/${f}" b)
    if(NOT a STREQUAL b)
      message(FATAL_ERROR "CSV export ${f} differs between live and render")
    endif()
  endforeach()
endif()

message(STATUS "report pipeline OK (${TAG}): offline merge == --shards=2, "
               "render == live stdout")
