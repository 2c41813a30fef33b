# report_pipeline.cmake — ctest script enforcing the offline result-store
# contract end to end for one harness, and holding its record stream to
# the committed golden:
#
#   1. two shard workers (--shard=0/2, --shard=1/2) run as separate
#      processes, each writing its own NDJSON file — the multi-host
#      simulation: nothing but the files crosses process boundaries;
#   2. `dsm_report merge` over the collected files must be byte-identical
#      to the `--shards=2` fleet coordinator's merged stream, which must
#      pass `dsm_report validate --merged` and equal the committed
#      bench/expected/<TAG>.ndjson byte for byte; that run's heartbeat
#      tees (--heartbeat) must read back through `dsm_report progress` as
#      every record done, with no worker still running;
#   3. `dsm_report render` over the merged file must be byte-identical to
#      the harness's live human stdout (both exiting 0) — live output and
#      offline render are the same renderer code on the same records.
#
# Variables: HARNESS (binary path), HARNESS_ARGS (;-list of flags),
#            LIVE_ARGS (;-list of live-only extra flags, may be empty),
#            DSM_REPORT (dsm_report binary path), TAG (file-name tag),
#            WORK_DIR (where the artifacts land), CSV (optional: non-empty
#            to also byte-compare live --csv exports vs render --csv).
include(${CMAKE_CURRENT_LIST_DIR}/bench_check.cmake)

set(fleet "${WORK_DIR}/${TAG}_fleet")
set(merged_ref "${WORK_DIR}/${TAG}_shards2.ndjson")
set(merged "${WORK_DIR}/${TAG}_merged.ndjson")
set(progress "${fleet}/progress.txt")
set(live_out "${WORK_DIR}/${TAG}_live.txt")
set(rendered "${WORK_DIR}/${TAG}_rendered.txt")

# 1. Two independent shard workers, each writing its own file.
file(REMOVE_RECURSE ${fleet})
file(MAKE_DIRECTORY ${fleet})
foreach(i 0 1)
  dsm_run(${fleet}/shard_${i}.of2.ndjson ${HARNESS} ${HARNESS_ARGS}
    --shard=${i}/2)
endforeach()

# 2. Offline merge vs the fleet coordinator's stream, that stream vs its
# golden, and the coordinator's heartbeat tees. A worker whose hello
# arrives after the sweep is done gets no welcome and so no tee: read
# back the tees that exist.
dsm_run(${merged} ${DSM_REPORT} merge
  ${fleet}/shard_0.of2.ndjson ${fleet}/shard_1.of2.ndjson)
dsm_run(${merged_ref} ${HARNESS} ${HARNESS_ARGS} --shards=2
  --heartbeat=${fleet}/hb)
dsm_expect_same("offline `dsm_report merge` vs the --shards=2 stream"
  ${merged} ${merged_ref})
dsm_run("" ${DSM_REPORT} validate --merged ${merged_ref})
dsm_expect_golden(${merged_ref} ${CMAKE_CURRENT_LIST_DIR}/expected/${TAG}.ndjson)

file(GLOB tees "${fleet}/hb.*")
file(READ ${merged_ref} bytes)
string(REGEX MATCHALL "\n" lines "${bytes}")
list(LENGTH lines n)
dsm_expect_fleet_done(${progress} ${n} ${tees})

# 3. Live human output vs offline render of the merged records, plus
# (CSV) the live --csv exports vs render --csv, file for file.
set(live_cmd ${HARNESS} ${HARNESS_ARGS} ${LIVE_ARGS})
set(render_cmd ${DSM_REPORT} render)
set(csv_live "${WORK_DIR}/${TAG}_csv_live")
set(csv_render "${WORK_DIR}/${TAG}_csv_render")
if(CSV)
  file(MAKE_DIRECTORY ${csv_live} ${csv_render})
  list(APPEND live_cmd "--csv=${csv_live}")
  list(APPEND render_cmd "--csv=${csv_render}")
endif()
dsm_run(${live_out} ${live_cmd})
dsm_run(${rendered} ${render_cmd} ${merged})
dsm_expect_same("`dsm_report render` vs the live human output"
  ${live_out} ${rendered})

if(CSV)
  file(GLOB live_csvs RELATIVE ${csv_live} "${csv_live}/*.csv")
  file(GLOB render_csvs RELATIVE ${csv_render} "${csv_render}/*.csv")
  if(NOT live_csvs)
    message(FATAL_ERROR "live --csv run produced no CSV files")
  endif()
  if(NOT live_csvs STREQUAL render_csvs)
    message(FATAL_ERROR
      "CSV file sets differ: live [${live_csvs}] vs render [${render_csvs}]")
  endif()
  foreach(f IN LISTS live_csvs)
    dsm_expect_same("CSV export ${f}" ${csv_live}/${f} ${csv_render}/${f})
  endforeach()
endif()

message(STATUS "report pipeline OK (${TAG}): stream == golden, offline "
               "merge == --shards=2, render == live stdout")
