# obs_equivalence.cmake — ctest script enforcing the observability
# layer's two determinism contracts end to end for one harness:
#
#   1. METRIC DETERMINISM: with --obs-stats the NDJSON stream (records now
#      carrying the machine's `obs` snapshot) must be byte-identical
#      across execution modes — single shard worker and --shards=2
#      --threads=2 coordination — across the full protocol axis. The snapshot is derived from simulated events
#      only, so how the host schedules the work must not show.
#   2. NON-PERTURBATION: switching stats, interval capture AND tracing on
#      must leave the live human stdout byte-identical to a plain run —
#      observability watches the simulation, it never feeds back into it.
#   3. INTERVAL DETERMINISM: the phase-attributed interval timeline
#      (--obs-intervals, the `obs_intervals` field) rides the same
#      guarantee as the snapshot — byte-identical across the same two
#      execution modes — and `dsm_report timeline` must render it with
#      exit 0, which includes the interval-sum reconciliation against the
#      end-of-run snapshot.
#
# Plus the offline consumers: `dsm_report validate --merged` and
# `dsm_report stats` must accept the obs-carrying stream, and the dumped
# binary trace must pass `dsm_report trace --validate` and convert to
# non-empty Chrome trace-event JSON.
#
# Variables: HARNESS (binary path), HARNESS_ARGS (;-list incl. the
#            protocol axis), TRACE_ARGS (;-list, a single-spec-point
#            config so the trace lands in ONE file), DSM_REPORT
#            (dsm_report binary path), TAG, WORK_DIR.

set(ref "${WORK_DIR}/${TAG}_ref.ndjson")
set(threaded "${WORK_DIR}/${TAG}_threads.ndjson")

# 1a. Reference stream: one shard worker with stats on.
execute_process(
  COMMAND ${HARNESS} ${HARNESS_ARGS} --obs-stats --shard=0/1
  OUTPUT_FILE ${ref}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${HARNESS} --obs-stats --shard=0/1 exited with ${rc}")
endif()
file(READ ${ref} ref_bytes)
if(ref_bytes STREQUAL "")
  message(FATAL_ERROR "reference stream ${ref} is empty")
endif()
string(FIND "${ref_bytes}" "\"obs\":" obs_pos)
if(obs_pos EQUAL -1)
  message(FATAL_ERROR
    "reference stream carries no 'obs' snapshot despite --obs-stats")
endif()

# 1b. Same points through the --shards=2 coordinator with worker threads.
execute_process(
  COMMAND ${HARNESS} ${HARNESS_ARGS} --obs-stats --shards=2 --threads=2
  OUTPUT_FILE ${threaded}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--obs-stats --shards=2 --threads=2 exited with ${rc}")
endif()
file(READ ${threaded} threaded_bytes)
if(NOT ref_bytes STREQUAL threaded_bytes)
  message(FATAL_ERROR
    "obs snapshots differ between --shard=0/1 and --shards=2 --threads=2:\n"
    "  reference: ${ref}\n  threaded:  ${threaded}")
endif()

# Offline consumers of the obs-carrying stream.
execute_process(
  COMMAND ${DSM_REPORT} validate --merged ${ref}
  OUTPUT_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dsm_report validate --merged rejected ${ref} (${rc})")
endif()
execute_process(
  COMMAND ${DSM_REPORT} stats ${ref}
  OUTPUT_VARIABLE stats_out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dsm_report stats exited with ${rc}")
endif()
if(stats_out STREQUAL "")
  message(FATAL_ERROR "dsm_report stats printed nothing for ${ref}")
endif()

# 3. The interval timeline must be byte-identical across the same modes.
set(iv_ref "${WORK_DIR}/${TAG}_iv_ref.ndjson")
set(iv_threaded "${WORK_DIR}/${TAG}_iv_threads.ndjson")
execute_process(
  COMMAND ${HARNESS} ${HARNESS_ARGS} --obs-intervals --shard=0/1
  OUTPUT_FILE ${iv_ref}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--obs-intervals --shard=0/1 exited with ${rc}")
endif()
file(READ ${iv_ref} iv_ref_bytes)
string(FIND "${iv_ref_bytes}" "\"obs_intervals\":" iv_pos)
if(iv_pos EQUAL -1)
  message(FATAL_ERROR
    "stream carries no 'obs_intervals' timeline despite --obs-intervals")
endif()
execute_process(
  COMMAND ${HARNESS} ${HARNESS_ARGS} --obs-intervals --shards=2 --threads=2
  OUTPUT_FILE ${iv_threaded}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--obs-intervals --shards=2 --threads=2 exited with ${rc}")
endif()
file(READ ${iv_threaded} iv_threaded_bytes)
if(NOT iv_ref_bytes STREQUAL iv_threaded_bytes)
  message(FATAL_ERROR
    "interval timelines differ between --shard=0/1 and --shards=2 "
    "--threads=2:\n  reference: ${iv_ref}\n  threaded:  ${iv_threaded}")
endif()
# The timeline renderer must accept the stream — exit 0 implies every
# record's interval sums + tail reconciled against its snapshot.
execute_process(
  COMMAND ${DSM_REPORT} timeline ${iv_ref}
  OUTPUT_VARIABLE timeline_out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "dsm_report timeline exited with ${rc} on ${iv_ref} (render or "
    "reconciliation failure)")
endif()
string(FIND "${timeline_out}" "reconciled:" rec_pos)
if(rec_pos EQUAL -1)
  message(FATAL_ERROR "dsm_report timeline never reconciled ${iv_ref}")
endif()

# 2. Live human stdout must not move when stats+intervals+tracing switch on.
set(plain_out "${WORK_DIR}/${TAG}_live_plain.txt")
set(obs_out "${WORK_DIR}/${TAG}_live_obs.txt")
set(trace_bin "${WORK_DIR}/${TAG}.trace")
execute_process(
  COMMAND ${HARNESS} ${TRACE_ARGS}
  OUTPUT_FILE ${plain_out}
  RESULT_VARIABLE rc_plain)
execute_process(
  COMMAND ${HARNESS} ${TRACE_ARGS} --obs-intervals --trace=${trace_bin}
  OUTPUT_FILE ${obs_out}
  RESULT_VARIABLE rc_obs)
if(NOT rc_plain EQUAL 0 OR NOT rc_obs EQUAL 0)
  message(FATAL_ERROR
    "live runs exited with ${rc_plain} (plain) / ${rc_obs} (observed)")
endif()
file(READ ${plain_out} plain_bytes)
file(READ ${obs_out} obs_bytes)
if(plain_bytes STREQUAL "")
  message(FATAL_ERROR "plain live output ${plain_out} is empty")
endif()
if(NOT plain_bytes STREQUAL obs_bytes)
  message(FATAL_ERROR
    "--obs-intervals --trace changed the live stdout (observability must "
    "not perturb the simulation):\n  plain: ${plain_out}\n"
    "  observed: ${obs_out}")
endif()
if(NOT EXISTS ${trace_bin})
  message(FATAL_ERROR "trace run left no dump at ${trace_bin}")
endif()

# The dumped trace must validate and convert to Chrome trace-event JSON.
execute_process(
  COMMAND ${DSM_REPORT} trace --validate ${trace_bin}
  OUTPUT_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dsm_report trace --validate rejected ${trace_bin}")
endif()
set(chrome_json "${WORK_DIR}/${TAG}_chrome.json")
execute_process(
  COMMAND ${DSM_REPORT} trace ${trace_bin}
  OUTPUT_FILE ${chrome_json}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dsm_report trace conversion exited with ${rc}")
endif()
file(READ ${chrome_json} chrome_bytes)
string(FIND "${chrome_bytes}" "\"traceEvents\"" te_pos)
if(te_pos EQUAL -1)
  message(FATAL_ERROR "${chrome_json} is not Chrome trace-event JSON")
endif()

message(STATUS "obs equivalence OK (${TAG}): snapshots and interval "
               "timelines byte-identical across shard/threads, "
               "timeline reconciled, live stdout unperturbed, trace "
               "validated and converted")
