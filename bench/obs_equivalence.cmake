# obs_equivalence.cmake — ctest script enforcing the observability
# layer's determinism contracts end to end for one harness:
#
#   1. METRIC DETERMINISM: with --obs-stats the NDJSON stream (records now
#      carrying the machine's `obs` snapshot) must be byte-identical
#      between a single shard worker and --shards=2 --threads=2
#      coordination, across the full protocol axis. The snapshot is
#      derived from simulated events only, so how the host schedules the
#      work must not show.
#   2. INTERVAL DETERMINISM: the phase-attributed interval timeline
#      (--obs-intervals, the `obs_intervals` field) rides the same
#      guarantee — byte-identical between a single shard worker and
#      --shards=3 --threads=2 — and `dsm_report timeline` must render it
#      with exit 0, which includes the interval-sum reconciliation against
#      the end-of-run snapshot, and write Chrome counter events.
#   3. NON-PERTURBATION: switching stats, interval capture AND tracing on
#      (--obs-intervals implies --obs-stats) must leave the live human
#      stdout byte-identical to a plain run — observability watches the
#      simulation, it never feeds back into it.
#
# Plus the offline consumers: `dsm_report validate --merged` and
# `dsm_report stats` must accept the obs-carrying stream, and the dumped
# binary trace must pass `dsm_report trace --validate` and convert to
# Chrome trace-event JSON with complete ("X") slices. Finally the obs
# stream, the interval stream and the trace must hash to the SHA-256s
# committed in bench/expected/<TAG>.sha256 (sha256sum's format).
#
# Variables: HARNESS (binary path), HARNESS_ARGS (;-list incl. the
#            protocol axis), TRACE_ARGS (;-list, a single-spec-point
#            config so the trace lands in ONE file), DSM_REPORT
#            (dsm_report binary path), TAG, WORK_DIR.
include(${CMAKE_CURRENT_LIST_DIR}/bench_check.cmake)

set(ref "${WORK_DIR}/${TAG}_ref.ndjson")
set(threaded "${WORK_DIR}/${TAG}_threads.ndjson")
set(stats "${WORK_DIR}/${TAG}_stats.txt")
set(iv_ref "${WORK_DIR}/${TAG}_iv_ref.ndjson")
set(iv_threaded "${WORK_DIR}/${TAG}_iv_threads.ndjson")
set(timeline "${WORK_DIR}/${TAG}_timeline.txt")
set(counters "${WORK_DIR}/${TAG}_counters.json")
set(plain_out "${WORK_DIR}/${TAG}_live_plain.txt")
set(obs_out "${WORK_DIR}/${TAG}_live_obs.txt")
set(trace_bin "${WORK_DIR}/${TAG}.trace")
set(chrome_json "${WORK_DIR}/${TAG}_chrome.json")
set(sums "${WORK_DIR}/${TAG}.sha256")

# 1. The obs stream across execution modes, and its offline consumers.
dsm_run(${ref} ${HARNESS} ${HARNESS_ARGS} --obs-stats --shard=0/1)
dsm_run(${threaded}
  ${HARNESS} ${HARNESS_ARGS} --obs-stats --shards=2 --threads=2)
dsm_expect_same("obs stream of --shards=2 --threads=2 vs --shard=0/1"
  ${threaded} ${ref})
dsm_expect_contains(${ref} "\"obs\":")
dsm_run("" ${DSM_REPORT} validate --merged ${ref})
dsm_run(${stats} ${DSM_REPORT} stats ${ref})
dsm_expect_contains(${stats} "net.link")

# 2. The interval timeline across execution modes; it must render,
# reconcile and export counter events.
dsm_run(${iv_ref} ${HARNESS} ${HARNESS_ARGS} --obs-intervals --shard=0/1)
dsm_run(${iv_threaded}
  ${HARNESS} ${HARNESS_ARGS} --obs-intervals --shards=3 --threads=2)
dsm_expect_same("interval stream of --shards=3 --threads=2 vs --shard=0/1"
  ${iv_threaded} ${iv_ref})
dsm_expect_contains(${iv_ref} "\"obs_intervals\":")
dsm_run(${timeline} ${DSM_REPORT} timeline --chrome=${counters} ${iv_ref})
dsm_expect_contains(${timeline} "reconciled:")
dsm_expect_contains(${counters} "\"ph\":\"C\"")

# 3. Live stdout must not move when stats+intervals+tracing switch on.
file(REMOVE ${trace_bin})
dsm_run(${plain_out} ${HARNESS} ${TRACE_ARGS})
dsm_run(${obs_out}
  ${HARNESS} ${TRACE_ARGS} --obs-intervals --trace=${trace_bin})
dsm_expect_same("live stdout with --obs-intervals --trace vs a plain run"
  ${obs_out} ${plain_out})

# The dumped trace must validate and convert to Chrome trace-event JSON.
dsm_run("" ${DSM_REPORT} trace --validate ${trace_bin})
dsm_run(${chrome_json} ${DSM_REPORT} trace ${trace_bin})
dsm_expect_contains(${chrome_json} "\"ph\":\"X\"")

# The three outputs vs their committed hashes.
file(WRITE ${sums} "")
foreach(f IN ITEMS ${ref} ${iv_ref} ${trace_bin})
  file(SHA256 ${f} hash)
  get_filename_component(name ${f} NAME)
  file(APPEND ${sums} "${hash}  ${name}\n")
endforeach()
dsm_expect_golden(${sums} ${CMAKE_CURRENT_LIST_DIR}/expected/${TAG}.sha256)

message(STATUS "obs equivalence OK (${TAG}): obs and interval streams "
               "byte-identical across shard/threads and equal to their "
               "hashes, timeline reconciled, live stdout unperturbed, "
               "trace validated and converted")
