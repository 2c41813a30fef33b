# chaos_fleet.cmake — ctest script enforcing the fleet's fault-tolerance
# contract for one harness:
#
#   1. an undisturbed `--shards=3` pull-fleet run is the byte reference;
#   2. for every fault kind (worker-exit, worker-hang, truncated-record,
#      dropped-heartbeat) a `--inject-fault=KIND@SPEC` run must recover —
#      exit 0, report the recovery on stderr, and produce a merged stream
#      BYTE-IDENTICAL to the reference (deaths must be invisible in the
#      output);
#   3. resume: the reference store truncated mid-record must scan as
#      recoverable (`dsm_report resume` exits 1, names the gaps), and a
#      `--resume=` fleet over it must complete it back to the exact
#      reference bytes;
#   4. the lease ledger must parse, and the heartbeat tees must read
#      every spec done with no worker running (CI uploads both as
#      artifacts on failure).
#
# Variables: HARNESS (binary path), HARNESS_ARGS (;-list of flags),
#            DSM_REPORT (dsm_report binary path), TAG (file-name tag),
#            WORK_DIR (where the artifacts land).
#
# The deadline/backoff knobs are tuned small (2 s deadline, 100 ms beats)
# so the worker-hang reap costs seconds, not the 30 s production default.

include(${CMAKE_CURRENT_LIST_DIR}/bench_check.cmake)

set(ref "${WORK_DIR}/${TAG}_ref.ndjson")
set(knobs
  --lease-timeout-ms=2000 --hb-interval-ms=100 --backoff-ms=50)

# 1. Undisturbed reference fleet.
dsm_run(${ref} ${HARNESS} ${HARNESS_ARGS} --shards=3)
file(READ ${ref} ref_bytes)
if(ref_bytes STREQUAL "")
  message(FATAL_ERROR "reference fleet stream ${ref} is empty")
endif()
file(STRINGS ${ref} ref_lines)
list(LENGTH ref_lines total)

# 2. Every fault kind must recover byte-identically. The fault spec index
# sits mid-sweep so work exists on both sides of the death.
math(EXPR fault_spec "${total} / 2")
foreach(kind worker-exit worker-hang truncated-record dropped-heartbeat)
  set(out "${WORK_DIR}/${TAG}_${kind}.ndjson")
  set(err "${WORK_DIR}/${TAG}_${kind}.stderr")
  set(hb "${WORK_DIR}/${TAG}_${kind}.hb")
  set(ledger "${WORK_DIR}/${TAG}_${kind}.lease.ndjson")
  # The fleet must recover and exit 0.
  dsm_run_expect(0 ${out} ${err} ${HARNESS} ${HARNESS_ARGS} --shards=3
    ${knobs} --inject-fault=${kind}@${fault_spec}
    --heartbeat=${hb} --lease-log=${ledger})
  dsm_expect_same("the merged stream after ${kind}" ${out} ${ref})
  # The fault must be *visible* in the diagnostics — one that silently
  # never fired would pass the byte compare while testing nothing. The
  # three crash/wedge kinds also deterministically cost a worker death;
  # dropped-heartbeat need not: lease grants restart the liveness clock,
  # so a muted worker that keeps finishing leases inside the deadline
  # completes the sweep without ever being reaped (the reap-at-deadline
  # path is what worker-hang pins down).
  file(READ ${err} err_bytes)
  if(NOT err_bytes MATCHES "fleet: arming ${kind}@${fault_spec}")
    message(FATAL_ERROR
      "${kind} run never armed the fault; stderr:\n${err_bytes}")
  endif()
  if(NOT kind STREQUAL "dropped-heartbeat" AND
     NOT err_bytes MATCHES "fleet: recovered")
    message(FATAL_ERROR
      "${kind} run recovered no death (did the fault fire?); "
      "stderr:\n${err_bytes}")
  endif()
  # 4. Side-channel artifacts: the lease ledger must parse back through
  # dsm_report, and the heartbeat tees must read the fleet finished: a
  # muted or respawned worker's own count stops short, so this holds only
  # because the coordinator ends each tee on what it merged from the slot.
  dsm_run("" ${DSM_REPORT} progress --lease=${ledger})
  file(GLOB hb_files "${hb}.*")
  dsm_expect_fleet_done("${WORK_DIR}/${TAG}_${kind}.progress.txt" ${total}
    ${hb_files})
endforeach()

# 3. Resume: cut the reference store mid-record (a fleet killed while a
# worker was writing), verify the scanner calls it recoverable and names
# gaps, then complete it with a --resume fleet.
set(partial "${WORK_DIR}/${TAG}_partial.ndjson")
file(SIZE ${ref} ref_size)
math(EXPR cut "${ref_size} - 40")
file(READ ${ref} partial_bytes LIMIT ${cut})
file(WRITE ${partial} "${partial_bytes}")

# Exit 1 = gaps remain.
set(scan "${WORK_DIR}/${TAG}_partial.scan.txt")
dsm_run_expect(1 ${scan} "" ${DSM_REPORT} resume --total=${total} ${partial})
dsm_expect_contains(${scan} "truncated final record")

set(resumed "${WORK_DIR}/${TAG}_resumed.ndjson")
dsm_run(${resumed} ${HARNESS} ${HARNESS_ARGS} --shards=2 ${knobs}
  --resume=${partial})
dsm_expect_same("the resumed fleet's completed store" ${resumed} ${ref})
# The completed store reports no gaps.
dsm_run("" ${DSM_REPORT} resume --total=${total} ${resumed})

message(STATUS "chaos fleet OK (${TAG}): ${total} specs; worker-exit, "
               "worker-hang, truncated-record, dropped-heartbeat all "
               "recovered byte-identically; truncated store resumed to "
               "the reference bytes")
