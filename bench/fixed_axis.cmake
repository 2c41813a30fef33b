# fixed_axis.cmake — ctest script: a harness that holds a sweep axis
# fixed must refuse the flag for it, exiting 2 with a diagnostic that
# names the flag, rather than write the stream it writes without it.
#
# Variables: HARNESS (binary path), HARNESS_ARGS (;-list of flags),
#            FLAG (the flag the diagnostic must name), TAG (file-name
#            tag), WORK_DIR.
include(${CMAKE_CURRENT_LIST_DIR}/bench_check.cmake)

set(err "${WORK_DIR}/${TAG}.stderr")
dsm_run_expect(2 "" ${err} ${HARNESS} ${HARNESS_ARGS})
dsm_expect_contains(${err} "${FLAG} would be ignored")
