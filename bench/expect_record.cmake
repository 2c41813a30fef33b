# expect_record.cmake — ctest script: one harness run must exit 0 and
# write TEXT somewhere in its stream.
#
# Variables: HARNESS (binary path), HARNESS_ARGS (;-list of flags),
#            TEXT (what the stream must contain), TAG (file-name tag),
#            WORK_DIR.
include(${CMAKE_CURRENT_LIST_DIR}/bench_check.cmake)

set(stream "${WORK_DIR}/${TAG}.ndjson")
dsm_run(${stream} ${HARNESS} ${HARNESS_ARGS})
dsm_expect_contains(${stream} "${TEXT}")
