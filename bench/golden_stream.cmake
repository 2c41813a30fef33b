# golden_stream.cmake — ctest script holding a harness's NDJSON record
# stream to a committed golden, byte for byte:
#
#   run HARNESS HARNESS_ARGS with stdout to <WORK_DIR>/<TAG>.ndjson and
#   require the file to equal GOLDEN exactly.
#
# The records carry only simulated, deterministic values, so any
# difference is a moved simulated bit; `diff` the two paths the failure
# names to see which record moved.
#
# Variables: HARNESS (binary path), HARNESS_ARGS (;-list of flags),
#            GOLDEN (expected NDJSON path), TAG (file-name tag),
#            WORK_DIR (where the run's stream lands).

set(got_path "${WORK_DIR}/${TAG}.ndjson")
file(REMOVE ${got_path})
execute_process(
  COMMAND ${HARNESS} ${HARNESS_ARGS}
  OUTPUT_FILE ${got_path}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${HARNESS} ${HARNESS_ARGS} exited with ${rc}")
endif()
file(READ ${got_path} got)
file(READ ${GOLDEN} want)
if(got STREQUAL "")
  message(FATAL_ERROR "${HARNESS} wrote an empty stream")
endif()
if(NOT got STREQUAL want)
  message(FATAL_ERROR
    "stream differs from the golden:\n  run:    ${got_path}\n"
    "  golden: ${GOLDEN}")
endif()
message(STATUS "${TAG}: stream matches ${GOLDEN}")
