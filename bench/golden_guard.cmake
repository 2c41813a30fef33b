# golden_guard.cmake — ctest script holding a perf harness's simulated
# checksums to its committed golden (bench/expected_*_test.json):
#
#   1. run HARNESS --scale=test --json=<WORK_DIR>/<TAG>.json;
#   2. every top-level key of the golden except "note" and "results"
#      (scale, accesses_per_config) must equal the run's value;
#   3. the run must have as many result rows as the golden, and every key
#      of every golden row must equal the run's value in the same row.
#
# The goldens hold only deterministic columns, so the wall-clock fields
# of the run's JSON are never compared.
#
# Variables: HARNESS (binary path), GOLDEN (expected JSON path),
#            TAG (file-name tag), WORK_DIR (where the run's JSON lands).
cmake_minimum_required(VERSION 3.19)  # string(JSON)

set(got_path "${WORK_DIR}/${TAG}.json")
file(REMOVE ${got_path})
execute_process(
  COMMAND ${HARNESS} --scale=test --json=${got_path}
  OUTPUT_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${HARNESS} --scale=test exited with ${rc}")
endif()
file(READ ${got_path} got)
file(READ ${GOLDEN} want)

# Fails unless the value at JSON path ARGN is the same text in both.
function(expect_same label)
  string(JSON w GET "${want}" ${ARGN})
  string(JSON g ERROR_VARIABLE err GET "${got}" ${ARGN})
  if(err OR NOT "${g}" STREQUAL "${w}")
    message(FATAL_ERROR "${label}: run has '${g}', ${GOLDEN} has '${w}'")
  endif()
endfunction()

string(JSON n_top LENGTH "${want}")
math(EXPR last_top "${n_top} - 1")
foreach(i RANGE ${last_top})
  string(JSON key MEMBER "${want}" ${i})
  if(NOT key STREQUAL "note" AND NOT key STREQUAL "results")
    expect_same(${key} ${key})
  endif()
endforeach()

string(JSON n_want LENGTH "${want}" results)
string(JSON n_got LENGTH "${got}" results)
if(NOT n_got EQUAL n_want)
  message(FATAL_ERROR "run has ${n_got} result rows, ${GOLDEN} has ${n_want}")
endif()
math(EXPR last_row "${n_want} - 1")
foreach(r RANGE ${last_row})
  string(JSON n_keys LENGTH "${want}" results ${r})
  math(EXPR last_key "${n_keys} - 1")
  foreach(k RANGE ${last_key})
    string(JSON key MEMBER "${want}" results ${r} ${k})
    expect_same("results[${r}].${key}" results ${r} ${key})
  endforeach()
endforeach()
message(STATUS "${TAG}: ${n_want} rows match ${GOLDEN}")
