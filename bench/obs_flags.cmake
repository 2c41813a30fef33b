# obs_flags.cmake — ctest script: a harness that accepts the
# observability flags must honour them. One shard-worker run with
# --obs-stats --obs-intervals --trace=FILE must
#
#   1. give EVERY record an "obs" snapshot and an "obs_intervals"
#      timeline, which `dsm_report timeline` reconciles (exit 0);
#   2. leave one trace dump per spec point (FILE.<index>, or FILE when
#      the sweep has one point) that `dsm_report trace --validate`
#      accepts.
#
# Variables: HARNESS (binary path), HARNESS_ARGS (;-list of flags),
#            POINTS (spec points the flags select), DSM_REPORT
#            (dsm_report binary path), TAG (file-name tag), WORK_DIR.

include(${CMAKE_CURRENT_LIST_DIR}/bench_check.cmake)

set(stream "${WORK_DIR}/${TAG}.ndjson")
set(trace "${WORK_DIR}/${TAG}.trace")
file(GLOB stale "${trace}*")
if(stale)
  file(REMOVE ${stale})
endif()
dsm_run(${stream} ${HARNESS} ${HARNESS_ARGS} --obs-stats --obs-intervals
  --trace=${trace} --shard=0/1)

# 1. Every record carries both envelope fields.
file(READ ${stream} bytes)
string(REGEX MATCHALL "\n" lines "${bytes}")
string(REGEX MATCHALL "\"obs\":{" snapshots "${bytes}")
string(REGEX MATCHALL "\"obs_intervals\":{" timelines "${bytes}")
list(LENGTH lines n_records)
list(LENGTH snapshots n_snapshots)
list(LENGTH timelines n_timelines)
if(NOT n_records EQUAL POINTS OR NOT n_snapshots EQUAL POINTS OR
   NOT n_timelines EQUAL POINTS)
  message(FATAL_ERROR
    "${stream}: want ${POINTS} records, each with \"obs\" and "
    "\"obs_intervals\"; got ${n_records} records, ${n_snapshots} "
    "snapshots, ${n_timelines} timelines")
endif()
dsm_run("" ${DSM_REPORT} timeline ${stream})

# 2. One valid trace dump per spec point.
set(dumps "")
if(POINTS EQUAL 1)
  list(APPEND dumps ${trace})
else()
  math(EXPR last "${POINTS} - 1")
  foreach(i RANGE ${last})
    list(APPEND dumps "${trace}.${i}")
  endforeach()
endif()
foreach(dump IN LISTS dumps)
  if(NOT EXISTS ${dump})
    message(FATAL_ERROR "--trace left no dump at ${dump}")
  endif()
  dsm_run("" ${DSM_REPORT} trace --validate ${dump})
endforeach()
message(STATUS "${TAG}: ${POINTS} records with obs + obs_intervals, "
               "${POINTS} valid trace dumps")
