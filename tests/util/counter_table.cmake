# Fails when a row of the trace counter table (CESM_TRACE_COUNTERS in
# src/util/trace.h) is counted nowhere in src/: a row that nothing adds
# to reads zero forever and only looks like a measurement. A name that
# is counted but not in the table does not compile.
#
#   cmake -DSRC_DIR=path/to/src -P counter_table.cmake

file(READ "${SRC_DIR}/util/trace.h" table)
string(REGEX MATCHALL "X\\((k[A-Za-z0-9]+), \"" rows "${table}")
list(LENGTH rows row_count)
if(row_count EQUAL 0)
  message(FATAL_ERROR "no counter rows found in ${SRC_DIR}/util/trace.h")
endif()

file(GLOB_RECURSE sources "${SRC_DIR}/*.h" "${SRC_DIR}/*.cpp")
list(REMOVE_ITEM sources "${SRC_DIR}/util/trace.h")
set(code "")
foreach(source IN LISTS sources)
  file(READ "${source}" text)
  string(APPEND code "${text}\n")
endforeach()

set(uncounted "")
foreach(row IN LISTS rows)
  string(REGEX REPLACE "X\\((k[A-Za-z0-9]+), \"" "\\1" id "${row}")
  if(NOT code MATCHES "Counter::${id}[^A-Za-z0-9_]")
    list(APPEND uncounted "${id}")
  endif()
endforeach()

if(uncounted)
  message(FATAL_ERROR "counter rows counted nowhere in src/: ${uncounted}")
endif()
message(STATUS "${row_count} counter rows, each counted in src/")
