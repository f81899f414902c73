# An in-core `cesmtool suite` verifies whole members unless --chunk=N asks
# for a partition, as run_suite does by default: the default run and the
# same run with --chunk=0 must write byte-identical CSVs.
#
#   cmake -DCESMTOOL=path/to/cesmtool -P cesmtool_default_chunk.cmake

set(args suite --vars=2 --no-bias)
foreach(run default chunk0)
  set(extra "")
  if(run STREQUAL "chunk0")
    set(extra --chunk=0)
  endif()
  execute_process(COMMAND ${CESMTOOL} ${args} ${extra} --out=default_chunk_${run}.csv
                  RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cesmtool ${args} ${extra} exited ${rc}")
  endif()
endforeach()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        default_chunk_default.csv default_chunk_chunk0.csv
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "in-core cesmtool suite without --chunk differs from --chunk=0")
endif()
