# Runs `TOOL ingest --preset S1 --days 1 --keep` twice and fails unless
# the runs report different `corpus dir`s and both still exist after the
# second run; removes them either way:
#
#   cmake -DTOOL=<hpcfail> -P kept_scratch.cmake
set(dirs)
foreach(run 1 2)
  execute_process(COMMAND "${TOOL}" ingest --preset S1 --days 1 --keep --threads 1
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code TIMEOUT 60)
  if(NOT code EQUAL 0 OR NOT out MATCHES "corpus dir +([^\n]*hpcfail_ingest_[^\n]*)")
    file(REMOVE_RECURSE ${dirs})
    message(FATAL_ERROR "run ${run}: exit '${code}'\n${out}${err}")
  endif()
  list(APPEND dirs "${CMAKE_MATCH_1}")
endforeach()
set(problems "")
list(GET dirs 0 first)
list(GET dirs 1 second)
if(first STREQUAL second)
  string(APPEND problems "both runs used ${first}\n")
endif()
foreach(dir IN LISTS dirs)
  if(NOT IS_DIRECTORY "${dir}")
    string(APPEND problems "kept corpus ${dir} is gone\n")
  endif()
endforeach()
file(REMOVE_RECURSE ${dirs})
if(problems)
  message(FATAL_ERROR "${problems}")
endif()
