# Runs TOOL once per '|'-separated argument string in CASES and fails
# unless every run exits EXIT (default 2, the tools' usage-error code):
#
#   cmake -DTOOL=<exe> [-DEXIT=3] "-DCASES=--days -3|--days abc" -P expect_usage_error.cmake
#
# stdin is /dev/null, so a tool that wrongly accepts its arguments and
# starts serving sees EOF instead of waiting for input.
if(NOT DEFINED EXIT)
  set(EXIT 2)
endif()
string(REPLACE "|" ";" cases "${CASES}")
foreach(case IN LISTS cases)
  separate_arguments(args UNIX_COMMAND "${case}")
  execute_process(COMMAND "${TOOL}" ${args}
                  INPUT_FILE /dev/null OUTPUT_QUIET ERROR_VARIABLE err
                  RESULT_VARIABLE code TIMEOUT 60)
  if(NOT code EQUAL EXIT)
    message(FATAL_ERROR "${TOOL} ${case}: exit '${code}', want ${EXIT}\n${err}")
  endif()
endforeach()
