# Runs `tcfragd FLAG VALUE` and requires a clean rejection: exit code 2 and
# a stderr line naming the flag and its accepted range. An abort (a signal,
# not an exit code) fails, and so does a daemon that accepts the value and
# starts listening (the timeout kills it).
#
#   cmake -DTCFRAGD=<path> -DFLAG=<--flag> -DVALUE=<value> -P <this file>
execute_process(
  COMMAND "${TCFRAGD}" "${FLAG}" "${VALUE}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 20)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "tcfragd ${FLAG} ${VALUE}: want exit code 2, got "
                      "'${rc}'\nstdout: ${out}\nstderr: ${err}")
endif()
string(FIND "${err}" "tcfragd: ${FLAG} must be" at)
if(at EQUAL -1)
  message(FATAL_ERROR "tcfragd ${FLAG} ${VALUE}: stderr does not name the "
                      "flag and its range:\n${err}")
endif()
