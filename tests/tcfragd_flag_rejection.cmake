# Runs `tcfragd FLAG VALUE` (`tcfragd FLAG` when VALUE is not given) and
# requires a clean rejection: exit code 2 and a stderr line containing
# EXPECT (default: `tcfragd: FLAG must be`, the start of the line naming
# the flag and its accepted range). An abort (a signal, not an exit code)
# fails, and so does a daemon that accepts the value and starts listening
# (the timeout kills it).
#
#   cmake -DTCFRAGD=<path> -DFLAG=<--flag> [-DVALUE=<value>]
#         [-DEXPECT=<stderr text>] -P <this file>
if(NOT DEFINED EXPECT)
  set(EXPECT "tcfragd: ${FLAG} must be")
endif()
set(args "${FLAG}")
if(DEFINED VALUE)
  list(APPEND args "${VALUE}")
endif()
execute_process(
  COMMAND "${TCFRAGD}" ${args}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 20)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "tcfragd ${FLAG} ${VALUE}: want exit code 2, got "
                      "'${rc}'\nstdout: ${out}\nstderr: ${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "tcfragd ${FLAG} ${VALUE}: stderr does not contain "
                      "'${EXPECT}':\n${err}")
endif()
