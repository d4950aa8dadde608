# Runs EXE with ARGS (a ;-list) and fails unless it exits with code 2 and
# its output names the rejected option (EXPECT). Used by the CTest cases
# that pin the bad-option path of the command-line programs.
execute_process(COMMAND ${EXE} ${ARGS}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "expected exit code 2, got '${code}'\n${out}${err}")
endif()
string(FIND "${out}${err}" "${EXPECT}" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "output does not name '${EXPECT}':\n${out}${err}")
endif()
