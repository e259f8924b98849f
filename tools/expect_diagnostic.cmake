# Runs `${TOOL} ${ARGS}` (ARGS is a ;-list) and requires a diagnostic, not a
# crash: exactly exit status RC, and stderr matching the regex STDERR.
# WILL_FAIL alone cannot tell the two apart: an abort fails as well.
execute_process(
  COMMAND ${TOOL} ${ARGS}
  OUTPUT_QUIET
  ERROR_VARIABLE ERR
  RESULT_VARIABLE GOT)
string(REPLACE ";" " " CMD "${ARGS}")
if(NOT GOT STREQUAL "${RC}")
  message(FATAL_ERROR "'${CMD}' exited with '${GOT}', expected ${RC}:\n${ERR}")
endif()
if(NOT ERR MATCHES "${STDERR}")
  message(FATAL_ERROR "'${CMD}' stderr does not match '${STDERR}':\n${ERR}")
endif()
