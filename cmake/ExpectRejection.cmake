# Runs `${TOOL} ${ARGS} ${INPUT}` (ARGS is a ;-list) and requires a clean
# rejection: a nonzero exit status that is not a crash, and output matching
# the EXPECT regex. The input is generated first:
#   GENERATE=deep_parens   INPUT holds `x := ((…1…))` nested COUNT deep
#   GENERATE=long_sequence INPUT holds a sequence of COUNT statements
#   GENERATE=long_chain    INPUT holds `x := 1+1+…+1` with COUNT operators
#   GENERATE=random_bytes  INPUT holds COUNT pseudo-random bytes (fixed LCG,
#                          so every run sees the same bytes)
#   GENERATE=text          INPUT holds CONTENT verbatim
if(GENERATE STREQUAL "deep_parens")
  string(REPEAT "(" ${COUNT} OPEN)
  string(REPEAT ")" ${COUNT} CLOSE)
  file(WRITE ${INPUT} "var x : L;\nx := ${OPEN}1${CLOSE}\n")
elseif(GENERATE STREQUAL "long_sequence")
  math(EXPR REST "${COUNT} - 1")
  string(REPEAT "x := 1;\n" ${REST} BODY)
  file(WRITE ${INPUT} "var x : L;\n${BODY}x := 1\n")
elseif(GENERATE STREQUAL "long_chain")
  string(REPEAT "+1" ${COUNT} TERMS)
  file(WRITE ${INPUT} "var x : L;\nx := 1${TERMS}\n")
elseif(GENERATE STREQUAL "random_bytes")
  set(STATE 12345)
  set(BYTES "")
  foreach(I RANGE 1 ${COUNT})
    math(EXPR STATE "(${STATE} * 1103515245 + 12345) % 2147483648")
    math(EXPR B "(${STATE} >> 16) % 256")
    if(B EQUAL 0) # CMake strings cannot hold NUL.
      set(B 1)
    endif()
    string(ASCII ${B} C)
    string(APPEND BYTES "${C}")
  endforeach()
  file(WRITE ${INPUT} "${BYTES}")
elseif(GENERATE STREQUAL "text")
  file(WRITE ${INPUT} "${CONTENT}")
else()
  message(FATAL_ERROR "unknown GENERATE mode '${GENERATE}'")
endif()

execute_process(
  COMMAND ${TOOL} ${ARGS} ${INPUT}
  OUTPUT_VARIABLE OUT
  ERROR_VARIABLE ERR
  RESULT_VARIABLE RC)
if(NOT RC MATCHES "^[0-9]+$")
  message(FATAL_ERROR "${TOOL} crashed (${RC}) on ${INPUT}")
endif()
if(RC EQUAL 0)
  message(FATAL_ERROR "${TOOL} accepted ${INPUT}; expected a rejection")
endif()
if(NOT "${OUT}${ERR}" MATCHES "${EXPECT}")
  message(FATAL_ERROR
          "${TOOL} rejected ${INPUT} (rc=${RC}) without matching "
          "'${EXPECT}':\n${OUT}${ERR}")
endif()
