# Runs one lint rule set over this fixture tree (never compiled: each file
# tags its constructs with the check that should report them, or "near
# miss") and byte-compares the JSON report and the stderr with the
# committed expectations.
#
#   cmake -DLINT=<lint binary> -DRULES=detlint|sharedlint -DOUT=<dir>
#         -P tests/lint_fixtures/check.cmake
#
# The tree has findings and each allowlist has an unused entry, so lint must
# exit 1; over src/sim/random.cpp alone, which has no findings, the unused
# entries alone must make it exit 1. After an intended change, copy
# <OUT>/<RULES>.json and <OUT>/<RULES>.stderr over <RULES>.expected.json and
# <RULES>.expected.stderr.
set(dir ${CMAKE_CURRENT_LIST_DIR})
execute_process(
  COMMAND ${LINT} ${RULES} --allowlist ${RULES}_allowlist.txt --json ${OUT}/${RULES}.json src
  WORKING_DIRECTORY ${dir}
  RESULT_VARIABLE rc
  ERROR_FILE ${OUT}/${RULES}.stderr)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "lint ${RULES} exited ${rc}, expected 1")
endif()
foreach(ext json stderr)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}/${RULES}.${ext}
            ${dir}/${RULES}.expected.${ext}
    RESULT_VARIABLE differs)
  if(differs)
    file(READ ${OUT}/${RULES}.${ext} got)
    message(FATAL_ERROR "${OUT}/${RULES}.${ext} differs from ${RULES}.expected.${ext}:\n${got}")
  endif()
endforeach()
execute_process(
  COMMAND ${LINT} ${RULES} --allowlist ${RULES}_allowlist.txt src/sim/random.cpp
  WORKING_DIRECTORY ${dir}
  RESULT_VARIABLE rc
  OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "lint ${RULES} with only unused allowlist entries exited ${rc}, expected 1")
endif()
