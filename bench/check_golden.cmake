# Runs one paper-figure harness and compares the [csv] block it prints
# byte for byte against a checked-in golden file, so a refactor cannot
# silently move the reproduction's numbers. Regenerate the golden with
#   PRIVMARK_UPDATE_GOLDEN=1 ctest -R <test name>
#
# Usage: cmake -DHARNESS=<binary> -DGOLDEN=<file> -P check_golden.cmake

execute_process(COMMAND "${HARNESS}"
  OUTPUT_VARIABLE output RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${HARNESS} exited with ${exit_code}:\n${output}")
endif()

# PrintResult() writes "[csv]\n<csv rows>\n" and then a blank line.
string(FIND "${output}" "[csv]\n" csv_marker)
if(csv_marker EQUAL -1)
  message(FATAL_ERROR "${HARNESS} printed no [csv] block:\n${output}")
endif()
math(EXPR csv_begin "${csv_marker} + 6")
string(SUBSTRING "${output}" ${csv_begin} -1 csv)
string(FIND "${csv}" "\n\n" csv_end)
if(NOT csv_end EQUAL -1)
  math(EXPR csv_end "${csv_end} + 1")
  string(SUBSTRING "${csv}" 0 ${csv_end} csv)
endif()

if(DEFINED ENV{PRIVMARK_UPDATE_GOLDEN})
  file(WRITE "${GOLDEN}" "${csv}")
  message(STATUS "wrote ${GOLDEN}")
  return()
endif()

if(NOT EXISTS "${GOLDEN}")
  message(FATAL_ERROR
    "missing golden file ${GOLDEN} (regenerate with PRIVMARK_UPDATE_GOLDEN=1)")
endif()
file(READ "${GOLDEN}" expected)
if(NOT csv STREQUAL expected)
  message(FATAL_ERROR "[csv] block of ${HARNESS} differs from ${GOLDEN}\n"
    "--- expected\n${expected}--- actual\n${csv}")
endif()
