# golden_check.cmake — runs one program and requires its stdout to equal
# the committed golden file byte for byte (bench/golden/ for the
# fig/abl/ext binaries, examples/golden/ and tools/golden/ for the examples
# and `fgpred select`). The programs print virtual-time results, which are
# deterministic, so the comparison has no tolerance.
#
#   cmake -DBINARY=<path> [-DARGS=<arg;...>] -DGOLDEN=<golden.txt> \
#         -P golden_check.cmake
#
# To refresh a golden after an intended output change, run the program and
# commit its stdout: ./build/bench/<name> > bench/golden/<name>.txt
cmake_minimum_required(VERSION 3.16)

execute_process(COMMAND ${BINARY} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE actual
                ERROR_VARIABLE stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with ${rc}\n${stderr}")
endif()
file(READ ${GOLDEN} expected)
if(actual STREQUAL expected)
  return()
endif()

# Report the first line that differs.
set(line 1)
while(TRUE)
  string(FIND "${actual}" "\n" a_end)
  string(FIND "${expected}" "\n" e_end)
  string(SUBSTRING "${actual}" 0 ${a_end} a_line)
  string(SUBSTRING "${expected}" 0 ${e_end} e_line)
  if(NOT a_line STREQUAL e_line OR a_end EQUAL -1 OR e_end EQUAL -1)
    break()
  endif()
  math(EXPR a_end "${a_end} + 1")
  math(EXPR e_end "${e_end} + 1")
  string(SUBSTRING "${actual}" ${a_end} -1 actual)
  string(SUBSTRING "${expected}" ${e_end} -1 expected)
  math(EXPR line "${line} + 1")
endwhile()
if(a_line STREQUAL e_line)
  message(FATAL_ERROR "stdout differs from ${GOLDEN}: one output ends "
                      "after line ${line}, the other does not")
endif()
message(FATAL_ERROR "stdout differs from ${GOLDEN} at line ${line}\n"
                    "  expected: ${e_line}\n"
                    "  actual:   ${a_line}")
