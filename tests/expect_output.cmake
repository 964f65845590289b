# Runs one program and checks its exit status and combined stdout+stderr.
#
#   cmake -DRC=<status> -DEXPECT=<regex> -P expect_output.cmake -- <program> [args...]
#
# Fails unless the program exits with <status> and its output matches
# <regex>. In CMake regexes `.` also matches a newline, so one pattern can
# assert that one line of output follows another.
#
#   cmake -DEXPECT_FILE=<file> -DACTUAL=<file> -P expect_output.cmake -- <program> [args...]
#
# Fails unless the program exits 0 and its stdout, kept in <ACTUAL>, equals
# <EXPECT_FILE> byte for byte. With -DWRITES=ON the program writes <ACTUAL>
# itself (say through a --json=<ACTUAL> option) and its stdout is dropped.
set(cmd)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "usage: cmake -DRC=N -DEXPECT=RE -P ${CMAKE_SCRIPT_MODE_FILE} -- <program> [args...]")
endif()

if(DEFINED EXPECT_FILE)
  if(WRITES)
    file(REMOVE "${ACTUAL}")
    execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_QUIET)
  else()
    execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_FILE "${ACTUAL}")
  endif()
  if(NOT "${rc}" STREQUAL "0")
    message(FATAL_ERROR "expected exit status 0, got ${rc}")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          "${EXPECT_FILE}" "${ACTUAL}" RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "output differs: diff ${EXPECT_FILE} ${ACTUAL}")
  endif()
  return()
endif()

execute_process(COMMAND ${cmd} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT "${rc}" STREQUAL "${RC}")
  message(FATAL_ERROR "expected exit status ${RC}, got ${rc}; output:\n${out}")
endif()
if(NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "output does not match:\n  ${EXPECT}\noutput:\n${out}")
endif()
