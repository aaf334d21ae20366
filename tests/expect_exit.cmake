# Runs a command and fails unless it exits with status EXPECT_EXIT:
#
#   cmake -DEXPECT_EXIT=1 -P expect_exit.cmake -- <command> [args...]
#
# ctest only tells zero from nonzero; this tells nvlint's lint findings (1)
# from a parse failure (2) or a crash.
math(EXPR last "${CMAKE_ARGC} - 1")
set(command)
set(after_dashes OFF)
foreach(i RANGE 1 ${last})
  if(after_dashes)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_dashes ON)
  endif()
endforeach()
if(NOT command OR NOT DEFINED EXPECT_EXIT)
  message(FATAL_ERROR
    "usage: cmake -DEXPECT_EXIT=<n> -P expect_exit.cmake -- <command> [args...]")
endif()
execute_process(COMMAND ${command} RESULT_VARIABLE status)
if(NOT "${status}" STREQUAL "${EXPECT_EXIT}")
  list(JOIN command " " shown)
  message(FATAL_ERROR "${shown}: exit status '${status}', expected ${EXPECT_EXIT}")
endif()
