# Runs BENCH and fails if it dies on a signal or abort or exits above 1.
# Exit 0 or 1 is the verdict the bench printed (1 = its demonstration did
# not reproduce), not a crash.
#
#   cmake -DBENCH=<bench binary> -P bench/check_no_crash.cmake
if(NOT BENCH)
  message(FATAL_ERROR "pass -DBENCH=<bench binary>")
endif()

execute_process(COMMAND "${BENCH}" RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc MATCHES "^[01]$")
  message(FATAL_ERROR "exit '${rc}', expected 0 or 1\nstdout:\n${out}\nstderr:\n${err}")
endif()
message(STATUS "exit ${rc}:\n${out}")
