# Fail-closed check for the shared bench integer knobs (bench/bench_util.h).
#
# Runs BENCH with malformed values and requires, for each: exit code 2, a
# usage line on stderr, and nothing on stdout (no half-printed table).
# Only rejected values are exercised, so the bench never starts a run.
#
#   cmake -DBENCH=<bench binary> -P bench/check_bad_flags.cmake
if(NOT BENCH)
  message(FATAL_ERROR "pass -DBENCH=<bench binary>")
endif()

function(expect_rejected)
  execute_process(COMMAND "${BENCH}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "'${ARGN}': exit ${rc}, expected 2\nstderr: ${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "'${ARGN}': wrote to stdout:\n${out}")
  endif()
  if(NOT err MATCHES "usage: ")
    message(FATAL_ERROR "'${ARGN}': no usage on stderr:\n${err}")
  endif()
  message(STATUS "rejected: ${ARGN}")
endfunction()

expect_rejected(--threads -1)
expect_rejected(--threads abc)
expect_rejected(--threads 4x)
expect_rejected(--threads 99999999999999999999)
expect_rejected(--threads)
expect_rejected(--channels-per-shard -1)
expect_rejected(--bank-groups-per-queue 1e3)
