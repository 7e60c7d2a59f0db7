# Fail-closed check for integer flags.
#
# Runs each given binary with malformed values and requires, for each: exit
# code 2, a usage line on stderr, and nothing on stdout (no half-printed
# table). Only rejected values are exercised, so no binary starts a run.
#
#   cmake -DBENCH=<fig bench> "-DKNOB_BENCHES=<bench;...>" -P bench/check_bad_flags.cmake
#   cmake -DSILOZCTL=<silozctl> -DAUDIT=<siloz_audit> -P bench/check_bad_flags.cmake
#
# BENCH gets the full bench_util.h case list; every KNOB_BENCHES binary (each
# one that takes the model-shape knobs) gets the model-knob cases.
if(NOT BENCH AND NOT SILOZCTL AND NOT AUDIT)
  message(FATAL_ERROR "pass -DBENCH=..., -DSILOZCTL=... or -DAUDIT=...")
endif()

function(expect_rejected binary)
  execute_process(COMMAND "${binary}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  get_filename_component(name "${binary}" NAME)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${name} '${ARGN}': exit ${rc}, expected 2\nstderr: ${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "${name} '${ARGN}': wrote to stdout:\n${out}")
  endif()
  if(NOT err MATCHES "usage: ")
    message(FATAL_ERROR "${name} '${ARGN}': no usage on stderr:\n${err}")
  endif()
  message(STATUS "rejected: ${name} ${ARGN}")
endfunction()

if(BENCH)
  expect_rejected("${BENCH}" --threads -1)
  expect_rejected("${BENCH}" --threads abc)
  expect_rejected("${BENCH}" --threads 4x)
  expect_rejected("${BENCH}" --threads 99999999999999999999)
  expect_rejected("${BENCH}" --threads)
  expect_rejected("${BENCH}" --channels-per-shard -1)
  expect_rejected("${BENCH}" --bank-groups-per-queue 1e3)
endif()

# A bank-group queue of zero bank groups does not exist: the knob is >= 1.
foreach(knob_bench IN LISTS KNOB_BENCHES)
  expect_rejected("${knob_bench}" --bank-groups-per-queue 0)
  expect_rejected("${knob_bench}" --channels-per-shard x)
endforeach()

if(SILOZCTL)
  expect_rejected("${SILOZCTL}" run redis-a --trials abc)
  expect_rejected("${SILOZCTL}" run redis-a --trials -1)
  expect_rejected("${SILOZCTL}" run redis-a --trials 4x)
  expect_rejected("${SILOZCTL}" run redis-a --trials 4294967296)
  expect_rejected("${SILOZCTL}" run redis-a --seed 99999999999999999999)
  expect_rejected("${SILOZCTL}" run redis-a --threads)
  expect_rejected("${SILOZCTL}" attack --patterns 1e3)
  expect_rejected("${SILOZCTL}" audit --stride 0x)
  expect_rejected("${SILOZCTL}" groupof 12abc)
endif()

if(AUDIT)
  expect_rejected("${AUDIT}" --threads abc)
  expect_rejected("${AUDIT}" --stride -1)
  expect_rejected("${AUDIT}" --max-findings 4x)
  expect_rejected("${AUDIT}" --subarray-rows 99999999999999999999)
  expect_rejected("${AUDIT}" --random-probes 0x)
endif()
