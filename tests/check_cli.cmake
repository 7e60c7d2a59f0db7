# Fail-closed command lines (src/base/flags.h), for every binary that takes
# argv. Each rejected input must exit 2 with a usage line on stderr and
# nothing on stdout (no half-printed table, no run started); `--help` must
# exit 0 with the usage on stdout and nothing on stderr. Only rejected input
# and --help are exercised, so no binary runs its workload.
#
#   cmake "-DBENCHES=<bin;...>" "-DTHREADED=<bin;...>" "-DKNOB_BENCHES=<bin;...>"
#         -DFIG_BENCH=<bin> -P tests/check_cli.cmake
#   cmake -DSILOZCTL=<bin> -DAUDIT=<bin> -DEXPLORER=<bin> "-DEXAMPLES=<bin;...>"
#         -P tests/check_cli.cmake
#
# BENCHES and EXAMPLES get the cases every binary must reject; THREADED (the
# binaries that take --threads) the --threads cases; KNOB_BENCHES (those that
# take the model-shape knobs) the knob cases; FIG_BENCH the full integer
# case list; every other bench gets `--threads 8` rejected too.
cmake_policy(SET CMP0057 NEW)  # if(... IN_LIST ...)
if(NOT BENCHES AND NOT SILOZCTL)
  message(FATAL_ERROR "pass -DBENCHES=... or -DSILOZCTL=...")
endif()

function(expect_rejected binary)
  execute_process(COMMAND "${binary}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  get_filename_component(name "${binary}" NAME)
  list(JOIN ARGN " " args)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${name} '${args}': exit ${rc}, expected 2\nstderr: ${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "${name} '${args}': wrote to stdout:\n${out}")
  endif()
  if(NOT err MATCHES "usage: ")
    message(FATAL_ERROR "${name} '${args}': no usage on stderr:\n${err}")
  endif()
  message(STATUS "rejected: ${name} ${args}")
endfunction()

function(expect_help binary)
  execute_process(COMMAND "${binary}" ${ARGN} --help
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  get_filename_component(name "${binary}" NAME)
  list(JOIN ARGN " " args)
  string(STRIP "${args} --help" args)
  if(NOT rc EQUAL 0 OR NOT out MATCHES "^usage: " OR NOT err STREQUAL "")
    message(FATAL_ERROR "${name} '${args}': exit ${rc}, expected 0 with usage only\n"
                        "stdout: ${out}\nstderr: ${err}")
  endif()
  message(STATUS "help: ${name} ${args}")
endfunction()

# What every binary must reject: an unknown flag, a typo of a real one, and
# a stray positional.
function(expect_common binary)
  expect_help("${binary}" ${ARGN})
  expect_rejected("${binary}" ${ARGN} --bogus)
  expect_rejected("${binary}" ${ARGN} --thread 4)
  expect_rejected("${binary}" ${ARGN} stray)
endfunction()

foreach(binary IN LISTS BENCHES EXAMPLES)
  expect_common("${binary}")
  if(NOT binary IN_LIST THREADED)
    expect_rejected("${binary}" --threads 8)
  endif()
endforeach()

foreach(binary IN LISTS THREADED)
  expect_rejected("${binary}" --threads)
  expect_rejected("${binary}" --threads 1 --threads 2)
endforeach()

if(FIG_BENCH)
  expect_rejected("${FIG_BENCH}" --threads -1)
  expect_rejected("${FIG_BENCH}" --threads abc)
  expect_rejected("${FIG_BENCH}" --threads 4x)
  expect_rejected("${FIG_BENCH}" --threads 99999999999999999999)
  expect_rejected("${FIG_BENCH}" --threads)
  expect_rejected("${FIG_BENCH}" --threads 1025)
  expect_rejected("${FIG_BENCH}" --channels-per-shard -1)
  expect_rejected("${FIG_BENCH}" --bank-groups-per-queue 1e3)
  expect_rejected("${FIG_BENCH}" --platform bogus)
endif()

# A bank-group queue of zero bank groups does not exist: the knob is >= 1.
foreach(knob_bench IN LISTS KNOB_BENCHES)
  expect_rejected("${knob_bench}" --bank-groups-per-queue 0)
  expect_rejected("${knob_bench}" --channels-per-shard x)
  expect_rejected("${knob_bench}" --channels-per-shard)
endforeach()

if(SILOZCTL)
  expect_help("${SILOZCTL}")
  expect_rejected("${SILOZCTL}")
  expect_rejected("${SILOZCTL}" bogus)
  foreach(command IN ITEMS topology attack audit fleet)
    expect_common("${SILOZCTL}" ${command})
  endforeach()
  expect_common("${SILOZCTL}" run redis-a)
  expect_common("${SILOZCTL}" groupof 0x40000000)
  expect_rejected("${SILOZCTL}" run redis-a --trails 2)
  expect_rejected("${SILOZCTL}" run redis-a --trials abc)
  expect_rejected("${SILOZCTL}" run redis-a --trials -1)
  expect_rejected("${SILOZCTL}" run redis-a --trials 4x)
  expect_rejected("${SILOZCTL}" run redis-a --trials 4294967296)
  expect_rejected("${SILOZCTL}" run redis-a --seed 99999999999999999999)
  expect_rejected("${SILOZCTL}" run redis-a --threads)
  expect_rejected("${SILOZCTL}" run --platform bogus)
  expect_rejected("${SILOZCTL}" run redis-z)
  expect_rejected("${SILOZCTL}" attack --patterns 1e3)
  expect_rejected("${SILOZCTL}" attack --seed)
  expect_rejected("${SILOZCTL}" audit --stride 0x)
  expect_rejected("${SILOZCTL}" audit 1)
  expect_rejected("${SILOZCTL}" topology --subarray-rows)
  expect_rejected("${SILOZCTL}" topology --platform bogus)
  expect_rejected("${SILOZCTL}" fleet --duration abc)
  expect_rejected("${SILOZCTL}" fleet --rate 1e)
  expect_rejected("${SILOZCTL}" fleet --epoch nan)
  expect_rejected("${SILOZCTL}" fleet --burst inf)
  expect_rejected("${SILOZCTL}" fleet --timeout)
  expect_rejected("${SILOZCTL}" fleet --policy bogus)
  expect_rejected("${SILOZCTL}" groupof)
  expect_rejected("${SILOZCTL}" groupof 12abc)
endif()

if(AUDIT)
  expect_common("${AUDIT}")
  expect_rejected("${AUDIT}" --threads abc)
  expect_rejected("${AUDIT}" --threads)
  expect_rejected("${AUDIT}" --stride -1)
  expect_rejected("${AUDIT}" --stride)
  expect_rejected("${AUDIT}" --max-findings 4x)
  expect_rejected("${AUDIT}" --subarray-rows 99999999999999999999)
  expect_rejected("${AUDIT}" --random-probes 0x)
  expect_rejected("${AUDIT}" --decoder bogus)
  expect_rejected("${AUDIT}" --corrupt bogus)
  expect_rejected("${AUDIT}" --platform bogus)
  expect_rejected("${AUDIT}" --json --json)
endif()

if(EXPLORER)
  expect_help("${EXPLORER}")
  expect_rejected("${EXPLORER}" --bogus)
  expect_rejected("${EXPLORER}" 12abc)
  expect_rejected("${EXPLORER}" -1)
  expect_rejected("${EXPLORER}" 0x40000000 stray)
  expect_rejected("${EXPLORER}" 0x1000000000000)
endif()
