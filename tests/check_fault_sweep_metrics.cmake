# `siloz_audit --fault-sweep --metrics-out FILE` must write FILE.
#
#   cmake -DAUDIT=<siloz_audit> -DOUT=<file> -P check_fault_sweep_metrics.cmake
file(REMOVE "${OUT}")
execute_process(COMMAND "${AUDIT}" --fault-sweep --metrics-out "${OUT}"
                RESULT_VARIABLE code OUTPUT_QUIET)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "siloz_audit --fault-sweep exited ${code}")
endif()
if(NOT EXISTS "${OUT}")
  message(FATAL_ERROR "siloz_audit --fault-sweep wrote no ${OUT}")
endif()
