# bench_diff_smoke: gates the report a bench_smoke_<name> test left in REPORT_DIR against
# its committed baseline in bench/baselines/ via bench_diff. Invoked by ctest (the
# bench_diff_smoke* tests in the top-level CMakeLists.txt, which require their smoke test
# as a fixture) as:
#
#   cmake -DBENCH_DIFF=<path> -DBASELINE=<path> -DREPORT_DIR=<dir> [-DDIFF_SKIPS=<a,b,...>]
#         -P bench_diff_smoke.cmake
#
# The simulation is deterministic, and tracing does not change it, so the committed
# baseline reproduces bit-for-bit on any box with the same toolchain; a tiny tolerance
# absorbs JSON double round-tripping. To refresh a baseline after an intentional behavior
# change, copy the smoke test's report over it (bench_diff prints the drift).

foreach(var BENCH_DIFF BASELINE REPORT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_diff_smoke: ${var} not set")
  endif()
endforeach()

# Optional DIFF_SKIPS: comma-separated substrings of metric names to exclude from the
# gate (forwarded as repeated `bench_diff --skip`). Used by harnesses that mix pinned
# deterministic metrics with machine-dependent timing metrics (bench_kernels gates its
# parity checksums while its GB/s and speedup numbers vary by host).
set(skip_args "")
if(DIFF_SKIPS)
  string(REPLACE "," ";" skip_list "${DIFF_SKIPS}")
  foreach(skip ${skip_list})
    list(APPEND skip_args --skip ${skip})
  endforeach()
endif()

get_filename_component(report ${BASELINE} NAME)
if(NOT EXISTS ${REPORT_DIR}/${report})
  message(FATAL_ERROR "bench_diff_smoke: no ${report} in ${REPORT_DIR}")
endif()
execute_process(
  COMMAND ${BENCH_DIFF} --tol 0.000001 ${skip_args} ${BASELINE} ${REPORT_DIR}/${report}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "bench_diff_smoke: ${report} drifted from bench/baselines/${report} (${rc}); if the "
    "change is intentional, regenerate the baseline at the smoke scale")
endif()
message(STATUS "bench_diff_smoke: ${report} matches its baseline")
