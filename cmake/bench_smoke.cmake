# bench_smoke: runs one benchmark harness at a tiny scale and validates that it produced a
# conforming BENCH_<name>.json. Invoked by ctest once per harness (the bench_smoke_<name>
# tests in the top-level CMakeLists.txt, label bench_smoke) as:
#
#   cmake -DHARNESS=<path> -DVALIDATOR=<path> -DOUT_DIR=<dir> -P bench_smoke.cmake
#
# Fails on: the harness exiting nonzero, not writing its report, the report failing schema
# validation (schema drift between writer and validator), or its SLIM_TRACE output missing
# or malformed. The report stays in OUT_DIR, where the harness's bench_diff_smoke* gate
# (cmake/bench_diff_smoke.cmake) compares it with its committed baseline, next to the
# harness's stdout (<harness>.out), whose tables the bench_smoke_fig<N>_* tests check. A report's `scale`
# block records only the knobs its harness reads (ScaleKnob in bench/bench_util.h), and
# bench_diff refuses a report that differs from its baseline on one of them, so each knob
# set below must match the `scale` block of every baseline that lists it.

foreach(var HARNESS VALIDATOR OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_smoke: ${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE ${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR})

get_filename_component(name ${HARNESS} NAME)

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env
    SLIM_USERS=2 SLIM_MINUTES=1 SLIM_SECONDS=5 SLIM_SOAK_EVENTS=20
    SLIM_CHURN_SESSIONS=2 SLIM_CHURN_CONSOLES=3 SLIM_CHURN_OPS=24
    SLIM_BENCH_DIR=${OUT_DIR}
    SLIM_TRACE=${OUT_DIR}/TRACE_${name}.json
    ${HARNESS}
  RESULT_VARIABLE rc
  OUTPUT_FILE ${OUT_DIR}/${name}.out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_smoke: ${name} exited with ${rc}")
endif()

file(GLOB reports ${OUT_DIR}/BENCH_*.json)
list(LENGTH reports report_count)
if(NOT report_count EQUAL 1)
  message(FATAL_ERROR
    "bench_smoke: ${name} wrote ${report_count} BENCH_*.json reports to ${OUT_DIR}, "
    "expected exactly 1")
endif()

execute_process(COMMAND ${VALIDATOR} ${reports} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_smoke: ${name} report validation failed (${rc})")
endif()

# The trace must load as Chrome trace JSON (parseable array, balanced B/E spans):
# SLIM_TRACE was set above, so a harness that ignores it or writes a corrupt trace fails.
file(GLOB traces ${OUT_DIR}/TRACE_*.json)
list(LENGTH traces trace_count)
if(NOT trace_count EQUAL 1)
  message(FATAL_ERROR
    "bench_smoke: expected 1 TRACE_*.json file from ${name} but found ${trace_count} in "
    "${OUT_DIR}")
endif()
execute_process(COMMAND ${VALIDATOR} --trace ${traces} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_smoke: ${name} trace validation failed (${rc})")
endif()
message(STATUS "bench_smoke: ${name}: ${report_count} report and ${trace_count} trace validated")
