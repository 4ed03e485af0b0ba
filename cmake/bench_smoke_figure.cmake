# bench_smoke_figure: checks one figure's part of the user-study smoke run that
# bench_smoke_user_study left in REPORT_DIR: bench_user_study printed the figure's table,
# and its report holds the figure's fig<N>.* metrics. Invoked by ctest (the
# bench_smoke_fig<N>_<name> tests in the top-level CMakeLists.txt, which require
# bench_smoke_user_study as a fixture) as:
#
#   cmake -DREPORT_DIR=<dir> -DFIGURE=<N> -P bench_smoke_figure.cmake
#
# The figure's values are compared with the committed baseline by its gate
# (bench_diff_smoke_fig<N>_<name>, or bench_diff_smoke for Figure 2).

foreach(var REPORT_DIR FIGURE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_smoke_figure: ${var} not set")
  endif()
endforeach()

file(READ ${REPORT_DIR}/bench_user_study.out stdout)
string(FIND "${stdout}" "\nFigure ${FIGURE} - " at)
if(at EQUAL -1)
  message(FATAL_ERROR "bench_smoke_figure: bench_user_study printed no Figure ${FIGURE} table")
endif()

file(READ ${REPORT_DIR}/BENCH_user_study.json report)
string(REGEX MATCHALL "\"fig${FIGURE}\\.[^\"]+\"" metrics "${report}")
list(LENGTH metrics count)
if(count EQUAL 0)
  message(FATAL_ERROR "bench_smoke_figure: BENCH_user_study.json has no fig${FIGURE}.* metric")
endif()
message(STATUS "bench_smoke_figure: Figure ${FIGURE}: table printed, ${count} metrics reported")
