# src_reads_no_environment: fails when any libslim source reads the process environment.
# The library takes every setting as an argument or option; the harnesses parse their
# environment in bench/bench_util.h. Invoked by ctest (tests/CMakeLists.txt) as:
#
#   cmake -DSRC_DIR=<repo>/src -P src_reads_no_environment.cmake
#
# A line matches when it names getenv, secure_getenv, EnvInt or environ as a whole word
# (CMake regexes have no \b, so the word boundaries are spelled out).

if(NOT DEFINED SRC_DIR)
  message(FATAL_ERROR "src_reads_no_environment: SRC_DIR not set")
endif()

set(word "(getenv|secure_getenv|EnvInt|environ)")
set(pattern "(^|[^A-Za-z0-9_])${word}([^A-Za-z0-9_]|$)")

file(GLOB_RECURSE sources ${SRC_DIR}/*.cc ${SRC_DIR}/*.h)
set(offenders "")
foreach(source ${sources})
  file(STRINGS ${source} hits REGEX "${pattern}")
  if(hits)
    file(RELATIVE_PATH rel ${SRC_DIR} ${source})
    list(APPEND offenders src/${rel})
    foreach(hit IN LISTS hits)
      string(STRIP "${hit}" hit)
      message(STATUS "src/${rel}: ${hit}")
    endforeach()
  endif()
endforeach()

list(LENGTH offenders count)
if(count GREATER 0)
  list(JOIN offenders ", " names)
  message(FATAL_ERROR
    "src_reads_no_environment: ${count} file(s) under src/ read the environment: ${names}")
endif()
list(LENGTH sources scanned)
message(STATUS "src_reads_no_environment: ${scanned} files under src/ read no environment")
