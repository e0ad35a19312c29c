# perfbench's build file. The benchmark compiles dcprof exactly as the
# repository's own CMakeLists does, and adds one target of its own, the
# traced-pass program:
#
#   cmake -S . -B .bench_build/cmake -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_INCLUDE=$PWD/perfbench/build.cmake
#   cmake --build .bench_build/cmake --target dcprof_measure \
#         dcprof_analyze dcprof_ingestd perfbench_trace
#
# CMake includes this file right after dcprof's project() call. The
# target is added by a deferred call, once the top-level list file has
# set the language standard and warnings and defined the libraries.
set(PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})

function(perfbench_add_targets)
  add_executable(perfbench_trace ${PERFBENCH_DIR}/trace.cpp)
  target_link_libraries(perfbench_trace PRIVATE dcprof)
endfunction()

cmake_language(DEFER CALL perfbench_add_targets)
