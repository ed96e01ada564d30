# Benchmark harness targets. Defined through include() rather than
# add_subdirectory() so that ${CMAKE_BINARY_DIR}/bench contains only the
# runnable binaries ("for b in build/bench/*; do $b; done" regenerates
# every table and figure).

# Provenance baked into every bench binary so the JSON trajectories
# (bench/BENCH_*.json) record which build produced them (Harness.h). The
# commit is described at every build, not at configure time, so a tree
# rebuilt after a commit names the new one: an always-run target rewrites
# GitDescribe.h when the text changed (GitDescribe.cmake). A configure-time
# -DCHAMELEON_GIT_DESCRIBE=TEXT is written into the header instead.
set(CHAMELEON_GENERATED_DIR ${CMAKE_BINARY_DIR}/generated)
add_custom_target(chameleon_git_describe
  COMMAND ${CMAKE_COMMAND} -DSOURCE_DIR=${CMAKE_SOURCE_DIR}
          -DOUTPUT=${CHAMELEON_GENERATED_DIR}/GitDescribe.h
          -DOVERRIDE=${CHAMELEON_GIT_DESCRIBE}
          -P ${CMAKE_SOURCE_DIR}/bench/GitDescribe.cmake
  BYPRODUCTS ${CHAMELEON_GENERATED_DIR}/GitDescribe.h
  VERBATIM)
string(TOUPPER "${CMAKE_BUILD_TYPE}" _cham_build_type_upper)
set(CHAMELEON_BUILD_FLAGS
    "${CMAKE_BUILD_TYPE}: ${CMAKE_CXX_FLAGS} ${CMAKE_CXX_FLAGS_${_cham_build_type_upper}}")
string(STRIP "${CHAMELEON_BUILD_FLAGS}" CHAMELEON_BUILD_FLAGS)

function(chameleon_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE chameleon_apps)
  add_dependencies(${name} chameleon_git_describe)
  target_include_directories(${name} PRIVATE ${CHAMELEON_GENERATED_DIR})
  target_compile_definitions(${name} PRIVATE
    CHAMELEON_BUILD_FLAGS="${CHAMELEON_BUILD_FLAGS}")
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

chameleon_bench(ablation_context_depth)
chameleon_bench(ablation_gc_threads)
chameleon_bench(ablation_sampling)
chameleon_bench(fig2_tvla_livedata)
chameleon_bench(fig3_top_contexts)
chameleon_bench(fig6_min_heap)
chameleon_bench(fig7_runtime)
chameleon_bench(fig8_bloat_spike)
chameleon_bench(table2_rules)
chameleon_bench(micro_checker)
# The checker bench analyzes the checkout itself, so it needs the analysis
# library and the source-root path.
target_link_libraries(micro_checker PRIVATE chameleon_analysis)
target_compile_definitions(micro_checker PRIVATE
  CHAMELEON_SOURCE_ROOT="${CMAKE_SOURCE_DIR}")
chameleon_bench(micro_collection_ops)
chameleon_bench(micro_fault_overhead)
chameleon_bench(micro_fleet)
target_link_libraries(micro_fleet PRIVATE chameleon_fleet)
chameleon_bench(micro_gc_throughput)
chameleon_bench(micro_mt_mutator)
chameleon_bench(micro_telemetry_overhead)
chameleon_bench(micro_trace_replay)
chameleon_bench(sec23_hybrid_threshold)
chameleon_bench(sec51_screening)
chameleon_bench(sec54_online_overhead)

# A micro bench rejects an argument it does not know instead of running
# without it (a misspelt --json would otherwise write nothing and pass).
add_test(NAME micro_bench_rejects_unknown_flag
         COMMAND micro_checker --jsn out.json)
set_tests_properties(micro_bench_rejects_unknown_flag
                     PROPERTIES WILL_FAIL TRUE)
