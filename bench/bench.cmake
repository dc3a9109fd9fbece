# One binary per reproduced table/figure plus ablations and microbenches.
# Included from the top-level CMakeLists (not add_subdirectory) so that
# ${CMAKE_BINARY_DIR}/bench holds ONLY the bench executables — the documented
# way to run the whole harness is:  for b in build/bench/*; do $b; done
set(RBC_BENCH_DIR ${CMAKE_SOURCE_DIR}/bench)

# `cmake --build <dir> --target benches` builds every bench and nothing else.
add_custom_target(benches)

function(rbc_add_bench name)
  add_executable(${name} ${RBC_BENCH_DIR}/${name}.cpp)
  target_link_libraries(${name} PRIVATE ${ARGN} rbc_warnings)
  target_include_directories(${name} PRIVATE ${RBC_BENCH_DIR})
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
  add_dependencies(benches ${name})
endfunction()

rbc_add_bench(bench_table1_search_space rbc_comb)
rbc_add_bench(bench_table4_seed_iterators rbc_sim)
rbc_add_bench(bench_table5_end_to_end rbc_core)
rbc_add_bench(bench_table6_energy rbc_sim)
rbc_add_bench(bench_table7_prior_work rbc_core)
rbc_add_bench(bench_fig3_gpu_gridsearch rbc_sim)
rbc_add_bench(bench_fig4_multigpu rbc_sim)
rbc_add_bench(bench_ablation_sha3_padding rbc_sim)
rbc_add_bench(bench_ablation_state_memory rbc_sim)
rbc_add_bench(bench_ablation_flag_interval rbc_core)
rbc_add_bench(bench_ablation_tapki rbc_core)
rbc_add_bench(bench_ablation_iterator_mode rbc_comb rbc_hash)
rbc_add_bench(bench_cpu_scaling rbc_core)
rbc_add_bench(bench_ext_scaling rbc_sim)
rbc_add_bench(bench_security_analysis rbc_core)
rbc_add_bench(bench_apu_bitslice rbc_apu rbc_comb rbc_sim)

rbc_add_bench(bench_hash_throughput rbc_hash rbc_comb rbc_crypto rbc_core benchmark::benchmark)
rbc_add_bench(bench_ecc_comparison rbc_core)
rbc_add_bench(bench_server_throughput rbc_server rbc_core)
