#!/bin/bash
# Runs every bench binary in sequence, writing the final bench_output.txt
# (and the BENCH_*.json artifacts) into the repository root, which is the
# directory this script lives in. Build into <root>/build first.
ROOT=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
cd "$ROOT/build/bench" || exit 1
# The BENCH_<name>.json artifacts this suite writes. Each is deleted up
# front, so a bench that dies before writing its JSON fails the gate below
# instead of letting a stale artifact from an earlier run pass in its place.
ARTIFACTS="hotpath_scaling elastic_overhead sdc_overhead strategy_ablation \
           comm_compression serve_load serve_resilience telemetry_smoke"
for name in $ARTIFACTS; do rm -f "$ROOT/BENCH_$name.json"; done
{
for b in fig7_union_vs_gating_time fig12_density fig4_channel_sparsity \
         fig2_flops_trajectory fig6_union_vs_gating_flops \
         fig9_memory_requirement fig11_comm_cost fig10_reconfig_interval \
         table3_amc_comparison table4_dynamic_minibatch table2_inference_perf \
         fig8_tradeoff_curves table1_training_cost; do
  echo "===== bench: $b ====="
  timeout 900 ./$b 2>&1
  echo
done
for b in ablation_penalty_mode ablation_finetune; do
  echo "===== bench: $b (quick) ====="
  timeout 600 ./$b --quick 2>&1
  echo
done
echo "===== bench: hotpath_scaling ====="
# Exec-context thread scaling: deterministic-parallelism check plus
# seconds/step at 1/2/4 threads (timing skipped on single-core runners).
timeout 900 ./hotpath_scaling --out "$ROOT"/BENCH_hotpath_scaling.json 2>&1
echo
echo "===== bench: elastic_overhead ====="
# Elastic membership: all-healthy elastic steps vs a hand-rolled reference
# step (bitwise), the per-step cost on 1 and 2 threads (bitwise equal), and
# the modeled resync traffic of a kill/rejoin cycle.
timeout 900 ./elastic_overhead --out "$ROOT"/BENCH_elastic_overhead.json 2>&1
echo
echo "===== bench: sdc_overhead ====="
# Silent-data-corruption defense: per-step digest-vote overhead at several
# check intervals, detection latency for an injected finite bitflip, and
# the bitwise heal-equivalence flag (heal_bitwise).
timeout 900 ./sdc_overhead --out "$ROOT"/BENCH_sdc_overhead.json 2>&1
echo
echo "===== bench: strategy_ablation ====="
# Sparsifier zoo: every registered prune::Strategy on the same proxy
# protocol — loss proxy, FLOPs trajectory, sec/epoch, and the bitwise
# checkpoint-resume flag for serialized strategy state.
timeout 900 ./strategy_ablation --quick \
  --out "$ROOT"/BENCH_strategy_ablation.json 2>&1
echo
echo "===== bench: comm_compression ====="
# Gradient codecs: real encoded wire bytes per exchange and sec/step for
# every registered codec at several pruned widths, the dense-bitwise
# reference check, the twobit convergence ablation, and the >=4x
# wire-reduction flag (Fig. 11 multiplicative saving on real payloads).
timeout 900 ./comm_compression --out "$ROOT"/BENCH_comm_compression.json 2>&1
echo
echo "===== bench: serve_load ====="
# Serving runtime across a hot swap: dense generation serves until the
# pruned checkpoint lands mid-trace; throughput/p99 before vs after, plus
# the zero_dropped and swap_speedup sanity flags.
timeout 900 ./serve_load --quick --out "$ROOT"/BENCH_serve_load.json 2>&1
echo
echo "===== bench: serve_resilience ====="
# Serving resilience under injected faults: canary-rejected poisoned
# generation, runtime-flaky generation, automatic rollback; windows around
# the turbulence plus the zero_dropped_under_faults /
# poisoned_generation_never_served / rollback_bitwise flags.
timeout 900 ./serve_resilience --quick --out "$ROOT"/BENCH_serve_resilience.json 2>&1
echo
echo "===== bench: telemetry_smoke ====="
# Instrumented quickstart: records a short run, then folds the JSONL
# trajectory into BENCH_telemetry_smoke.json (monotone FLOPs/memory flags).
METRICS_DIR=$(mktemp -d /tmp/pt_metrics_smoke.XXXXXX)
timeout 900 ../examples/quickstart --epochs 6 --metrics-out "$METRICS_DIR" 2>&1
timeout 120 ../examples/telemetry_export --run "$METRICS_DIR" \
  --name telemetry_smoke --out "$ROOT"/BENCH_telemetry_smoke.json 2>&1
rm -rf "$METRICS_DIR"
echo
echo "SUITE DONE"
} > "$ROOT"/bench_output.txt 2>&1

# Sanity gate: a false flag in any BENCH_*.json means a correctness
# property was violated while benching — fail the suite loudly instead of
# shipping bad numbers in a green run. The flag list lives in
# bench/check_bench_flags.sh, which the `ctest -L bench` entries share.
ARTIFACT_FILES=$(for name in $ARTIFACTS; do echo "BENCH_$name.json"; done)
# shellcheck disable=SC2086  # one file name per artifact, none with spaces
if ! FAILURES=$(cd "$ROOT" && bench/check_bench_flags.sh $ARTIFACT_FILES); then
  echo "$FAILURES" | tee -a "$ROOT"/bench_output.txt
  echo "bench suite: $(echo "$FAILURES" | wc -l) sanity flag(s) failed or artifact(s) missing" | tee -a "$ROOT"/bench_output.txt
  exit 1
fi
