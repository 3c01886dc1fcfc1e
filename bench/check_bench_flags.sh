#!/bin/bash
# Sanity gate for BENCH_*.json artifacts: every artifact carries pass/fail
# flags alongside its numbers (bitwise determinism, monotone FLOPs/memory).
#
#   $ bench/check_bench_flags.sh BENCH_a.json [BENCH_b.json ...]
#
# Prints one line per missing artifact and per false flag, and exits 1 when
# there is any. run_bench_suite.sh and the `ctest -L bench` entries both
# call it, so the flag list is spelled here only.
FLAGS="determinism_bitwise_1_vs_4 determinism_bitwise_elastic_vs_reference
       determinism_bitwise_threads
       flops_monotone_nonincreasing memory_monotone_nonincreasing
       strategy_resume_bitwise heal_bitwise zero_dropped
       swap_speedup convergence_within_tol dense_bitwise_reference
       wire_reduction_4x zero_dropped_under_faults
       poisoned_generation_never_served rollback_bitwise"
status=0
for artifact in "$@"; do
  if [ ! -s "$artifact" ]; then
    echo "MISSING ARTIFACT: $artifact (its bench wrote no JSON)"
    status=1
    continue
  fi
  for flag in $FLAGS; do
    if grep -q "\"$flag\"[[:space:]]*:[[:space:]]*false" "$artifact"; then
      echo "SANITY FLAG FAILED: $flag in $artifact"
      status=1
    fi
  done
done
exit $status
