#!/usr/bin/env bash
# Run the timing-free experiment drivers (EXPERIMENTS.md: T1, T2, F1,
# E1-E19, A1) and save each one's stdout, so two builds, or two worker
# counts, can be compared with `diff -r`. Their outputs depend only on
# their seeds, never on timing or on the pool size.
#
# Usage: scripts/seeded_experiments.sh BENCH_DIR OUT_DIR
#   BENCH_DIR  directory holding the built drivers (e.g. build/bench)
#   OUT_DIR    where <driver>.txt files are written (created if missing)
#
# Exits non-zero if any driver is missing or exits non-zero. The pool size
# follows REDUNDANCY_THREADS, e.g.:
#   REDUNDANCY_THREADS=1 scripts/seeded_experiments.sh build/bench out/t1
#   REDUNDANCY_THREADS=8 scripts/seeded_experiments.sh build/bench out/t8
#   diff -r out/t1 out/t8
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 BENCH_DIR OUT_DIR" >&2
  exit 2
fi
bench_dir=$1
out_dir=$2
mkdir -p "$out_dir"

drivers=(
  table1_taxonomy table2_taxonomy fig1_patterns
  exp_nvp_reliability exp_recovery_blocks exp_self_checking
  exp_data_diversity exp_rejuvenation exp_rx_perturbation
  exp_process_replicas exp_service_substitution exp_genetic_repair
  exp_workarounds exp_checkpoint_recovery exp_microreboot
  exp_fault_matrix exp_cost_of_redundancy exp_sql_nvp
  exp_rollback_protocols exp_self_optimizing exp_robust_data
  exp_rule_engine exp_ablation_adjudicators
)

status=0
for d in "${drivers[@]}"; do
  if [ ! -x "$bench_dir/$d" ]; then
    echo "seeded_experiments: $bench_dir/$d not built" >&2
    status=1
    continue
  fi
  if ! "$bench_dir/$d" > "$out_dir/$d.txt"; then
    echo "seeded_experiments: $d exited non-zero" >&2
    status=1
  fi
done
exit $status
