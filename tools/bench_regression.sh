#!/usr/bin/env bash
# Reduced-scale bench snapshot: runs every registered experiment with
# the same per-experiment overrides the checked-in baselines under
# bench/results/ were produced with, writing one BENCH_<name>.json per
# experiment into OUT_DIR. Pair with tools/bench_diff.py to catch
# wall-clock regressions:
#
#   tools/bench_regression.sh build/plurality_exp /tmp/bench_now
#   tools/bench_diff.py bench/results /tmp/bench_now
#
# To refresh the baselines themselves, point OUT_DIR at bench/results.

set -euo pipefail

BIN=${1:-build/plurality_exp}
OUT_DIR=${2:-bench_snapshot}

mkdir -p "$OUT_DIR"

# Every top-level record runs serially (--jobs=1; the default --jobs=0
# uses every host core): the wall clocks then do not shrink with the
# host's core count, so each baseline stays above bench_diff's
# --min-seconds floor on any host, and the parallel_catalog entry below
# has a serial record to match.
run() { "$BIN" --out-dir="$OUT_DIR" --csv --jobs=1 "$@" > /dev/null; }

# Scale keeps this baseline above bench_diff's --min-seconds floor (the
# censored community/clustered placements burn the full horizon) so the
# placement sweep is actually gated in CI.
run --exp=adversarial_placements --reps=3 --n=1024 --horizon=2000
run --exp=async_main           --reps=2 --k=4 --max_n=8192 --n=4096
run --exp=bias_threshold       --reps=4 --n=4096
# Scale keeps this baseline above bench_diff's --min-seconds floor now
# that the heterogeneous engine draws ticks from an alias table rather
# than an n-timer queue (about 4x faster per tick).
run --exp=clock_skew           --reps=4 --n=1024
run --exp=crash_faults         --reps=2 --n=1024
run --exp=delta_ablation       --reps=2 --n=1024
run --exp=endgame              --reps=3 --max_n=8192 --n=4096
# Reduced-scale R2: budgets scale with n, so n=1024 sweeps {4, 16, 64}
# over both arms; the metastable static-boundary cells at budget 64 burn
# horizon, keeping the record above bench_diff's --min-seconds floor.
run --exp=late_adversary       --reps=3 --n=1024
# Scale keeps this baseline above bench_diff's --min-seconds floor so
# the latency-model sweep is actually gated in CI. --shards is pinned:
# every cell runs on the queued body, whose trajectories key on the
# resolved shard count, and an unpinned --shards=0 resolves to the
# host's core count, which would make the series (and so the
# --series-z gate) host-dependent.
run --exp=latency_models       --reps=4 --n=4096 --shards=1
# Scale keeps this baseline above bench_diff's --min-seconds floor so
# the M1b/M1c engine comparison is actually gated in CI. The M1e
# LLC-crossing ladder is pinned to a reduced 64k..1M sweep at a fixed
# 2M-tick budget: big enough that the largest point leaves a typical
# LLC (3 MB of hot state at n=1M) and the section clears the
# min-seconds floor, small enough for every-PR CI.
run --exp=microbench_engines   --reps=2 --iters=200000 --n=4096 --m1c_iters=2000000 \
    --m1e_min_n=65536 --m1e_max_n=1048576 --m1e_iters=2000000
run --exp=microbench_rng       --reps=2 --iters=100000
# Scale keeps this baseline above bench_diff's --min-seconds floor: E9
# compares the sequential engine with superposition, both cheap at
# n=1024, so the repetitions carry the wall clock (Voter dominates).
run --exp=model_equivalence    --reps=32 --n=1024
run --exp=one_extra_bit        --reps=2 --k=8 --max_k=16 --n=16384
run --exp=quadratic_growth     --reps=2 --n=4096
# Scale keeps the R1 rate x {sequential, sharded} sweep above
# bench_diff's --min-seconds floor so the perturbation path is
# actually gated in CI. --shards is pinned: the sharded cells'
# trajectories key on the resolved shard count, and an unpinned
# --shards=0 resolves to the host's core count, which would make the
# series (and so the --series-z gate) host-dependent.
run --exp=recovery_injection   --reps=4 --n=8192 --shards=1
run --exp=response_delays      --reps=2 --n=1024
run --exp=sync_gadget_ablation --reps=2 --max_n=8192
run --exp=tick_concentration   --reps=2 --max_n=4096 --t=8
run --exp=topologies           --reps=2 --horizon=200 --n=1024
run --exp=two_choices_lower_bound --reps=2 --max_k=16 --n=4096
run --exp=two_choices_scaling  --reps=2 --max_n=4096

# Full-composition snapshot: community graph x adversarial placement x
# heavy-tail latency x sharded engine, through the unified RunPlan
# dispatch. Written into its own subdirectory (and diffed with a second
# bench_diff invocation) so it does not clobber the default-engine
# record of the same experiment above. --shards is pinned for the same
# host-independence reason as the latency_models entry.
mkdir -p "$OUT_DIR/sharded_composition"
"$BIN" --out-dir="$OUT_DIR/sharded_composition" --csv --jobs=1 \
  --exp=adversarial_placements --reps=3 --n=1024 --horizon=1000 \
  --engine=sharded --shards=2 --placement=adversarial_boundary \
  --latency=pareto --latency-mean=0.5 > /dev/null

# Parallel-catalog wall-clock entry: the heaviest sweep again, but on
# the fork-join executor with every host core (--jobs=0 resolves to
# the core count). By the determinism contract the series are
# bit-identical to the serial record above — what this entry adds is a
# gated wall clock for the parallel path, and an end-to-end exercise of
# the executor dispatch in every snapshot. Own subdirectory so the
# record name does not clobber the serial one.
mkdir -p "$OUT_DIR/parallel_catalog"
"$BIN" --out-dir="$OUT_DIR/parallel_catalog" --csv \
  --exp=two_choices_scaling --reps=2 --max_n=4096 --jobs=0 > /dev/null

echo "wrote $(ls "$OUT_DIR"/BENCH_*.json "$OUT_DIR"/sharded_composition/BENCH_*.json "$OUT_DIR"/parallel_catalog/BENCH_*.json | wc -l) records to $OUT_DIR"
