#!/usr/bin/env bash
# Same-host A/B of two revisions, either on one benchmark workload or
# on the engine microbenchmarks:
#
#   tools/perf_ab.sh PARENT CHANGE WORKLOAD [PAIRS=10] [SEED=1]
#   tools/perf_ab.sh PARENT CHANGE microbench [PAIRS=10] [SEED=1] [ARGS...]
#
# Exports each revision (any git revision name) into its own directory
# under a fresh "${TMPDIR:-/tmp}/perf_ab.XXXXXX", outside the checkout,
# with `git archive` (so the repository gains no worktree metadata).
#
# Workload mode runs
#
#   python3 perfbench/run.py --workload WORKLOAD --seed SEED \
#       --seconds 15 --trace 0
#
# PAIRS times in each export, alternating which side goes first, so
# slow drift on a shared host lands on both sides alike. The first run
# of each side also builds its benchmark binary (outside the timing).
# For every end-to-end metric it prints each side's median and
# quartiles and the number of pairs the change won, judged by the
# metric's "better" direction in the change's BENCHMARK.json; a
# "claim" column says whether the change won >= 9 of 10 pairs (scaled
# to PAIRS) and its median beats the parent's by more than the parent's
# interquartile range. A "regress" column reads the same runs against
# the metric's relative "bound" in the change's BENCHMARK.json:
#   ok          the change's median is not worse than the parent's by
#               more than the bound;
#   unresolved  it is, but the parent's own IQR exceeds the bound times
#               its median, so the runs are too noisy to tell, and not
#               every change run is worse than every parent run;
#   WORSE       anything else.
#
# Microbench mode builds each side's plurality_exp (Release, no tests
# or examples), then runs
#
#   plurality_exp --exp=microbench_engines --seed=SEED ARGS...
#
# PAIRS times per side in the same alternating order. Each run scores
# a series (M1b ns_per_op, M1c ns_per_tick_engine, M1d, M1e) by the
# median of its repetitions. For every series it prints both sides'
# medians over the runs, the ratio change / parent of those medians,
# and a 95% bootstrap CI of the ratio (pairs resampled with
# replacement, 2000 draws). Every series is lower-is-better, so a CI
# entirely below 1 is a measured gain and one entirely above 1 a
# measured regression.
#
# Per-run JSON results and logs stay in the directory for inspection.

set -euo pipefail

usage() {
  echo "usage: $0 PARENT CHANGE WORKLOAD [PAIRS=10] [SEED=1]" >&2
  echo "       $0 PARENT CHANGE microbench [PAIRS=10] [SEED=1] [ARGS...]" >&2
  exit 2
}
[[ $# -ge 3 ]] || usage
PARENT=$1
CHANGE=$2
WORKLOAD=$3
PAIRS=${4:-10}
SEED=${5:-1}
EXTRA=("${@:6}")
[[ $WORKLOAD == microbench || ${#EXTRA[@]} -eq 0 ]] || usage

REPO=$(git rev-parse --show-toplevel)
DIR=$(mktemp -d "${TMPDIR:-/tmp}/perf_ab.XXXXXX")
echo "perf_ab: $PARENT vs $CHANGE on $WORKLOAD, $PAIRS pairs, seed $SEED," \
     "in $DIR" >&2

for side in parent change; do
  rev=$PARENT
  [[ $side == change ]] && rev=$CHANGE
  git -C "$REPO" rev-parse --verify --quiet "$rev^{commit}" > /dev/null ||
    { echo "perf_ab: $rev is not a commit" >&2; exit 2; }
  mkdir -p "$DIR/$side"
  git -C "$REPO" archive "$rev" | tar -x -C "$DIR/$side"
done

if [[ $WORKLOAD == microbench ]]; then
  for side in parent change; do
    echo "perf_ab: building $side's plurality_exp" >&2
    { cmake -S "$DIR/$side" -B "$DIR/$side/build" -DCMAKE_BUILD_TYPE=Release \
          -DPLURALITY_BUILD_TESTS=OFF -DPLURALITY_BUILD_EXAMPLES=OFF &&
      cmake --build "$DIR/$side/build" --target plurality_exp -j 4; } \
        >> "$DIR/$side.log" 2>&1
  done
fi

run_side() {  # side pair
  if [[ $WORKLOAD == microbench ]]; then
    "$DIR/$1/build/plurality_exp" --exp=microbench_engines --seed="$SEED" \
        --json="$DIR/$1.$2.json" "${EXTRA[@]}" >> "$DIR/$1.log" 2>&1
    return
  fi
  (cd "$DIR/$1" &&
   python3 perfbench/run.py --workload "$WORKLOAD" --seed "$SEED" \
       --seconds 15 --trace 0 2>> "$DIR/$1.log" | tail -n 1) \
      > "$DIR/$1.$2.json"
}

for ((i = 0; i < PAIRS; i++)); do
  if ((i % 2 == 0)); then
    run_side parent "$i"
    run_side change "$i"
  else
    run_side change "$i"
    run_side parent "$i"
  fi
  echo "perf_ab: pair $((i + 1))/$PAIRS done" >&2
done

if [[ $WORKLOAD == microbench ]]; then
  python3 - "$DIR" "$PAIRS" <<'EOF'
import json
import random
import statistics
import sys

out, pairs = sys.argv[1], int(sys.argv[2])


def series(side, i):
    """{series label: median of its samples} for one run."""
    record = json.load(open("%s/%s.%d.json" % (out, side, i)))[0]
    result = {}
    for s in record["series"]:
        if s["name"].startswith("trace_"):
            continue  # schedule metadata, not a timing
        params = ",".join("%s=%s" % kv for kv in sorted(s["params"].items()))
        result["%s{%s}" % (s["name"], params)] = statistics.median(
            s["samples"])
    return result


parent = [series("parent", i) for i in range(pairs)]
change = [series("change", i) for i in range(pairs)]
rng = random.Random(0)
print("microbench_engines: %d pairs; ratio = change / parent of the "
      "per-run medians, 95%% bootstrap CI" % pairs)
print("%-62s %10s %10s %7s %15s" % ("series", "parent", "change", "ratio",
                                     "95% CI"))
for label in parent[0]:
    a = [run[label] for run in parent]
    b = [run[label] for run in change]
    boot = []
    for _ in range(2000):
        idx = [rng.randrange(pairs) for _ in range(pairs)]
        boot.append(statistics.median(b[i] for i in idx) /
                    statistics.median(a[i] for i in idx))
    boot.sort()
    print("%-62s %10.4g %10.4g %7.3f [%5.3f, %5.3f]"
          % (label, statistics.median(a), statistics.median(b),
             statistics.median(b) / statistics.median(a),
             boot[int(0.025 * len(boot))], boot[int(0.975 * len(boot)) - 1]))
EOF
  exit 0
fi

python3 - "$DIR" "$PAIRS" "$WORKLOAD" <<'EOF'
import json
import statistics
import sys

out, pairs, workload = sys.argv[1], int(sys.argv[2]), sys.argv[3]
load = lambda side, i: json.load(open("%s/%s.%d.json" % (out, side, i)))
parent = [load("parent", i) for i in range(pairs)]
change = [load("change", i) for i in range(pairs)]
metrics = json.load(open(out + "/change/BENCHMARK.json"))["end_to_end"]


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


need = -(-9 * pairs // 10)  # 9 of 10, rounded up
print("%s: %d pairs (parent p25/median/p75 -> change p25/median/p75)"
      % (workload, pairs))
print("%-15s %32s   %32s %6s %6s %11s" % ("metric", "parent", "change",
                                           "wins", "claim", "regress"))
for metric in metrics:
    name, bound = metric["name"], metric["bound"]
    a = [r["metrics"][name]["value"] for r in parent]
    b = [r["metrics"][name]["value"] for r in change]
    lower = metric["better"] == "lower"
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    pa, pb = summary(a), summary(b)
    gain = (pa[1] - pb[1]) if lower else (pb[1] - pa[1])
    claim = wins >= need and gain > pa[2] - pa[0]
    worse_everywhere = (min(b) > max(a)) if lower else (max(b) < min(a))
    if -gain <= bound * abs(pa[1]):
        regress = "ok"
    elif pa[2] - pa[0] > bound * abs(pa[1]) and not worse_everywhere:
        regress = "unresolved"
    else:
        regress = "WORSE"
    print("%-15s %10.4g %10.4g %10.4g   %10.4g %10.4g %10.4g %3d/%-2d %6s"
          " %11s" % (name, pa[0], pa[1], pa[2], pb[0], pb[1], pb[2], wins,
                     pairs, "yes" if claim else "no", regress))
for side, results in (("parent", parent), ("change", change)):
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    bad = sum(not r["correct"] for r in results)
    print("%s: %d of %d runs failed, %d results failed their checks"
          % (side, failed, attempted, bad))
EOF
