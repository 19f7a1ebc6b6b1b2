#!/usr/bin/env python3
"""The repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload clique_big --seed 1 --seconds 15 \
        --trace 0
    python3 perfbench/run.py --smoke

The first form builds the benchmark binary (perfbench/perfbench.cpp,
against the
checkout's own src/) into .bench_build/perfbench, runs one workload in its
own process for about --seconds, prints every metric with its unit, and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics from untraced repetitions;
--trace 1 reports the per-layer metrics from traced repetitions, each
paired with an untraced one on the same inputs.

--smoke is the benchmark's own test: every workload at a few thousand
nodes, twice at one seed, checking that every metric prints with its unit
and that the exact counts (ticks, perturbation events, consensus time)
repeat.

Workloads (all at --jobs=4):
  clique_big      async Two-Choices on K_n, n = 2^23, k = 8, bias n/(k+1),
                  sharded engine with 4 shards; one run per repetition.
  sweep_mixed     one SweepRunner DAG on the superposition engine: 8 async
                  OneExtraBit runs on K_n (n = 2^16, k = 8, c1 = 1.5 c2) and
                  8 async Two-Choices runs on random 8-regular graphs
                  (n = 2^15, k = 4, bias n/(k+1)), each building its graph.
  latency_inject  async Two-Choices on K_n, n = 10^6, k = 8, exponential
                  latency of mean 1 on the sharded delivery queues
                  (4 shards), plus opinion injection at rate 1000, budget
                  5000, from time 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORKLOADS = ("clique_big", "sweep_mixed", "latency_inject")
RUN_TIMEOUT_S = 170

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "ticks_per_s": "1/s",
    "consensus_time": "sim_time",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graph.build_s": "s",
    "graph.csr_s": "s",
    "graph.bytes_per_node": "B",
    "opinion.place_s": "s",
    "opinion.state_bytes_per_node": "B",
    "core.make_s": "s",
    "sim.make_perturber_s": "s",
    "rng.ns_per_uniform": "ns",
    "rng.ns_per_exponential": "ns",
    "sim.run_s": "s",
    "sim.ticks": "count",
    "sim.ns_per_tick": "ns",
    "sim.lanes_used": "count",
    "sim.shard_work_s": "s",
    "sim.boundary_frac": "ratio",
    "sim.barrier_wait_frac": "ratio",
    "sim.delivered_per_tick": "ratio",
    "sim.queue_depth_p50": "count",
    "sim.queue_depth_p99": "count",
    "sim.queue_depth_saturated": "count",
    "sim.perturb_events": "count",
    "verify.recount_s": "s",
    "jobs.busy_frac": "ratio",
    "jobs.steals": "count",
    "jobs.parks": "count",
    "jobs.park_s": "s",
    "trace.span_coverage_min": "ratio",
    "trace.dropped": "count",
    "trace.overhead_frac": "ratio",
}

# Queue-depth quantiles at the trace histogram's last bucket are clamped.
DEPTH_CLAMP = 1023
MIN_SPAN_COVERAGE = 0.95


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        sys.exit("perfbench: run from the root of a repository checkout "
                 "(CMakeLists.txt and src/ not found here)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "perfbench")


def run_binary(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload in its own process; returns its repetitions."""
    out_dir = os.path.join(BUILD_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace,
           "--out-dir=" + out_dir]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("perfbench: benchmark binary exited with code %d" %
                 proc.returncode)
    reps = [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("{")]
    if not reps:
        sys.exit("perfbench: benchmark binary printed no result")
    return reps


def check_reps(reps, trace):
    """Problems with the binary's output; empty when it is sound."""
    problems = []
    for rep in reps:
        tag = "rep %d%s" % (rep["index"], " (traced)" if rep["traced"] else "")
        if rep["runs"] < 1 or rep["ticks"] <= 0 or rep["wall_s"] <= 0:
            problems.append(tag + ": no work recorded")
        if not rep["consensus_time"] > 0:
            problems.append(tag + ": consensus time is not positive")
        for failure in rep["failures"]:
            problems.append(tag + ": " + failure)
        if rep["traced"]:
            layers = rep["layers"]
            missing = set(PER_LAYER) - set(layers) - {"trace.overhead_frac"}
            if missing:
                problems.append(tag + ": missing " + ", ".join(sorted(missing)))
            elif layers["trace.span_coverage_min"] < MIN_SPAN_COVERAGE:
                problems.append(tag + ": timed layer calls cover only %.3f "
                                "of a run" % layers["trace.span_coverage_min"])
    if trace:
        # A traced repetition reruns its untraced partner's inputs: tracing
        # must not change the trajectory.
        untraced = {r["index"]: r for r in reps if not r["traced"]}
        for rep in (r for r in reps if r["traced"]):
            twin = untraced.get(rep["index"])
            if twin is None or exact_counts(twin) != exact_counts(rep):
                problems.append("rep %d: traced run differs from its "
                                "untraced twin" % rep["index"])
    return problems


def exact_counts(rep):
    return (rep["ticks"], rep["perturb_events"], rep["consensus_time"],
            rep["run_times"])


def end_to_end(reps):
    # consensus_time is the mean over every run: on the sharded engine a
    # run's time sits on the 0.25 epoch grid, so a median of a few
    # repetitions would move in whole grid steps. peak_rss_mb comes from
    # the first repetition, before the allocator holds memory from
    # earlier ones.
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "ticks_per_s": statistics.median(r["ticks"] / r["wall_s"]
                                         for r in reps),
        "consensus_time": statistics.fmean(t for r in reps
                                           for t in r["run_times"]),
        "peak_rss_mb": reps[0]["peak_rss_mb"],
    }


def per_layer(reps):
    traced = [r for r in reps if r["traced"]]
    untraced = {r["index"]: r for r in reps if not r["traced"]}
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name in PER_LAYER if name != "trace.overhead_frac"}
    values["trace.overhead_frac"] = statistics.median(
        (r["wall_s"] - untraced[r["index"]]["wall_s"]) /
        untraced[r["index"]]["wall_s"] for r in traced)
    return values


def measure(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload and returns (result dict, reps)."""
    reps = run_binary(binary, workload, seed, seconds, trace, smoke)
    problems = check_reps(reps, trace)
    for problem in problems:
        log("perfbench: FAILED CHECK:", problem)
    if trace:
        values, units = per_layer(reps), PER_LAYER
    else:
        values, units = end_to_end(reps), END_TO_END
    attempted = sum(r["runs"] for r in reps)
    failed = sum(len(r["failures"]) for r in reps)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    return result, reps


def print_result(workload, result):
    for name, metric in result["metrics"].items():
        note = ""
        if (name.startswith("sim.queue_depth_p") and
                metric["value"] >= DEPTH_CLAMP):
            note = ("  (saturated: clamped at the trace histogram's last "
                    "bucket; sim.delivered_per_tick is the unclamped count)")
        print("%s %s = %.6g %s%s" % (workload, name, metric["value"],
                                     metric["unit"], note))
    # Zero on a sound run, so it rides the result's failed/attempted
    # counts rather than a bounded metric.
    print("%s failed_frac = %.6g ratio (%d of %d runs)" % (
        workload, result["failed"] / result["attempted"], result["failed"],
        result["attempted"]))
    print(json.dumps(result))


def smoke(binary):
    """Every workload at tiny n: names, units and exact repeatability."""
    problems = []
    for workload in WORKLOADS:
        for trace, units in ((0, END_TO_END), (1, PER_LAYER)):
            first, reps_a = measure(binary, workload, 7, 0, trace, True)
            second, reps_b = measure(binary, workload, 7, 0, trace, True)
            print_result(workload, first)
            tag = "%s --trace %d" % (workload, trace)
            if not (first["correct"] and second["correct"]):
                problems.append(tag + ": a run failed its checks")
            for name, unit in units.items():
                metric = first["metrics"].get(name)
                if metric is None or metric["unit"] != unit:
                    problems.append(tag + ": %s not printed in %s" %
                                    (name, unit))
            # Ticks and perturbation events per repetition are the
            # sim.ticks / sim.perturb_events counts; run times give
            # consensus_time.
            if [exact_counts(r) for r in reps_a] != \
                    [exact_counts(r) for r in reps_b]:
                problems.append(tag + ": exact counts differ at one seed")
    for problem in problems:
        log("perfbench smoke: FAILED:", problem)
    log("perfbench smoke: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test every workload at tiny n")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or pass --smoke)")
    binary = build()
    if args.smoke:
        return smoke(binary)
    result, _ = measure(binary, args.workload, args.seed, args.seconds,
                        args.trace)
    print_result(args.workload, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
