#!/usr/bin/env python3
"""Diff BENCH_*.json records against the checked-in baselines.

Usage: bench_diff.py BASELINE_DIR NEW_DIR [--ratio R] [--min-seconds S]
                     [--normalize] [--series-z Z] [--series-rel F]

Compares each experiment's wall_clock_seconds in NEW_DIR against the
record of the same name in BASELINE_DIR. The tolerance is deliberately
generous (default: fail only on > 2x regressions). With --normalize the
per-experiment ratios are divided by their median first, which cancels
a uniformly slower/faster host (e.g. a CI runner vs the dev box that
recorded the baselines) and flags only experiments that regressed
*relative to the rest of the suite*. Records whose baseline is below
--min-seconds are reported but never fail (they are timer noise).
Missing or failed (exit_code != 0) records always fail.

With --series-z Z (> 0), the *measured values* are gated too, not just
the wall clock: every series entry is matched by (name, params) across
the two directories and the means are compared with a two-sample
z-statistic, |m_new - m_base| / sqrt(se_base^2 + se_new^2). Runs are
seed-deterministic, so on unchanged code the means are identical; a
shift larger than Z combined standard errors *and* larger than
--series-rel relative to the baseline mean means the sampled
distribution itself moved — either a real behavioral regression or an
intentional change that must come with refreshed baselines. Baseline
series missing from the new record always fail (renames count as
regressions in record continuity); new series with no baseline are
reported only.

Every params key of a baseline record must also be in the new record:
a key the code no longer writes (a retired flag echoed into params, a
renamed *_effective attribution) fails, and is listed, until the
baseline is refreshed, so stale keys cannot build up in bench/results.

Cross-host caveat: "seed-deterministic" holds per libm. Trajectories
pass RNG draws through std::log/std::pow, which are not correctly
rounded, so a runner with a different libm than the baseline host can
produce a 1-ULP difference that reorders events and shifts a
small-reps mean past the gate. If the series gate fails on a host
change (glibc upgrade, new runner image) while the code is untouched,
regenerate the baselines on the new host rather than loosening the
gate.
"""

import argparse
import json
import math
import pathlib
import re
import statistics
import sys


def load_records(directory):
    records = {}
    for path in sorted(pathlib.Path(directory).glob("BENCH_*.json")):
        with open(path) as f:
            rec = json.load(f)
        records[rec["experiment"]] = rec
    return records


def series_key(entry):
    """(name, canonical params) — the identity of one measured series."""
    return (entry["name"],
            json.dumps(entry.get("params", {}), sort_keys=True))


def stale_params(base_rec, new_rec):
    """Params keys of the baseline record that the new record lacks."""
    return sorted(set(base_rec.get("params", {})) -
                  set(new_rec.get("params", {})))


def diff_series(name, base_rec, new_rec, z_gate, rel_floor, skip_re):
    """Stderr-aware mean comparison of every matched series entry.

    Returns (failures, n_compared, worst_line). Entries with fewer than
    2 samples (no stderr estimate) are compared for exact equality of
    their single sample instead of z-scored. Series matching `skip_re`
    (wall-time measurements like ns_per_op, which track the host rather
    than the seeded process) are exempt.
    """
    base_series = {series_key(s): s for s in base_rec.get("series", [])}
    new_series = {series_key(s): s for s in new_rec.get("series", [])}
    failures = []
    compared = 0
    worst = (0.0, None)  # (z, line)
    for key, base in sorted(base_series.items()):
        if skip_re.search(base["name"]):
            continue
        label = f"{name}:{base['name']}{key[1]}"
        new = new_series.get(key)
        if new is None:
            failures.append(f"{label}: series missing from new record")
            continue
        compared += 1
        m0, m1 = base["mean"], new["mean"]
        se = math.hypot(base.get("stderr", 0.0), new.get("stderr", 0.0))
        delta = abs(m1 - m0)
        rel = delta / abs(m0) if m0 != 0.0 else (0.0 if delta == 0.0
                                                 else float("inf"))
        if se > 0.0:
            z = delta / se
            if z > worst[0]:
                worst = (z, f"{label}: base {m0:.4g} -> new {m1:.4g} "
                            f"({z:.1f} combined stderr, {rel:.1%})")
            if z > z_gate and rel > rel_floor:
                failures.append(
                    f"{label}: mean {m0:.4g} -> {m1:.4g} "
                    f"({z:.1f} combined stderr > {z_gate:.1f}, "
                    f"{rel:.1%} > {rel_floor:.0%})")
        elif rel > rel_floor:
            # No stderr on either side (reps < 2): seed-deterministic
            # samples should still match to within the relative floor.
            failures.append(
                f"{label}: mean {m0:.4g} -> {m1:.4g} with no stderr "
                f"estimate ({rel:.1%} > {rel_floor:.0%})")
    return failures, compared, worst[1]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline_dir")
    parser.add_argument("new_dir")
    parser.add_argument("--ratio", type=float, default=2.0,
                        help="fail when new wall clock exceeds baseline "
                             "by more than this factor (default 2.0)")
    parser.add_argument("--min-seconds", type=float, default=0.05,
                        help="baselines below this are never failed "
                             "(timer noise; default 0.05)")
    parser.add_argument("--normalize", action="store_true",
                        help="divide ratios by their median to cancel "
                             "host speed differences before gating")
    parser.add_argument("--max-raw-ratio", type=float, default=10.0,
                        help="backstop: fail on raw (unnormalized) ratios "
                             "above this even under --normalize, so a "
                             "broad regression cannot hide inside the "
                             "median it shifts (default 10.0)")
    parser.add_argument("--series-z", type=float, default=0.0,
                        help="also gate per-series means: fail when a "
                             "matched series' means differ by more than "
                             "this many combined standard errors (0 "
                             "disables, default 0; 6 is a generous gate)")
    parser.add_argument("--series-rel", type=float, default=0.10,
                        help="relative-change floor for the series gate: "
                             "shifts below this fraction of the baseline "
                             "mean never fail even at high z (default "
                             "0.10)")
    parser.add_argument(
        "--series-skip",
        default=r"^(ns_per_|trace_barrier_wait_frac$)",
        help="regex of series names exempt from the mean gate — "
             "wall-time or schedule measurements that track the host "
             "rather than the seeded process. The trace layer's "
             "barrier-wait fraction is a schedule property (its value "
             "depends on thread timing); its queue-depth quantiles are "
             "trajectory properties and stay gated. (default "
             "'^(ns_per_|trace_barrier_wait_frac$)')")
    args = parser.parse_args()

    baseline = load_records(args.baseline_dir)
    new = load_records(args.new_dir)
    if not baseline:
        print(f"error: no BENCH_*.json records in {args.baseline_dir}")
        return 1

    failures = []
    comparable = {}  # name -> (base_wall, new_wall, ratio)
    for name, base_rec in sorted(baseline.items()):
        new_rec = new.get(name)
        if new_rec is None:
            failures.append(f"{name}: record missing from {args.new_dir}")
            continue
        if new_rec.get("exit_code", 1) != 0:
            failures.append(f"{name}: run failed "
                            f"(exit_code={new_rec.get('exit_code')})")
            continue
        for key in stale_params(base_rec, new_rec):
            print(f"  FAIL  {name}: params key '{key}' is in the baseline "
                  f"but not in the new record (refresh the baseline)")
            failures.append(f"{name}: stale baseline params key '{key}'")
        base_wall = base_rec["wall_clock_seconds"]
        new_wall = new_rec["wall_clock_seconds"]
        ratio = new_wall / base_wall if base_wall > 0 else float("inf")
        comparable[name] = (base_wall, new_wall, ratio)

    sizable = {name: entry for name, entry in comparable.items()
               if entry[0] >= args.min_seconds}
    host_factor = 1.0
    if args.normalize and sizable:
        host_factor = statistics.median(r for _, _, r in sizable.values())
        print(f"host speed factor (median ratio): {host_factor:.2f}x")

    for name, (base_wall, new_wall, ratio) in sorted(comparable.items()):
        adjusted = ratio / host_factor
        line = (f"{name}: baseline {base_wall:.3f}s -> new {new_wall:.3f}s "
                f"({ratio:.2f}x raw, {adjusted:.2f}x adjusted)")
        if name not in sizable:
            print(f"  skip  {line}  [baseline below --min-seconds]")
        elif adjusted > args.ratio:
            print(f"  FAIL  {line}  [> {args.ratio:.1f}x]")
            failures.append(f"{name}: {adjusted:.2f}x regression")
        elif ratio > args.max_raw_ratio:
            print(f"  FAIL  {line}  [raw > {args.max_raw_ratio:.1f}x]")
            failures.append(f"{name}: {ratio:.2f}x raw regression")
        else:
            print(f"  ok    {line}")

    if args.series_z > 0:
        skip_re = re.compile(args.series_skip)
        print(f"\nper-series mean gate (z > {args.series_z:.1f} and "
              f"rel > {args.series_rel:.0%}, skipping "
              f"'{args.series_skip}'):")
        total_compared = 0
        for name in sorted(comparable):
            series_failures, compared, worst = diff_series(
                name, baseline[name], new[name], args.series_z,
                args.series_rel, skip_re)
            total_compared += compared
            for failure in series_failures:
                print(f"  FAIL  {failure}")
                failures.append(failure)
            if not series_failures and worst is not None:
                print(f"  ok    {worst}")
        print(f"  compared {total_compared} series across "
              f"{len(comparable)} experiments")

    extra = sorted(set(new) - set(baseline))
    for name in extra:
        print(f"  note  {name}: new experiment with no baseline")

    if failures:
        print(f"\n{len(failures)} bench regression(s):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nno bench regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
