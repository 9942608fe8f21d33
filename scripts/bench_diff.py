#!/usr/bin/env python3
"""Compare two BENCH_*.json files and report per-metric regressions.

Usage:
    scripts/bench_diff.py OLD.json NEW.json [--threshold 0.10]
                          [--fail-on-regression] [--fail-below RATIO]

The JSON layout is what bench/perf_suite.cpp emits:

    {"bench": "...", "schema": 1, "metrics": {"name": value, ...}}

Direction is inferred from the metric name (the part before the first
"/"):
  - *_per_sec            higher is better (throughput)
  - *_ratio              higher is better (e.g. cache hit ratios)
  - *_gain               higher is better (e.g. evolve_mcut_gain)
  - *_sec, *_ms          lower is better (durations)
  - anything else        lower is better (objective/quality values)
A metric whose baseline is 0 counts as an infinite change in the
direction it moved.

Only metrics present in BOTH files are compared; metrics only in the new
run are reported as NEW (informational, with their value — the normal
shape of an axis-adding PR), metrics only in the baseline as removed.
--fail-below and --fail-on-regression apply ONLY to the common keys: a NEW
metric can never fail the gate until a baseline records it. A change worse
than --threshold (fractional,
default 0.10 = 10%) is flagged as a regression; with --fail-on-regression
the script exits 1 when any metric regressed, which is how a gating CI job
would use it (the default perf-smoke job is informational and ignores the
exit code).

--fail-below RATIO is the coarse safety net for noisy shared runners: the
exit code turns 1 only when some metric is worse than the baseline by more
than RATIO (e.g. --fail-below 0.5 tolerates run-to-run noise but trips on a
genuine 2x slowdown). It is independent of --threshold, which only controls
reporting. The CI perf-smoke job passes --fail-below non-blockingly today
(continue-on-error) so the signal exists before the job ever gates.
"""

import argparse
import json
import math
import sys


HIGHER_IS_BETTER = ("_per_sec", "_ratio", "_gain")


def higher_is_better(name: str) -> bool:
    return name.split("/")[0].endswith(HIGHER_IS_BETTER)


def relative_change(old: float, new: float) -> float:
    """(new - old) / |old|; from a zero baseline, +-inf by direction."""
    if old == 0:
        return 0.0 if new == 0 else math.copysign(math.inf, new)
    return (new - old) / abs(old)


def load_metrics(path: str) -> dict:
    with open(path) as f:
        doc = json.load(f)
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        sys.exit(f"{path}: no 'metrics' object found")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Report per-metric regressions between two bench JSONs.")
    parser.add_argument("old", help="baseline BENCH_*.json")
    parser.add_argument("new", help="candidate BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="fractional regression threshold (default 0.10)")
    parser.add_argument("--fail-on-regression", action="store_true",
                        help="exit 1 if any metric regressed past threshold")
    parser.add_argument("--fail-below", type=float, default=None,
                        metavar="RATIO",
                        help="exit 1 if any metric is worse than baseline by "
                             "more than RATIO (fraction, e.g. 0.5); "
                             "independent of --threshold reporting")
    args = parser.parse_args()

    old = load_metrics(args.old)
    new = load_metrics(args.new)
    shared = [k for k in old if k in new]
    added = sorted(set(new) - set(old))
    removed = sorted(set(old) - set(new))
    if not shared:
        print("no overlapping metrics between the two files")
        for name in added:
            print(f"{name}  {new[name]:.6g}  NEW")
        for name in removed:
            print(f"{name}  (removed)")
        return 0

    width = max(len(k) for k in shared + added + removed)
    regressions = []
    hard_regressions = []
    print(f"{'metric':<{width}}  {'old':>12}  {'new':>12}  {'change':>8}  note")
    for name in shared:
        o, n = old[name], new[name]
        change = relative_change(o, n)
        better = change > 0 if higher_is_better(name) else change < 0
        worse_by = -change if higher_is_better(name) else change
        note = ""
        if worse_by > args.threshold:
            note = "REGRESSED"
            regressions.append(name)
        elif better and abs(change) > args.threshold:
            note = "improved"
        if args.fail_below is not None and worse_by > args.fail_below:
            hard_regressions.append(name)
        print(f"{name:<{width}}  {o:>12.6g}  {n:>12.6g}  {change:>+7.1%}  {note}")

    for name in removed:
        print(f"{name:<{width}}  {'(removed)':>12}")
    # New-run-only metrics are informational: shown with their value so an
    # axis-adding PR's numbers land in the log, never gated on (--fail-below
    # and --fail-on-regression act on the shared keys above only).
    for name in added:
        print(f"{name:<{width}}  {'':>12}  {new[name]:>12.6g}  {'':>8}  NEW")
    if added:
        print(f"{len(added)} NEW metric(s) not in baseline (informational)")

    if regressions:
        print(f"\n{len(regressions)} metric(s) regressed past "
              f"{args.threshold:.0%}: " + ", ".join(regressions))
    else:
        print(f"\nno regressions past {args.threshold:.0%}")
    if hard_regressions:
        print(f"{len(hard_regressions)} metric(s) worse than baseline by "
              f"more than {args.fail_below:.0%}: "
              + ", ".join(hard_regressions))
        return 1
    if regressions and args.fail_on_regression:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
