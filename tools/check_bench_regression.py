#!/usr/bin/env python3
"""CI perf-regression gate over the bench JSON artifacts.

Compares the current run of a bench (``--json`` output of
``bench/batch_throughput`` or ``bench/service_latency``) against a rolling
baseline restored from the actions cache. ``--baseline`` may name either a
single JSON file (one prior run) or a *directory of prior runs*: in the
directory form the gate uses the per-metric **median of the last k runs**
(``--window``, default 5), which absorbs one noisy CI run without letting a
real regression hide behind it. Only throughput series — metric keys ending
in ``_qps`` — are gated: the job fails when any of them regresses by more
than ``--threshold`` (default 25%) below the rolling median. Non-throughput
metrics and improvements are reported but never fail the job, and so is a
baseline ``*_qps`` key the current run no longer records (a retired
series shows as a "retired" info row instead of silently leaving the gate).

Baselines are keyed per **runner class** (``cpu<N>`` for N hardware
threads): throughput measured on a 2-core runner is not a valid baseline
for a 16-core one. ``--runner-class`` defaults to the current run's
recorded ``runner_class`` field (falling back to ``cpu<os.cpu_count()>``).
In the directory form, a ``<baseline>/<runner_class>/`` subdirectory is
preferred when present; otherwise the flat directory is used and any run
whose recorded ``runner_class`` differs from the current one is skipped
(runs predating the field are kept — they were all recorded on the same
CI runner class the subdirectory migration then pins down).

A missing or unreadable baseline soft-warns and exits 0 (first run on a
branch, cache eviction). When ``GITHUB_STEP_SUMMARY`` is set, a Markdown
comparison table is appended to the job summary.

Usage:
  check_bench_regression.py --baseline prev.json --current cur.json \
      [--threshold 0.25] [--window 5] [--runner-class cpu4]
  check_bench_regression.py --baseline baseline-history-dir/ --current cur.json
"""

import argparse
import json
import os
import statistics
import sys


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if "metrics" not in doc or not isinstance(doc["metrics"], dict):
        raise ValueError(f"{path}: no 'metrics' object")
    return doc


def load_baselines(path, window, runner_class):
    """Returns a list of baseline docs: [one] for a file, the newest
    `window` matching runs (by filename order, which the CI writer keeps
    monotonic) for a directory. A `<path>/<runner_class>/` subdirectory
    is preferred when it exists; in the flat form, runs recorded on a
    DIFFERENT runner class are filtered out (runs without the field are
    kept for migration continuity). A corrupt run file (e.g. truncated
    by a cancelled CI job) is warned about and skipped, so one bad file
    does not disable the gate while good history remains."""
    if os.path.isdir(path):
        class_dir = os.path.join(path, runner_class)
        scan = class_dir if os.path.isdir(class_dir) else path
        names = sorted(n for n in os.listdir(scan) if n.endswith(".json"))
        baselines = []
        for name in reversed(names):
            if len(baselines) == window:
                break
            try:
                doc = load(os.path.join(scan, name))
            except (OSError, ValueError) as err:
                print(f"::warning::skipping unreadable baseline run "
                      f"{name}: {err}")
                continue
            recorded = doc.get("runner_class")
            if recorded is not None and recorded != runner_class:
                print(f"::warning::skipping baseline run {name}: recorded "
                      f"on {recorded}, current runner is {runner_class}")
                continue
            baselines.append(doc)
        if not baselines:
            raise ValueError(
                f"{scan}: no usable baseline runs for {runner_class}")
        return baselines
    return [load(path)]


def rolling_median(baselines, key):
    """Median of `key` over the baseline runs that recorded it."""
    values = [b["metrics"][key] for b in baselines if key in b["metrics"]]
    return statistics.median(values) if values else None


def gated(key):
    return key.endswith("_qps")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="previous run's JSON, or a directory of prior "
                             "runs (may be absent)")
    parser.add_argument("--current", required=True,
                        help="this run's JSON")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max tolerated fractional qps drop below the "
                             "rolling median (0.25 = fail below 75%% of it)")
    parser.add_argument("--window", type=int, default=5,
                        help="max prior runs folded into the rolling median "
                             "(directory baselines only)")
    parser.add_argument("--runner-class", default=None,
                        help="hardware class key for the baseline history "
                             "(default: the current run's recorded "
                             "runner_class, else cpu<os.cpu_count()>)")
    args = parser.parse_args()

    current = load(args.current)
    name = current.get("benchmark", args.current)
    runner_class = (args.runner_class
                    or current.get("runner_class")
                    or f"cpu{os.cpu_count() or 1}")

    try:
        baselines = load_baselines(args.baseline, max(1, args.window),
                                   runner_class)
    except (OSError, ValueError) as err:
        print(f"::warning::{name}: no usable baseline ({err}); "
              "recording current run as the new baseline")
        return 0

    rows = []
    failures = []
    for key, cur in sorted(current["metrics"].items()):
        base = rolling_median(baselines, key)
        if base is None:
            rows.append((key, None, cur, "new"))
            continue
        change = (cur - base) / base if base else 0.0
        status = "ok"
        if gated(key) and base > 0 and cur < base * (1.0 - args.threshold):
            status = "REGRESSION"
            failures.append((key, base, cur, change))
        elif not gated(key):
            status = "info"
        rows.append((key, base, cur, f"{change:+.1%} {status}"))
    retired = sorted({key for b in baselines for key in b["metrics"]
                      if gated(key) and key not in current["metrics"]})
    for key in retired:
        rows.append((key, rolling_median(baselines, key), None,
                     "retired info"))

    width = max(len(r[0]) for r in rows) if rows else 10
    print(f"{name}: current vs rolling median of {len(baselines)} "
          f"{runner_class} run(s) (gate: *_qps within {args.threshold:.0%})")
    for key, base, cur, status in rows:
        base_s = "-" if base is None else f"{base:12.1f}"
        cur_s = "-" if cur is None else f"{cur:12.1f}"
        print(f"  {key:<{width}}  {base_s:>12} -> {cur_s:>12}  {status}")

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as f:
            f.write(f"### {name} perf gate "
                    f"(median of {len(baselines)} {runner_class} "
                    f"run(s))\n\n")
            f.write("| metric | baseline | current | change |\n")
            f.write("|---|---|---|---|\n")
            for key, base, cur, status in rows:
                base_s = "-" if base is None else f"{base:.1f}"
                cur_s = "-" if cur is None else f"{cur:.1f}"
                f.write(f"| `{key}` | {base_s} | {cur_s} | {status} |\n")
            f.write("\n")

    for key, base, cur, change in failures:
        print(f"::error::{name}: {key} regressed {change:.1%} "
              f"({base:.1f} -> {cur:.1f} q/s vs the rolling median, "
              f"tolerance {args.threshold:.0%})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
