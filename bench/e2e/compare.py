#!/usr/bin/env python3
"""Summarise or compare end-to-end benchmark results.

    compare.py RESULTS.json...                       summary
    compare.py --parent A.json... --change B.json... comparison

Inputs are the results files run.sh writes (a JSON list of runs).  The
summary prints, per workload and metric, the run count, median, quartiles
and the quartile spread as a share of the median.  The comparison prints
one row per workload and end-to-end metric: each side's median and
quartiles, the share of paired runs the change won, and a verdict:

  improved    the change won at least 9 of 10 pairs and the medians differ
              by more than the parent's quartile spread;
  unresolved  the parent's spread is wider than the metric's bound and not
              every change run beats every parent run;
  worse       the change's median is worse than the parent's by more than
              the bound in BENCHMARK.json;
  same        otherwise.

Runs pair up in order within each workload (run i of the parent with run i
of the change), so run both sides with the same seeds in the same order.
"""

import argparse
import json
import pathlib
import statistics
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(paths):
    """{workload: [result, ...]} over every file, in file order."""
    runs = {}
    for path in paths:
        with open(path, encoding="utf-8") as f:
            for entry in json.load(f):
                runs.setdefault(entry["workload"], []).append(entry["result"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def series(results, metric):
    return [r["metrics"][metric]["value"] for r in results
            if metric in r["metrics"]]


def summary(runs):
    print(f"{'workload':10} {'metric':28} {'n':>3} {'median':>14} "
          f"{'q1':>14} {'q3':>14} {'spread':>8}")
    for workload, results in runs.items():
        bad = [r for r in results if not r["correct"] or r["failed"]]
        if bad:
            print(f"{workload}: {len(bad)} run(s) failed a check")
        names = []
        for r in results:
            names += [m for m in r["metrics"] if m not in names]
        for name in names:
            values = series(results, name)
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            print(f"{workload:10} {name:28} {len(values):3d} {med:14.6g} "
                  f"{q1:14.6g} {q3:14.6g} {spread:8.2%}")


def verdict(parent, change, better_higher, bound):
    def better(a, b):
        return a > b if better_higher else a < b

    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p)) / len(pairs)
    spread = (p3 - p1) / pm if pm else 0.0
    worse_by = (pm - cm) / pm if better_higher else (cm - pm) / pm
    if wins >= 0.9 and better(cm, pm) and abs(cm - pm) > p3 - p1:
        return wins, "improved"
    if spread > bound and not all(better(c, p) for c in change
                                  for p in parent):
        return wins, "unresolved"
    if worse_by > bound:
        return wins, "worse"
    return wins, "same"


def compare(parent_runs, change_runs):
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    print(f"{'workload':10} {'metric':16} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'won':>5}  verdict")
    for workload, parent in parent_runs.items():
        change = change_runs.get(workload, [])
        if not change:
            print(f"{workload}: no change runs")
            continue
        for side, results in (("parent", parent), ("change", change)):
            if any(not r["correct"] or r["failed"] for r in results):
                print(f"{workload}: a {side} run failed a check")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p, c = series(parent, name), series(change, name)
            if not p or not c:
                continue
            wins, word = verdict(p, c, metric["better"] == "higher",
                                 metric["bound"])
            cells = []
            for values in (p, c):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
            print(f"{workload:10} {name:16} {cells[0]:>34} {cells[1]:>34} "
                  f"{wins:5.0%}  {word}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="*", help="results files")
    parser.add_argument("--parent", nargs="+", help="parent results files")
    parser.add_argument("--change", nargs="+", help="change results files")
    args = parser.parse_args()
    if args.parent and args.change:
        compare(load_runs(args.parent), load_runs(args.change))
    elif args.results:
        summary(load_runs(args.results))
    else:
        parser.print_usage(sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
