#!/usr/bin/env python3
"""Compare two result sets of the serving benchmark.

    python3 perfbench/compare.py SET_A [SET_B] [--per-layer]

A set is a file or a directory of files holding captured stdout of
perfbench/run.py; every `perfbench-result {...}` line in them is one run.
For each workload and end-to-end metric (from untraced runs) the tool
prints each set's run count, median and quartiles (statistics.quantiles,
n=4), the set's spread (interquartile range / median), and a verdict
against the metric's bound in BENCHMARK.json:

  agree       both spreads are within the bound and the medians differ by
              at most the bound (relative to SET_A's median)
  differ      both spreads are within the bound, the medians are not
  unresolved  a set's own spread exceeds the bound, so the sets cannot be
              told apart at that bound

With one set only the spread is judged (`steady` or `unresolved`).
--per-layer adds the same summary, without verdicts, for the per-layer
metrics of traced runs. Exit code 1 when any verdict is differ or
unresolved.
"""
import argparse
import json
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
PREFIX = "perfbench-result "


def load_set(path):
    """{(workload, trace): {metric: [values]}} from every result line."""
    root = pathlib.Path(path)
    files = sorted(p for p in root.rglob("*") if p.is_file()) \
        if root.is_dir() else [root]
    runs = {}
    for f in files:
        for line in f.read_text(errors="replace").splitlines():
            if not line.startswith(PREFIX):
                continue
            run = json.loads(line[len(PREFIX):])
            bucket = runs.setdefault((run["workload"], run["trace"]), {})
            for name, m in run["metrics"].items():
                bucket.setdefault(name, []).append(m["value"])
    return runs


def summary(values):
    """(n, median, q1, q3, spread) of a metric's runs."""
    med = statistics.median(values)
    if len(values) < 2:
        return len(values), med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))
    return len(values), med, q1, q3, spread


def fmt(s):
    n, med, q1, q3, spread = s
    return f"n={n:<2} {med:>12.6g} [{q1:.6g}, {q3:.6g}] spread={spread:6.2%}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("set_a")
    parser.add_argument("set_b", nargs="?")
    parser.add_argument("--per-layer", action="store_true")
    parser.add_argument("--benchmark", default=str(HERE.parent / "BENCHMARK.json"))
    args = parser.parse_args()

    bench = json.loads(pathlib.Path(args.benchmark).read_text())
    set_a = load_set(args.set_a)
    set_b = load_set(args.set_b) if args.set_b else None
    names = [w["name"] for w in bench["workloads"]]
    failures = 0

    for workload in names:
        a = set_a.get((workload, 0), {})
        b = set_b.get((workload, 0), {}) if set_b is not None else None
        print(f"== {workload} (end to end)")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            if name not in a or (b is not None and name not in b):
                print(f"  {name:<20} missing")
                failures += 1
                continue
            sa = summary(a[name])
            line = f"  {name:<20} bound={bound:<5} A: {fmt(sa)}"
            unresolved = sa[4] > bound
            if b is not None:
                sb = summary(b[name])
                unresolved = unresolved or sb[4] > bound
                change = (sb[1] - sa[1]) / abs(sa[1]) if sa[1] else 0.0
                worse = change if metric["better"] == "lower" else -change
                if unresolved:
                    verdict = "unresolved"
                elif abs(change) <= bound:
                    verdict = "agree"
                else:
                    verdict = "differ"
                line += f"  B: {fmt(sb)}  B worse by {worse:+.2%}  {verdict}"
            else:
                verdict = "unresolved" if unresolved else "steady"
                line += f"  {verdict}"
            failures += verdict in ("unresolved", "differ")
            print(line)
        if args.per_layer:
            print(f"== {workload} (per layer, traced runs)")
            for metric in bench["per_layer"]:
                name = metric["name"]
                for label, runs in (("A", set_a), ("B", set_b)):
                    if runs is None:
                        continue
                    values = runs.get((workload, 1), {}).get(name)
                    if values:
                        print(f"  {name:<30} {label}: {fmt(summary(values))}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
