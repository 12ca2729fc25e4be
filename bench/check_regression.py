#!/usr/bin/env python3
"""CI perf-regression gate for the pinned hot-path benches.

Compares a bench_micro JSON capture (Google Benchmark format, as written
by bench/run_all.sh into BENCH_bench_micro.json) against the multi-core
baseline recorded in bench/BASELINE.json under "regression_gate", and
fails when a pinned bench regresses by more than the threshold, or when
a `speedup` pair's fast row (the cross-pair serving wave at 4 threads,
the AVX2 Adam step, the AVX2 channel bit-pipeline, gradient clipping
below the cap) stops beating its reference row in the same capture by
the pair's min_ratio.

The gate is CONTEXT-AWARE: baselines are captured on the CI runner class
(ci_micro_ns, with the capturing host's core count alongside), and the
gate disarms itself — loudly, exit 0 — when the current host has fewer
cores than `min_cores` (wall numbers from a starved pool are noise) or
when a pinned bench has no recorded baseline yet (bootstrap: record one
with --record from a trusted run's artifact).

Override: a run with SEMCACHE_PERF_OVERRIDE=1 in the environment (CI
sets it when the PR carries the `perf-override` label) or --override
reports regressions as warnings and exits 0 — for PRs that knowingly
trade the pinned paths, with the expectation that BASELINE.json is
refreshed in the same change.

Usage:
  check_regression.py --current build/bench_out/BENCH_bench_micro.json
  check_regression.py --current <capture> --record   # refresh baseline
"""

import argparse
import json
import os
import sys


def annotate(message):
    """Surface a disarm/override loudly in CI.

    Printing a plain line into a long job log is how a disarmed gate
    stays silently disarmed for five PRs. On GitHub Actions this emits a
    workflow warning annotation (rendered on the run summary and the PR
    checks tab); elsewhere it is a plain stderr-style print, so local
    runs see the same text.
    """
    if os.environ.get("GITHUB_ACTIONS") == "true":
        print(f"::warning ::check_regression: {message}")
    print(f"  warn {message}")


def load_real_times(capture_path):
    """name -> real_time in ns from a Google Benchmark JSON capture."""
    with open(capture_path) as f:
        doc = json.load(f)
    times = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue  # skip aggregates; the gate compares raw runs
        unit = bench.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit)
        if scale is None:
            continue
        if "name" not in bench or "real_time" not in bench:
            continue  # error_occurred entries carry no timing
        times[bench["name"]] = float(bench["real_time"]) * scale
    return times


def print_drift_table(baseline, current):
    """Non-gating drift report against the informational micro_ns table.

    Prints every baseline micro_ns row present in the capture with its
    delta. Purely informational — nothing here fails the job, and it runs
    even on hosts below min_cores (drift direction is still meaningful on
    a starved pool; absolute walls are not). The ARMED numbers live in
    regression_gate.ci_micro_ns and are handled by the gate proper.
    """
    info = baseline.get("micro_ns", {})
    rows = []
    skipped = []  # baseline rows that are not comparable (non-numeric)
    for name, base in sorted(info.items()):
        if name not in current:
            continue
        try:
            rows.append((name, float(base), current[name]))
        except (TypeError, ValueError):
            skipped.append(name)
    # A capture from a newer tree legitimately carries benches the
    # checked-in baseline has never seen (freshly added micro benches).
    # Those are not drift — note them instead of crashing or silently
    # hiding them, so a stale baseline is visible in the log.
    unknown = sorted(set(current) - set(info))
    if not rows and not unknown and not skipped:
        return
    print("check_regression: informational micro_ns drift (non-gating; "
          "provenance in BASELINE.json _comment):")
    for name, base_ns, cur_ns in rows:
        delta = cur_ns / base_ns - 1.0
        print(f"  info {name}: {cur_ns / 1e3:.1f}us vs baseline "
              f"{base_ns / 1e3:.1f}us ({delta:+.1%})")
    for name in skipped:
        print(f"  info {name}: baseline value is not numeric — skipped")
    if unknown:
        print(f"  info {len(unknown)} capture row(s) without a baseline "
              f"(new benches — refresh micro_ns to track them): "
              + ", ".join(unknown))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", required=True,
                        help="bench_micro JSON capture to gate")
    parser.add_argument("--baseline", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "BASELINE.json"))
    parser.add_argument("--override", action="store_true",
                        help="report regressions but exit 0")
    parser.add_argument("--record", action="store_true",
                        help="write the current pinned/speedup numbers into "
                             "the baseline's ci_micro_ns and exit")
    args = parser.parse_args()

    override = args.override or os.environ.get(
        "SEMCACHE_PERF_OVERRIDE", "") == "1"

    with open(args.baseline) as f:
        baseline = json.load(f)
    gate = baseline.get("regression_gate")
    if not gate:
        annotate("baseline has no regression_gate section — perf gate "
                 "DISARMED; seed bench/BASELINE.json to re-arm")
        return 0

    current = load_real_times(args.current)
    threshold = float(gate.get("threshold", 0.25))
    min_cores = int(gate.get("min_cores", 4))
    cores = os.cpu_count() or 1
    recorded = gate.get("ci_micro_ns", {})
    recorded_cores = recorded.get("context", {}).get("host_cores")

    if not args.record:
        print_drift_table(baseline, current)

    if args.record:
        if cores < min_cores:
            print(f"check_regression: refusing --record on a {cores}-core "
                  f"host (min_cores={min_cores}): a starved-pool baseline "
                  f"would silently disarm the gate on every real runner. "
                  f"Record from the CI runner class's artifact on a matching "
                  f"host.")
            return 1
        values = {}
        names = list(gate.get("pinned", []))
        for pair in gate.get("speedup", []):
            names += [pair["reference"], pair["fast"]]
        missing = [n for n in names if n not in current]
        if missing:
            print("check_regression: capture lacks benches: "
                  + ", ".join(missing))
            return 1
        for name in names:
            values[name] = round(current[name], 1)
        gate["ci_micro_ns"] = {
            "context": {"host_cores": cores,
                        "source": os.path.basename(args.current)},
            "values": values,
        }
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=1)
            f.write("\n")
        print(f"check_regression: recorded {len(values)} baseline rows "
              f"(host_cores={cores}) into {args.baseline}")
        return 0

    if cores < min_cores:
        annotate(f"host has {cores} core(s) < min_cores={min_cores}; "
                 f"wall-clock perf gate DISARMED (pool-starved numbers are "
                 f"noise)")
        return 0

    failures = []
    warnings = []

    # ---- pinned-bench wall regression ----
    values = recorded.get("values", {})
    for name in gate.get("pinned", []):
        if name not in current:
            warnings.append(f"{name}: not present in this capture")
            continue
        if name not in values:
            warnings.append(f"{name}: no CI baseline recorded yet — "
                            f"bootstrap by running --record on a trusted "
                            f"capture from this runner class")
            continue
        if recorded_cores is not None and recorded_cores != cores:
            warnings.append(f"{name}: baseline captured on "
                            f"{recorded_cores}-core host, this host has "
                            f"{cores}; skipping (refresh with --record)")
            continue
        base_ns = float(values[name])
        cur_ns = current[name]
        delta = cur_ns / base_ns - 1.0
        line = (f"{name}: {cur_ns / 1e3:.1f}us vs baseline "
                f"{base_ns / 1e3:.1f}us ({delta:+.1%}, threshold "
                f"+{threshold:.0%})")
        if delta > threshold:
            failures.append(line)
        else:
            print(f"  ok   {line}")

    # ---- wall-speedup assertions (within this capture) ----
    # Armed only once a CI baseline exists with matching context: before
    # the first --record the multi-core win is unproven (the gate ships
    # armed-but-empty), and a congested bootstrap run must not fail CI.
    for pair in gate.get("speedup", []):
        ref, fast = pair["reference"], pair["fast"]
        min_ratio = float(pair.get("min_ratio", 1.0))
        if not values:
            warnings.append(f"speedup {ref} / {fast}: disarmed until a CI "
                            f"baseline is recorded (--record)")
            continue
        if recorded_cores is not None and recorded_cores != cores:
            warnings.append(f"speedup {ref} / {fast}: baseline context is "
                            f"{recorded_cores}-core, this host has {cores}; "
                            f"skipping")
            continue
        if ref not in current or fast not in current:
            warnings.append(f"speedup {ref} / {fast}: rows missing from "
                            f"capture")
            continue
        ratio = current[ref] / current[fast]
        line = (f"speedup of {fast} over {ref}: {ratio:.2f}x "
                f"(required > {min_ratio:.2f}x)")
        if ratio <= min_ratio:
            failures.append(line)
        else:
            print(f"  ok   {line}")

    # Every warning is a partially disarmed gate (a pinned bench or the
    # speedup assertion skipping its check) — annotate each one so CI
    # renders the disarm instead of burying it in the log.
    for line in warnings:
        annotate(line)
    if failures:
        verb = "WARN (override active)" if override else "FAIL"
        for line in failures:
            print(f"  {verb} {line}")
        if override:
            annotate("perf gate override engaged (perf-override label / "
                     "SEMCACHE_PERF_OVERRIDE=1) with "
                     f"{len(failures)} regression(s) reported as warnings — "
                     "refresh BASELINE.json if this change is intentional")
            return 0
        print("check_regression: perf gate failed — investigate, or apply "
              "the documented override (PR label `perf-override`) and "
              "refresh bench/BASELINE.json via --record")
        return 1
    print("check_regression: perf gate clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
