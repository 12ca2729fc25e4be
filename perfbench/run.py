#!/usr/bin/env python3
"""Build and run the serving benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

The first form runs one workload; its last stdout line is the result
object {"correct", "attempted", "failed", "metrics"}. `--workload all`
runs serve, serve_pool, personalize and city in turn; with `--trace 1` it
follows each untraced run with a traced one of the same seed and length
and prints the tracing overhead. The exit code is non-zero when a build fails or an
output check fails.

The binary is built from ../src with CMake into $CARGO_TARGET_DIR (default
.bench_build) under the repository root. Span files of traced runs land in
<build dir>/traces/.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve", "serve_pool", "personalize", "city")
RUN_TIMEOUT_S = 170


def build_dir():
    configured = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return configured if configured.is_absolute() else ROOT / configured


def build(bdir):
    """Configure (once) and build the benchmark; returns the binary path."""
    if not (ROOT / "src").is_dir():
        print("perfbench: library sources not found under "
              f"{ROOT / 'src'}", file=sys.stderr)
        return None
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed", file=sys.stderr)
            return None
    binary = bdir / "perfbench"
    return binary if binary.is_file() else None


def run_binary(binary, workload, seed, seconds, trace, bdir):
    """Run one workload; returns (exit code, stdout lines)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = bdir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(traces / f"{workload}-seed{seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines):
    """The result object on the last line, or None when it is malformed."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def run_all(binary, args, bdir):
    ok = True
    for workload in WORKLOADS:
        print(f"=== {workload} ===", flush=True)
        code, lines = run_binary(binary, workload, args.seed, args.seconds,
                                 False, bdir)
        print("\n".join(lines[:-1]), flush=True)
        plain = result_of(lines)
        ok = ok and code == 0 and plain is not None and plain["correct"]
        if not args.trace:
            continue
        print(f"=== {workload} (traced) ===", flush=True)
        code, lines = run_binary(binary, workload, args.seed, args.seconds,
                                 True, bdir)
        print("\n".join(lines[:-1]), flush=True)
        traced = result_of(lines)
        ok = ok and code == 0 and traced is not None and traced["correct"]
        if plain is not None and traced is not None:
            untraced_ms = plain["metrics"]["wave_ms_p50"]["value"]
            traced_ms = traced["metrics"]["trace.wave_ms_p50"]["value"]
            print(f"tracing overhead: wave_ms_p50 {traced_ms:.4f} ms traced - "
                  f"{untraced_ms:.4f} ms untraced = "
                  f"{traced_ms - untraced_ms:+.4f} ms", flush=True)
    print(f"all workloads: {'correct' if ok else 'CHECK FAILED'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        return 3
    if args.workload == "all":
        return run_all(binary, args, bdir)

    code, lines = run_binary(binary, args.workload, args.seed, args.seconds,
                             bool(args.trace), bdir)
    result = result_of(lines)
    print("\n".join(lines[:-1]))
    if result is None:
        print("perfbench: no result line from the benchmark binary",
              file=sys.stderr)
        return code or 1
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
