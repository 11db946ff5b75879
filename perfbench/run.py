#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
silofuse library and the benchmark under $CARGO_TARGET_DIR (default
.bench_build) with CMake; later runs rebuild incrementally. Build output goes
to stderr, so the last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}. The exit status is the
benchmark's: non-zero when a correctness check or an operation failed, or
when the sources are missing.
"""

import argparse
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("serve_small", "synth_bulk", "fit_silos")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_checked(cmd, timeout, cwd):
    """Runs a build step with its output on stderr; waits for it to end."""
    try:
        result = subprocess.run(cmd, cwd=cwd, stdout=sys.stderr,
                                stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if result.returncode != 0:
        fail(f"failed ({result.returncode}): {' '.join(cmd)}")


def build(root, build_dir, targets):
    bench_src = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"silofuse sources not found under {root}/src")
    start = time.monotonic()
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", bench_src, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, root)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    for target in targets:
        remaining = BUILD_TIMEOUT_S - (time.monotonic() - start)
        run_checked(["cmake", "--build", build_dir, "--target", target,
                     "-j", jobs], max(1.0, remaining), root)


def git_sha(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def clean_env():
    # The program under test reads SILOFUSE_* knobs (thread count, audit,
    # introspection, tracing); the benchmark fixes its own settings.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("SILOFUSE_")}


def run_benchmark(binary, args, out_dir, root):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    sha = git_sha(root)
    if sha:
        cmd += ["--git-sha", sha]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, env=clean_env(),
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if not lines:
        fail(f"benchmark printed no result (exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last line is not a result: {lines[-1]!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys: {sorted(result)}")
    for line in lines[:-1]:
        print(line)
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        f.write("\n".join(lines) + "\n")
    print(lines[-1], flush=True)
    return proc.returncode if proc.returncode != 0 or result["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the harness unit tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target_root, "perfbench")

    if args.self_test:
        build(root, build_dir, ["perfbench_harness_test"])
        test = os.path.join(build_dir, "perfbench_harness_test")
        if not os.path.isfile(test):
            fail("GTest not found: harness tests were not built")
        sys.exit(subprocess.run([test], cwd=root).returncode)

    build(root, build_dir, ["perfbench"])
    out_dir = os.path.join(build_dir, "out",
                           f"{args.workload}-{args.seed}-t{args.trace}")
    os.makedirs(out_dir, exist_ok=True)
    sys.exit(run_benchmark(os.path.join(build_dir, "perfbench"), args,
                           out_dir, root))


if __name__ == "__main__":
    main()
