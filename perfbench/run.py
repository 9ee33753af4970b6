#!/usr/bin/env python3
"""Build the benchmark from source and run one workload in a fresh process.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default `.bench_build`). The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; everything else goes to standard
error. With `--trace 0` the metrics are the end-to-end metrics of
BENCHMARK.json, with `--trace 1` its per-layer metrics, and the spans of
the traced run are written to `<target>/perfbench-traces/`.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig4-resnet50", "bert-ffn-full", "daemon-mixed")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    path = os.path.join(HERE, os.pardir, "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        fail("build failed")

    scratch = os.path.join(target, "perfbench-scratch", f"{args.workload}-{os.getpid()}")
    command = [
        os.path.join(target, "release", "indexmac-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scratch", scratch,
    ]
    if args.trace:
        traces = os.path.join(target, "perfbench-traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    # Pin glibc malloc so that peak memory follows the program's live
    # allocations, not thread timing: one arena (a new thread otherwise
    # takes whichever arena an exited thread left behind), and a fixed
    # mmap threshold (the default one moves up as large blocks are freed,
    # and freed heap memory is then kept).
    run_env = dict(env, MALLOC_ARENA_MAX="1", MALLOC_MMAP_THRESHOLD_="1048576")
    try:
        # subprocess.run kills and reaps the child when it times out.
        run = subprocess.run(
            command, env=run_env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, check=False
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = run.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if run.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {run.returncode}")

    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        fail(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
