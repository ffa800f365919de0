#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <line_rate|churn_sharded|serve_hotkey|all> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is built from source with
`cargo build --release` into `$CARGO_TARGET_DIR` (default `.bench_build`),
then one process runs each workload, so `peak_rss_mb` belongs to that
workload alone. Each run prints the host fingerprint (core count, CPU
model, `rustc -V`) as a JSON line, then the result as the last line.
`--workload all` runs the three workloads one after another and prints
every metric with its unit, then one combined result line.

Exits non-zero, without a result line, when the build fails; exits
non-zero with `"correct": false` when any output diverges from the VM or
the accounting does not close.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["line_rate", "churn_sharded", "serve_hotkey"]
HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rustc = subprocess.run(
            ["rustc", "-V"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rustc = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "rustc": rustc}


def build(env):
    """Build the benchmark binary; returns its path, or None on failure."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    # Cargo's own output goes to stderr so stdout carries only results.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        return None
    return Path(env["CARGO_TARGET_DIR"]).resolve() / "release" / "perfbench"


def run_one(binary, workload, args, env):
    """Run one workload in its own process; returns (exit code, result)."""
    cmd = [
        str(binary), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        done = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()

    host = fingerprint()
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["PERFBENCH_RUSTC"] = host["rustc"]
    binary = build(env)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    print(json.dumps({"host": host}))

    if args.workload != "all":
        code, result = run_one(binary, args.workload, args, env)
        if result is not None:
            print(json.dumps(result))
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        code, result = run_one(binary, w, args, env)
        worst = worst or code
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] &= bool(result["correct"]) and code == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(f"{w}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:32} {m['value']:>16.6g} {m['unit']}")
            combined["metrics"][f"{w}.{name}"] = m
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
