#!/usr/bin/env python3
"""Build and run the CTJam benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `ctjam-perfbench` package (this directory) in release mode
into `$CARGO_TARGET_DIR` (default `.bench_build`), runs one workload, and
prints, as the last line of standard output, one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
the metrics are the `end_to_end` list of `BENCHMARK.json`, with
`--trace 1` its `per_layer` list (a layer a workload does not use
reads 0). The line before it carries the run's provenance and every
metric the workload measured. Build output and progress go to standard
error. See `METRICS.md` for what each metric means.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def git(*args):
    """Output of a git command in the repository, or None."""
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read {spec_path}: {err}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    declared = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    try:
        built = subprocess.run(
            build, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(f"build failed: {err}")
    if built.returncode != 0:
        fail(f"build failed with exit code {built.returncode}")

    out_dir = target / "perfbench-out"
    command = [
        str(target / "release" / "ctjam-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--out-dir", str(out_dir),
    ]
    try:
        ran = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(f"run failed: {err}")
    lines = ran.stdout.strip().splitlines()
    if ran.returncode != 0 or not lines:
        fail(f"run failed with exit code {ran.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError as err:
        fail(f"unreadable result line: {err}")

    measured = result["metrics"]
    correct = bool(result["correct"])
    metrics = {}
    for m in declared:
        got = measured.get(m["name"])
        value = None if got is None else got["value"]
        if got is not None and got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']!r}, BENCHMARK.json says {m['unit']!r}")
        if value is None or not math.isfinite(value):
            if args.trace == "0":
                print(f"perfbench: end-to-end metric {m['name']} missing", file=sys.stderr)
                correct = False
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    provenance = result["provenance"]
    provenance["git_revision"] = git("rev-parse", "HEAD") or "unknown (not a git checkout)"
    status = git("status", "--porcelain")
    provenance["git_dirty"] = None if status is None else bool(status)
    print(json.dumps({"provenance": provenance, "measured": measured}))
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
