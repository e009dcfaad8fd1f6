#!/usr/bin/env python3
"""The engine benchmark: builds perfbench/ against ../src and runs one workload.

    python3 perfbench/run.py --workload adapt|scan_fanin|mixed_rw \
        --seed N [--seconds S] --trace 0|1

Run from the repository root. --seconds defaults to BENCHMARK.json's
run_seconds. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). With --trace 0 the last line of standard
output is a JSON object carrying every end-to-end metric of BENCHMARK.json;
with --trace 1 the same seed runs untraced and then traced, and the object
carries every per-layer metric, including the tracing overhead (traced minus
untraced end-to-end figures). Lines before it are the human-readable report
and the host block. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
# Set-up, warm-up, checks and the host probe take well under a minute on top
# of the measured seconds.
RUN_OVERHEAD_TIMEOUT_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    try:
        # A Makefile appears only when configuring succeeded.
        if not os.path.exists(os.path.join(build_dir, "Makefile")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        fail(f"build failed: {e}")
    return os.path.join(build_dir, "perfbench")


def run_binary(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=2 * seconds + RUN_OVERHEAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} run timed out")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        fail(f"{workload} run exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} run printed no result")
    for line in lines[:-1]:
        print(line)
    return result


def host_block(result):
    if os.path.isdir(os.path.join(ROOT, ".git")):
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, text=True).stdout.strip()
    else:
        sha = "none (not a git checkout)"
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    host = result["host"]
    threads = int(host["hardware_threads"])
    print(f"host: hardware_threads={threads} "
          f"cpu_scaling_1_to_{threads}={host['cpu_scaling']:.3f} "
          f"build_type={result['build_type']} git_sha={sha} "
          f"src_sha256={digest.hexdigest()[:16]}")


def main():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()

    untraced = run_binary(binary, args.workload, args.seed, args.seconds, False)
    runs = [untraced]
    if args.trace:
        traced = run_binary(binary, args.workload, args.seed, args.seconds, True)
        runs.append(traced)
        before, after = untraced["e2e"], traced["e2e"]
        traced["layer"]["trace.read_p50_overhead_pct"] = (
            100.0 * (after["read_p50_us"] - before["read_p50_us"])
            / before["read_p50_us"])
        traced["layer"]["trace.ops_per_s_overhead_pct"] = (
            100.0 * (before["ops_per_s"] - after["ops_per_s"])
            / before["ops_per_s"])
        print("tracing overhead: read_p50 "
              f"{traced['layer']['trace.read_p50_overhead_pct']:+.2f}%, "
              f"ops_per_s {traced['layer']['trace.ops_per_s_overhead_pct']:+.2f}%")
    correct = all(run["correct"] for run in runs)
    if args.trace and untraced["digest"] != traced["digest"]:
        print(f"page/entry digest differs: untraced {untraced['digest']} "
              f"traced {traced['digest']}")
        correct = False
    host_block(runs[-1])

    section, key = ("per_layer", "layer") if args.trace else ("end_to_end", "e2e")
    metrics = {}
    for metric in spec[section]:
        value = runs[-1][key].get(metric["name"])
        if value is None:
            fail(f"{args.workload} run did not report {metric['name']}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
