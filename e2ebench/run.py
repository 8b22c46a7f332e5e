#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the LRGP workspace.

Usage, from the root of the repository:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the harness in this directory (release profile, into
$CARGO_TARGET_DIR, default .bench_build), then runs, each in its own
process:

1. a host probe (ALU and memory timings, available parallelism);
2. the measured run of the workload, alone;
3. side by side, once the measured run has ended: a check run with the
   same seed, which must reproduce the measured run's warm-up checkpoint
   bit for bit (utility and step count), and a check run with the next
   seed, which must pass the same checks;
4. the host probe again.

Prints a human-readable report, then as its last line one JSON object
with the keys correct, attempted, failed and metrics. If a correctness
check fails, `correct` is false and the exit code is 1. If the harness
cannot be built or a worker fails, it exits 1 without the JSON line.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
BINARY = "lrgp-e2ebench"
WORKLOADS = ("cold_file", "targeted_churn", "producer_churn")
# Everything after the build must end within this many seconds.
RUN_BUDGET_S = 175
BUILD_TIMEOUT_S = 880
# Keep freed memory in the worker instead of returning it to the kernel
# and faulting it back in on the next op: page-fault cost swings with the
# host's memory pressure, not with the program.
WORKER_ENV = {
    "GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=33554432:"
    "glibc.malloc.trim_threshold=4294967296",
}


# Workers started and not yet reaped; stopped on any failure.
STARTED = []


def fail(message):
    for proc in STARTED:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(
            ["cargo", "build", "--release", "--quiet", "--manifest-path", MANIFEST],
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    binary = os.path.join(target_dir, "release", BINARY)
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def start(binary, *args):
    """Starts the harness binary with `args`."""
    env = dict(os.environ, **WORKER_ENV)
    try:
        proc = subprocess.Popen([binary, *args], env=env, stdout=subprocess.PIPE, text=True)
    except OSError as e:
        fail(f"{' '.join(args)}: {e}")
    STARTED.append(proc)
    return proc


def finish(proc, deadline):
    """Waits for a started worker; returns its last stdout line as JSON."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(proc.args[1:])}: timed out")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{' '.join(proc.args[1:])}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def worker(binary, deadline, *args):
    """Runs the harness binary to completion; returns its JSON result."""
    return finish(start(binary, *args), deadline)


def rustc_version():
    try:
        done = subprocess.run(["rustc", "-V"], stdout=subprocess.PIPE, text=True, timeout=60)
        return done.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def git_rev():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            timeout=60,
        )
        return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def checks(run, same, other):
    """Cross-process correctness checks; returns the failed ones."""
    failed = []
    for label, result in (("measured run", run), ("same-seed check", same), ("next-seed check", other)):
        if not result["correct"]:
            notes = result.get("notes", {})
            failed.append(f"{label}: {notes.get('failed_check', 'a check failed')}")
    if run["checkpoint"] != same["checkpoint"]:
        failed.append(
            "same seed, different warm-up result: "
            f"{run['checkpoint']} vs {same['checkpoint']}"
        )
    if other["failed"] != 0:
        failed.append(f"next-seed check: {other['failed']} ops did not converge feasibly")
    return failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(target_dir)
    runs_dir = os.path.join(target_dir, "e2ebench-runs")
    os.makedirs(runs_dir, exist_ok=True)

    deadline = time.monotonic() + RUN_BUDGET_S
    host_start = worker(binary, deadline, "--probe")
    common = ["--workload", args.workload]
    measured = [*common, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    measured += ["--trace", str(args.trace)]
    record = os.path.join(runs_dir, f"{args.workload}-{args.seed}")
    if args.trace:
        measured += ["--spans-out", f"{record}-spans.tsv"]
    else:
        measured += ["--latencies-out", f"{record}-latencies-ms.txt"]
    run = worker(binary, deadline, *measured)
    # The check runs are not timed, so they run side by side.
    checking = [
        start(binary, *common, "--seed", str(seed), "--check")
        for seed in (args.seed, args.seed + 1)
    ]
    same, other = (finish(proc, deadline) for proc in checking)
    host_end = worker(binary, deadline, "--probe")

    failed_checks = checks(run, same, other)
    host = {
        "available_parallelism": host_start["available_parallelism"],
        "rustc": rustc_version(),
        "git_rev": git_rev(),
        "alu_ms": [host_start["alu_ms"], host_end["alu_ms"]],
        "memory_ms": [host_start["memory_ms"], host_end["memory_ms"]],
    }
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("host " + json.dumps(host))
    print("notes " + json.dumps(run["notes"]))
    for name, metric in run["metrics"].items():
        print(f"  {name:<36} {metric['value']:>16.6f} {metric['unit']}")
    for check in failed_checks:
        print(f"FAILED CHECK: {check}")
    with open(f"{record}-trace{args.trace}.json", "w") as f:
        json.dump({"host": host, "run": run}, f)

    result = {
        "correct": not failed_checks,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": run["metrics"],
    }
    print(json.dumps(result))
    if failed_checks:
        sys.exit(1)


if __name__ == "__main__":
    main()
