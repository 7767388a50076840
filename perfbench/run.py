#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig6 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

The script builds the `perfbench` package (and its farm worker) with
cargo, runs the benchmark binary in a per-run scratch directory under
`.perfbench-out/`, and relays its report. Unless the binary measured
it (`warpd-mix` does, at a fixed request count), it adds `peak_rss_mb`,
the largest peak RSS of the benchmark process and its reaped children.
It prints a run header (host cores, revision, seed, op count, real, user
and sys seconds). The last line of standard output is the JSON result.
The exit code is 0 only when every output check passed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = ".perfbench-out"
WORKLOADS = ["fig6", "callheavy-farm", "warpd-mix"]
# A run must end well inside the three minutes a caller allows it.
RUN_LIMIT_S = 170
# glibc malloc settings for the benchmark and the farm workers it
# spawns: keep freed memory in the heap instead of unmapping it. By
# default every large block the compiler frees goes back to the kernel
# and is faulted in again on the next build, a few hundred page faults
# per fig6 build. What such a fault costs depends on the host's memory
# state, not on the program, and it moved fig6's op_ms.p50 by over 25%
# between runs.
MALLOC_TUNABLES = ":".join([
    "glibc.malloc.mmap_threshold=33554432",
    "glibc.malloc.trim_threshold=1073741824",
    "glibc.malloc.top_pad=67108864",
])


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(target_dir):
    """Builds the benchmark; returns the binary's path or None."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        log(f"cannot run cargo: {e}")
        return None
    if done.returncode != 0:
        log("build failed")
        return None
    binary = os.path.join(ROOT, target_dir, "release", "perfbench")
    return binary if os.path.isfile(binary) else None


def git_rev():
    """The checkout's commit, or None when it is not a git work tree of
    its own (an enclosing repository does not count)."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, result dict or None)."""
    run_dir = os.path.join(OUT, f"run-{os.getpid()}-{workload}")
    os.makedirs(os.path.join(ROOT, run_dir), exist_ok=True)
    # Relative TMPDIR keeps farm and daemon socket paths short.
    env = dict(os.environ, TMPDIR=run_dir, GLIBC_TUNABLES=MALLOC_TUNABLES)
    cmd = [
        binary, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.time()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )

    def kill():
        log(f"{workload}: over {RUN_LIMIT_S} s, killing it")
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(RUN_LIMIT_S, kill)
    timer.start()
    try:
        lines = proc.stdout.read().splitlines()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        # Nothing the run started may survive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
    real = time.time() - start

    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    for line in lines[:-1] if result is not None else lines:
        print(line)
    if result is None:
        return proc.returncode or 1, None
    if trace == 0 and "peak_rss_mb" not in result["metrics"]:
        result["metrics"]["peak_rss_mb"] = {
            "value": usage.ru_maxrss / 1024.0, "unit": "MB",
        }
        print(f"  {'peak_rss_mb':<30} {usage.ru_maxrss / 1024.0:>14.4f} MB      n=1")
    header = {
        "host_cores": os.cpu_count(),
        "git_rev": git_rev(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "ops": result.get("attempted"),
        "real_s": round(real, 3),
        "user_s": round(usage.ru_utime, 3),
        "sys_s": round(usage.ru_stime, 3),
    }
    print("header " + json.dumps(header))
    path = os.path.join(ROOT, OUT, f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump({"header": header, "result": result}, fh, indent=1)
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(target_dir)
    if binary is None:
        return 1
    os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    code, results = 0, {}
    for w in workloads:
        rc, result = run_one(binary, w, args.seed, args.seconds, args.trace)
        if rc != 0 or result is None:
            code = rc or 1
        if result is None:
            log(f"{w}: no result")
            return code
        results[w] = result
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}:{k}": v for w, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return code


if __name__ == "__main__":
    sys.exit(main())
