#!/usr/bin/env python3
"""Build the benchmark harness from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The harness (perfbench/harness, linked
against the libraries in src/) is built with CMake in Release mode under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).  The run's
sandbox is a directory under that build tree; where the kernel allows an
unprivileged mount namespace it is mounted as a private tmpfs first, so
the storage layer runs on a memory-backed filesystem instead of whatever
disk holds the checkout.  The harness prints the filesystem it got.

The last line of stdout is the result: one JSON object with the keys
correct, attempted, failed and metrics.  Any build or run failure exits
non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("workspace-clone", "catalog-churn", "wide-site", "sharded-grid")
# A run is a few set-ups and warm-ups plus at most 2 x --seconds of load;
# the harness is killed when it takes far longer than that.
SETUP_ALLOWANCE_S = 120
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(build_dir):
    """Configure and build the harness; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "--target", "perfbench",
              "-j", jobs]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            print(f"perfbench: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return True


def tmpfs_prefix(mountpoint):
    """Command prefix that runs a program with `mountpoint` mounted as a
    private tmpfs, or [] when this kernel or container does not allow it."""
    if shutil.which("unshare") is None:
        return []
    mount = 'mount -t tmpfs -o size=4g tmpfs "$1"'
    probe = subprocess.run(["unshare", "-Urm", "sh", "-c", mount, "sh",
                            str(mountpoint)],
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if probe.returncode != 0:
        return []
    return ["unshare", "-Urm", "sh", "-c", mount + ' && shift && exec "$@"',
            "sh", str(mountpoint)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = (Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
                 / "perfbench").resolve()
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    mountpoint = build_dir / "sandbox" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(mountpoint, ignore_errors=True)
    mountpoint.mkdir(parents=True)
    cmd = tmpfs_prefix(mountpoint) + [
        str(build_dir / "perfbench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--sandbox", str(mountpoint / "run")]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--spans",
                str(traces / f"{args.workload}-seed{args.seed}.spans.jsonl")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=SETUP_ALLOWANCE_S + 3 * args.seconds)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(mountpoint, ignore_errors=True)

    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if (done.returncode != 0 or not isinstance(result, dict)
            or set(result) != RESULT_KEYS):
        print(done.stdout, file=sys.stderr)
        print(f"perfbench: harness exited {done.returncode} without a result",
              file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
