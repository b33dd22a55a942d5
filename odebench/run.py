#!/usr/bin/env python3
"""Builds odebench from source and runs one workload.

    python3 odebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds a
Release tree under $CARGO_TARGET_DIR (default .bench_build) from ../src and
odebench/; later runs rebuild incrementally. Each run first runs
odebench_selftest (every output check must reject a wrong answer), then the
workload in a scratch directory that is removed afterwards. The last line of
standard output is the run's JSON result; a traced run also leaves its spans
in <build root>/odebench-out/spans-<workload>.tsv. See odebench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oltp_zipf", "scan_snapshot", "durable_commit", "wire_mix")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("odebench: " + msg, file=sys.stderr)
    sys.exit(1)


def source_stamp():
    """The git SHA when run in a git checkout, else a digest of the sources."""
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        out = git.stdout.split()
        # Only this checkout's own repository, not one that encloses it.
        if git.returncode == 0 and len(out) == 2 and \
                os.path.realpath(out[0]) == os.path.realpath(ROOT):
            return "git " + out[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "odebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "not a git checkout; sources sha256 " + digest.hexdigest()[:16]


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("odebench: engine sources (src/) not found next to odebench/",
              file=sys.stderr)
        sys.exit(2)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "odebench", "odebench_selftest"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    build_dir = os.path.join(build_root, "odebench")
    build(build_dir)

    selftest = subprocess.run([os.path.join(build_dir, "odebench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr,
                              timeout=60)
    if selftest.returncode:
        fail("odebench_selftest failed: an output check accepts wrong answers")

    data_dir = os.path.join(build_root, "odebench-data",
                            "%s-%d" % (args.workload, os.getpid()))
    out_dir = os.path.join(build_root, "odebench-out")
    os.makedirs(data_dir, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "odebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--data-dir", data_dir, "--out-dir", out_dir,
           "--source", source_stamp()]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    if run.returncode:
        fail("odebench exited with status %d" % run.returncode)

    lines = [l for l in run.stdout.splitlines() if l.strip()]
    if not lines:
        fail("odebench printed nothing")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not JSON: " + lines[-1][:200])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("unexpected result keys: %s" % sorted(result))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
