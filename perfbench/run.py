#!/usr/bin/env python3
"""Builds and runs one workload of the mlprov repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload live_scoring --seed 1 \
        --seconds 20 --trace 0

The first run configures and compiles the library sources under src/ plus
the benchmark binaries into .bench_build/perfbench (Release): `perfbench` for the
end-to-end run, `perfbench_traced` for --trace 1. Later runs only rebuild
what changed. Build output goes to stderr. The binary's
stdout is passed through: its last line is the result object
(correct / attempted / failed / metrics), the line before it the detailed
report (host, build, counts, fingerprints, percentile sample counts).
For a workload listed in BENCHMARK.json, the result's metrics are exactly
the ones it declares (end_to_end for --trace 0, per_layer for --trace 1);
a missing one fails the run, and the binary's other metrics move to the
report's "ungated_metrics".
Scratch files (WAL segments, checkpoints) live in .bench_build/work-<pid>
and are removed on exit; traced runs leave their spans in
.bench_build/spans/.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("live_scoring", "durable_recovery", "lineage_queries",
             "sharded_ingest")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha1:" + digest.hexdigest()


def declared_metrics(workload, trace):
    """Names BENCHMARK.json gates for this run, or None if it gates none."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError:
        return None
    if workload not in {w["name"] for w in spec["workloads"]}:
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "stream", "session.h")):
        fail("no mlprov sources under %s/src; run from a full checkout" % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                fail("cmake configure failed", 1)
        jobs = str(max(1, os.cpu_count() or 1))
        if subprocess.run(["cmake", "--build", BUILD_DIR, "--target", target,
                           "-j", jobs], stdout=sys.stderr).returncode != 0:
            fail("build failed", 1)
    return os.path.join(BUILD_DIR, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"),
                        help="tiny: a few pipelines, for the self-test")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    # The traced run has its own binary (see CMakeLists.txt).
    binary = build("perfbench_traced" if args.trace else "perfbench")
    work_dir = os.path.join(BUILD_ROOT, "work-%d" % os.getpid())
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale,
               "--work_dir", work_dir, "--commit", source_id()]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S),
             1)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail("%s exited with %d" % (args.workload, proc.returncode), 1)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line", 1)
    names = declared_metrics(args.workload, args.trace)
    if names is not None:
        missing = [n for n in names if n not in result["metrics"]]
        if missing:
            fail("%s reported no %s" % (args.workload, ", ".join(missing)), 1)
        report = json.loads(lines[-2][len("report "):])
        report["ungated_metrics"] = {k: v for k, v in result["metrics"].items()
                                     if k not in names}
        result["metrics"] = {n: result["metrics"][n] for n in names}
        lines[-2:] = ["report " + json.dumps(report), json.dumps(result)]
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
