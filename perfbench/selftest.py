#!/usr/bin/env python3
"""Self-test of the repository benchmark at tiny scale.

Runs every workload twice untraced and twice traced with one seed and a
few pipelines, and fails unless

  * every run reports correct outputs;
  * runs of the same kind report identical deterministic counts (records,
    decision points, extractions, checkpoints written, WAL bytes, label
    bytes, replayed and re-fed records, operations attempted and failed,
    ...) and identical fingerprints;
  * the traced runs report the untraced runs' counts and fingerprints
    (the traced run adds label bytes, which only it reads).

Usage, from the root of a checkout:  python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("live_scoring", "durable_recovery", "lineage_queries",
             "sharded_ingest")
SEED = 7
# How many passes fit in the time is not deterministic; everything else is.
VARIABLE_COUNTS = {"passes"}


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "0.5",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s trace=%d exited with %d"
                           % (workload, trace, proc.returncode))
    lines = proc.stdout.strip().split("\n")
    report = json.loads(lines[-2][len("report "):])
    result = json.loads(lines[-1])
    counts = {k: v for k, v in report["counts"].items()
              if k not in VARIABLE_COUNTS}
    counts["attempted"] = result["attempted"]
    counts["failed"] = result["failed"]
    return result, counts, report["fingerprints"], report["mismatches"]


def main():
    problems = []
    for workload in WORKLOADS:
        runs = [run(workload, 0), run(workload, 0), run(workload, 1),
                run(workload, 1)]
        for (result, _, _, mismatches), label in zip(
                runs, ("untraced #1", "untraced #2", "traced #1",
                       "traced #2")):
            if not result["correct"]:
                problems.append("%s %s: incorrect outputs %s"
                                % (workload, label, mismatches))
        pairs = (("untraced runs", runs[0], runs[1]),
                 ("traced runs", runs[2], runs[3]))
        for label, (_, counts_a, prints_a, _), (_, counts_b, prints_b, _) \
                in pairs:
            if counts_a != counts_b or prints_a != prints_b:
                problems.append("%s: %s differ: %s / %s vs %s / %s"
                                % (workload, label, counts_a, prints_a,
                                   counts_b, prints_b))
        (_, counts_u, prints_u, _), (_, counts_t, prints_t, _) = \
            runs[0], runs[2]
        shared = {k: v for k, v in counts_t.items() if k in counts_u}
        if shared != counts_u or prints_t != prints_u:
            problems.append("%s: traced run differs: %s / %s vs %s / %s"
                            % (workload, counts_t, prints_t, counts_u,
                               prints_u))
        print("%-17s counts %s fingerprints %s"
              % (workload, counts_t, prints_t))
    for problem in problems:
        print("FAIL: " + problem)
    print("self-test %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
