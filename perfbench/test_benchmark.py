#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_benchmark.py [--update]

Run from the repository root. For every workload it makes two traced
runs with the pinned workload seed and checks that the exact per-layer
counts of pinned_counts.json repeat in both, and match the file. It then
checks that an untraced run passes its output checks, and that a run
whose first reference is deliberately corrupted fails them and exits
non-zero. --update rewrites pinned_counts.json from the first traced
run of each workload (for a change that moves the counts on purpose).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED = os.path.join(HERE, "pinned_counts.json")
COUNTS = ["svd.events", "svd.filtered_events", "svd.pruned_events",
          "svd.cus_formed", "svd.violations", "svd.culog_entries",
          "shadow.pages", "analysis.proven_cus", "pdg.arcs", "cu.units",
          "serve.frames", "serve.wire_bytes_per_event"]


def run(workload, seed, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace)] + list(extra)
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = r.stdout.strip().split("\n")
    try:
        return r.returncode, json.loads(lines[-1])
    except ValueError:
        return r.returncode, None


def main():
    update = "--update" in sys.argv[1:]
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    with open(PINNED) as f:
        pinned = json.load(f)
    seed = pinned["seed"]
    errors = []

    for w in workloads:
        got = []
        for _ in range(2):
            rc, res = run(w, seed, 1)
            if rc != 0 or res is None or not res["correct"]:
                errors.append("%s: traced run failed (exit %d)" % (w, rc))
                break
            got.append({k: res["metrics"][k]["value"] for k in COUNTS})
        if len(got) < 2:
            continue
        if got[0] != got[1]:
            errors.append("%s: counts differ between runs: %s vs %s"
                          % (w, got[0], got[1]))
        if update:
            pinned["counts"][w] = got[0]
        elif got[0] != pinned["counts"].get(w):
            errors.append("%s: counts %s differ from pinned %s"
                          % (w, got[0], pinned["counts"].get(w)))
        print("%s: counts repeat%s" % (w, "" if update else " and match"))

    for w in workloads:
        rc, res = run(w, seed, 0)
        if rc != 0 or res is None or not res["correct"] or res["failed"]:
            errors.append("%s: clean run did not pass its checks" % w)
        rc, res = run(w, seed, 0, ["--corrupt-reference"])
        if rc == 0 or res is None or res["correct"] or not res["failed"]:
            errors.append("%s: corrupted reference was not detected" % w)
        print("%s: clean run passes, corrupted reference fails" % w)

    if update:
        with open(PINNED, "w") as f:
            json.dump(pinned, f, indent=2, sort_keys=True)
            f.write("\n")
    for e in errors:
        print("FAIL: " + e)
    print("ok" if not errors else "%d failure(s)" % len(errors))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
