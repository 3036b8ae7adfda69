#!/usr/bin/env python3
"""Compares benchmark results recorded by run.py.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the results.jsonl lines run.py appends. For every
(workload, trace mode, metric) both files measured, prints each side's
median and quartiles over its runs and the ratio of the medians. A
metric is reported as not comparable when the two sides' host
fingerprints (CPU model, nproc, compiler, build type) differ, or when
either side mixes fingerprints; the commit and source digest may differ,
since they name the code under comparison rather than the host.
"""

import json
import statistics
import sys

HOST_KEYS = ("cpu_model", "nproc", "compiler", "build_type")


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs.setdefault((r["workload"], r["trace"]), []).append(r)
    return runs


def host(runs):
    hosts = {tuple(r["fingerprint"][k] for k in HOST_KEYS) for r in runs}
    return hosts.pop() if len(hosts) == 1 else None


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return statistics.median(values), q[0], q[2]


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    for key in sorted(set(base) & set(new)):
        b, n = base[key], new[key]
        hb, hn = host(b), host(n)
        print("%s (trace %d): %d vs %d runs"
              % (key[0], key[1], len(b), len(n)))
        if hb is None or hn is None or hb != hn:
            print("  not comparable: host fingerprints differ (%s vs %s)"
                  % (hb or "mixed", hn or "mixed"))
            continue
        for name in sorted(set(b[0]["metrics"]) & set(n[0]["metrics"])):
            unit = b[0]["metrics"][name]["unit"]
            mb, b1, b3 = summary([r["metrics"][name]["value"] for r in b])
            mn, n1, n3 = summary([r["metrics"][name]["value"] for r in n])
            ratio = mn / mb if mb else float("nan")
            print("  %-36s %14.6g [%.6g, %.6g] -> %14.6g [%.6g, %.6g] %s"
                  "  x%.4f" % (name, mb, b1, b3, mn, n1, n3, unit, ratio))
    return 0


if __name__ == "__main__":
    sys.exit(main())
