#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program (perfbench/bench, linked
against ../src) is built with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). The run prints a host fingerprint, a
metric table and, as its last line, one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics
and writes a Chrome trace, validated with the repository's
svd-json-check. Every result is also appended, with its fingerprint, to
results.jsonl in the build directory (see compare.py).

Exit status: 0 when every output check passed, 1 when a check failed,
2 when the program could not be built or run.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("repository sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode:
            shutil.rmtree(out, ignore_errors=True)
            die("cmake configure failed")
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        die("build failed")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    """sha256 over the sources the program is built from (src/, perfbench/)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                if name.endswith(".pyc") or not os.path.isfile(path):
                    continue
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def fingerprint(build_info):
    """Host identity: results compare only when these fields match.
    The commit and source digest identify the code, not the host."""
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": build_info.get("compiler", "unknown"),
        "build_type": build_info.get("build_type", "unknown"),
        "commit": commit(),
        "source_sha256": source_digest(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="perturb the first reference output (self-test)")
    a = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload '%s'" % a.workload)
    wanted = spec["per_layer" if a.trace else "end_to_end"]

    out = build_dir()
    build(out)
    trace_path = os.path.join(out, "trace-%s-%d.json" % (a.workload, a.seed))
    cmd = [os.path.join(out, "svd-perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace)]
    if a.trace:
        cmd += ["--trace-out", trace_path]
    if a.corrupt_reference:
        cmd.append("--corrupt-reference")
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("svd-perfbench timed out after %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(r.stderr)
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        res = json.loads(lines[-1])
    except ValueError:
        die("svd-perfbench printed no result (exit %d)" % r.returncode)
    if r.returncode not in (0, 1):
        die("svd-perfbench failed with exit %d" % r.returncode)

    failures = list(res["failures"])
    if a.trace:
        chk = subprocess.run([os.path.join(out, "svd-json-check"), trace_path],
                             capture_output=True, text=True)
        if chk.returncode:
            failures.append("chrome trace: " + chk.stderr.strip())
    metrics = {}
    for m in wanted:
        got = res["metrics"].get(m["name"])
        if got is None or got["value"] is None or got["unit"] != m["unit"]:
            die("svd-perfbench did not measure %s in %s"
                % (m["name"], m["unit"]))
        metrics[m["name"]] = got
    correct = res["correct"] and not failures and r.returncode == 0

    fp = fingerprint(res["build"])
    for line in lines[:-1]:
        print(line)
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    for name, m in metrics.items():
        print("  %-36s %18.6f %s" % (name, m["value"], m["unit"]))
    failed_ratio = res["failed"] / max(1, res["attempted"])
    print("  %-36s %18.6f %s" % ("failed_ratio", failed_ratio, "fraction"))
    for f in failures:
        print("FAILED: " + f)
    with open(os.path.join(out, "results.jsonl"), "a") as f:
        f.write(json.dumps({"fingerprint": fp, "workload": a.workload,
                            "seed": a.seed, "seconds": a.seconds,
                            "trace": a.trace, "correct": correct,
                            "attempted": res["attempted"],
                            "failed": res["failed"],
                            "metrics": metrics}, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
