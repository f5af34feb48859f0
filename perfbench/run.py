#!/usr/bin/env python3
"""Runs one workload of the serving benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--record runs.jsonl]
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/; later calls reuse the build. The benchmark binary prints a
provenance line, a human-readable report and a RESULT line. An untraced
run splits its time over PROCESSES runs of the binary, one after the
other, with seeds derived from --seed, and takes each metric's median over
them; a traced run is one process. This script keeps the metrics
BENCHMARK.json declares (end-to-end ones with --trace 0, per-layer ones
with --trace 1) and prints them as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--record appends the full run record (provenance included) to a JSON-lines
file, the input of perfbench/compare.py.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
WORK = os.path.join(ROOT, ".bench_build", "run")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Most of the run-to-run spread on a shared host belongs to the process:
# two back-to-back runs of one seed differed by 30% in sharded_neighbors
# throughput while the windows inside each run stayed within 4%. The
# median over several processes takes that out.
PROCESSES = 4
# Compiler and tool temporaries stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=os.path.join(ROOT, ".bench_build", "tmp"))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; False on failure."""
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr, env=ENV,
                          timeout=BUILD_TIMEOUT_S).returncode:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, env=ENV,
                          timeout=BUILD_TIMEOUT_S).returncode == 0


def source_rev():
    """The git commit when run in a git checkout, plus a digest of the
    sources the benchmark builds (a checkout need not be a repository)."""
    rev = "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            rev = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", os.path.relpath(HERE, ROOT)):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return rev, h.hexdigest()[:16]


def select_metrics(spec, result, trace):
    """The declared metric set of this run kind, from the binary's result."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    measured = result["metrics"]
    metrics = {}
    for m in declared:
        name = m["name"]
        if name in measured:
            metrics[name] = {"value": measured[name]["value"], "unit": m["unit"]}
        elif trace:
            # A layer this workload does not exercise.
            metrics[name] = {"value": 0.0, "unit": m["unit"]}
        else:
            raise KeyError("end-to-end metric %s was not measured" % name)
    return metrics


def run_binary(args, seed, seconds, timeout):
    """One run of the benchmark binary: (provenance, result) or None."""
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(args.trace), "--work-dir", WORK]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=ENV,
                          timeout=timeout)
    sys.stderr.write(proc.stderr)
    provenance, result = {}, None
    for line in proc.stdout.splitlines():
        if line.startswith("PROVENANCE "):
            provenance = json.loads(line[len("PROVENANCE "):])
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if proc.returncode != 0 or result is None:
        log("perfbench: binary exited with %d and no result" % proc.returncode)
        return None
    return provenance, result


def combine(results):
    """One result from several processes' results: each metric's median,
    summed counts, correct and valid only if every process was."""
    metrics = {}
    for name, m in results[0]["metrics"].items():
        vals = [r["metrics"][name]["value"] for r in results
                if name in r["metrics"]]
        metrics[name] = {"value": statistics.median(vals), "unit": m["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "valid": all(r.get("valid", True) for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def selftest():
    if not build("perfbench_tests"):
        return 1
    rc = subprocess.run([os.path.join(BUILD, "perfbench_tests")]).returncode
    rc |= subprocess.run([sys.executable, "-m", "unittest", "-v",
                          "test_compare"], cwd=HERE).returncode
    return rc


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the run record to this JSONL file")
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's unit tests")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        ap.error("--workload is required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error("unknown workload %s" % args.workload)
    if not build("perfbench"):
        log("perfbench: build failed")
        return 1

    os.makedirs(WORK, exist_ok=True)
    processes = 1 if args.trace else PROCESSES
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = []
    for i in range(processes):
        print("== process %d of %d" % (i + 1, processes), flush=True)
        seed = args.seed if processes == 1 else args.seed * processes + i
        got = run_binary(args, seed, args.seconds / processes,
                         max(1.0, deadline - time.monotonic()))
        if got is None:
            return 1
        provenance, result = got
        results.append(result)
    result = combine(results)

    provenance["git_rev"], provenance["source_digest"] = source_rev()
    print("provenance:")
    for k, v in provenance.items():
        print("  %-14s %s" % (k, v))
    if provenance.get("build_type") != "Release":
        print("  WARNING: non-Release build; timings are not comparable")

    metrics = select_metrics(spec, result, args.trace)
    print("%s metrics:" % ("per-layer" if args.trace else "end-to-end"))
    for name, m in metrics.items():
        print("  %-34s %18.6f %s" % (name, m["value"], m["unit"]))
    out = {"correct": bool(result["correct"]),
           "attempted": int(result["attempted"]),
           "failed": int(result["failed"]),
           "metrics": metrics}
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "seconds": args.seconds,
                                "valid": bool(result.get("valid", True)),
                                "provenance": provenance, "result": out}) + "\n")
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
