#!/usr/bin/env python3
"""Repository benchmark runner.

Builds the benchmark program (perfbench/CMakeLists.txt, which compiles the
rpx library from src/), runs one workload, checks its outputs against the
recorded references in perfbench/reference.json, and prints the result as
the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload hd_foveated --seed 1 --seconds 30 \
        --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 makes a traced run
that reports the per-layer metrics and writes a Chrome trace of the
benchmark's spans to .bench_out/. The exit code is 0 only when the build
succeeded and every output check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "rpx_perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build rpx_perfbench; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("error: the rpx sources (src/) are not next to perfbench/")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "rpx_perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            log("error: build step failed:", " ".join(cmd))
            return False
    return True


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_outputs(workload, seed, checks, reference):
    """Compare the run's fingerprints with the recorded references.

    Seed-independent fingerprints are checked on every run; a decoded-frame
    CRC that depends on the seeded scenes is checked for the seeds that
    have a recorded reference."""
    failures = []
    for key, want in reference[workload].items():
        if key == "crc32_by_seed":
            key, want = "crc32", want.get(str(seed))
            if want is None:
                continue
        got = checks.get(key)
        if got != want:
            failures.append("%s: got %r, reference %r" % (key, got, want))
    return failures


def update_reference(workload, seed, checks, reference):
    """Record this run's fingerprints as the reference."""
    entry = reference[workload]
    for key in entry:
        if key == "crc32_by_seed":
            entry[key][str(seed)] = checks["crc32"]
        else:
            entry[key] = checks[key]
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-reference", action="store_true",
                    help="record this run's fingerprints as the reference")
    args = ap.parse_args()

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            OUT_DIR, "%s-seed%d.trace.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("error: the workload did not finish within %ds" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("error: rpx_perfbench exited with code %d" % proc.returncode)
        return 1
    raw = json.loads(lines[-1])

    with open(REFERENCE) as f:
        reference = json.load(f)
    if args.workload not in reference:
        log("error: unknown workload %r" % args.workload)
        return 1
    if args.update_reference and not raw["problems"]:
        update_reference(args.workload, args.seed, raw["checks"], reference)

    failures = list(raw["problems"])
    failures += check_outputs(args.workload, args.seed, raw["checks"],
                              reference)
    for f in failures:
        log("check failed:", f)
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in raw["metrics"].items()}
    if got != want:
        log("error: reported metrics do not match BENCHMARK.json")
        log("  missing:", sorted(set(want) - set(got)))
        log("  extra:", sorted(set(got) - set(want)))
        return 1

    correct = not failures
    print("# %s seed=%d trace=%d checks=%s info=%s" % (
        args.workload, args.seed, args.trace, json.dumps(raw["checks"]),
        json.dumps(raw["info"])))
    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"] if correct else raw["attempted"],
        "metrics": raw["metrics"],
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
