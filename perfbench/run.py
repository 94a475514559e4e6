#!/usr/bin/env python3
"""Builds and runs the repo benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (and the library sources in
src/ it links) in Release mode into $CARGO_TARGET_DIR, or .bench_build when
that is unset, then runs the workload in its own process. The last line of
standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1); the units come from BENCHMARK.json. Exits
non-zero when the build fails, when any op fails or answers wrong, when an
end-to-end metric is missing or not above 0, or when the workload reports a
metric BENCHMARK.json does not name.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "Release"
# A run must end within 180 s; the window itself is --seconds long.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_root, env):
    """Configures and builds focus_perfbench; returns its path or None."""
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "focus_perfbench", "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True, env=env)
        if result.returncode != 0:
            log(result.stdout[-4000:])
            log("build step failed: " + " ".join(step))
            return None
    binary = os.path.join(build_dir, "focus_perfbench")
    return binary if os.path.exists(binary) else None


def source_revision():
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = result.stdout.split()
        if (result.returncode == 0 and len(lines) == 2 and
                os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return lines[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def check_result(result, spec, trace):
    """Checks the workload's result against BENCHMARK.json and adds units.

    The workload prints the metrics it measured as {name: value}. Every
    end-to-end metric must be there, finite and above 0 (an op that produced
    no samples reports none). A per-layer metric the workload does not
    measure reads 0. Returns (result with units, problems, unmeasured).
    """
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return result, ["result keys " + ",".join(sorted(result))], []
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    measured = result["metrics"]
    unknown = sorted(set(measured) - {m["name"] for m in expected})
    if unknown:
        problems.append("metrics not in BENCHMARK.json: " + ",".join(unknown))
    metrics, unmeasured = {}, []
    for m in expected:
        value = measured.get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            if not trace:
                problems.append("end-to-end metric %s not measured" % m["name"])
                continue
            unmeasured.append(m["name"])
            value = 0
        elif not trace and value <= 0:
            problems.append("end-to-end metric %s is %r" % (m["name"], value))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append(key)
    if not problems and result["attempted"] < 1:
        problems.append("no op attempted")
    return dict(result, metrics=metrics), problems, unmeasured


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload " + args.workload)
        return 2

    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    # Compiler and workload temporaries stay inside the checkout.
    tmpdir = os.path.join(build_root, "tmp")
    os.makedirs(tmpdir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmpdir)
    binary = build(build_root, env)
    if binary is None:
        return 1

    workdir = os.path.join(build_root, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir, "--build-type", BUILD_TYPE,
               "--rev", source_revision()]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        log("workload did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        if args.trace:
            spans = os.path.join(workdir, "spans.jsonl")
            if os.path.exists(spans):
                shutil.copy(spans, os.path.join(
                    build_root, "spans-%s-%d.jsonl" % (args.workload, args.seed)))
        shutil.rmtree(workdir, ignore_errors=True)

    lines = [line for line in run.stdout.splitlines() if line.strip()]
    if not lines:
        log("workload printed nothing (exit %d)" % run.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("last line is not JSON: " + lines[-1][:200])
        return 1
    result, problems, unmeasured = check_result(result, spec, args.trace)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    if unmeasured:
        log("not measured on %s (reported as 0): %s" %
            (args.workload, ", ".join(unmeasured)))
    if problems:
        log("result does not match BENCHMARK.json: " + "; ".join(problems))
        return 1
    if run.returncode != 0 or not result["correct"] or result["failed"] > 0:
        log("%d of %d ops failed or answered wrong (exit %d)" %
            (result["failed"], result["attempted"], run.returncode))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
