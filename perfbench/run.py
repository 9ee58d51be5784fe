#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the treebeard libraries and the
perfbench binary from source (CMake, Release) under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, checks that every metric BENCHMARK.json names was measured
with its declared unit, and prints one JSON object as the last line of
stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Untraced runs (--trace 0) report the end-to-end metrics, traced runs
(--trace 1) the per-layer ones. A per-layer metric of a layer the
workload bypasses (perfbench/layers.json lists who moves what) reads 0.
The full result, with run metadata (host CPU, nproc, compiler and flags,
build type, git sha, seed, sample counts) and the benchmark's
definition, is written to <build dir>/results/.

Exits nonzero when an output check fails, an operation fails, or a
declared metric is missing, and without a result when the treebeard
sources are not next to this directory.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Longest the workload binary may run once built.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    """Configure once, then bring the perfbench target up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"treebeard sources not found under {ROOT}/src")
        sys.exit(2)
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        log(f"configuring in {bdir}")
        subprocess.run(
            ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(bdir, "perfbench")


def host_metadata():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "git_sha": sha,
            "python": platform.python_version()}


def declared(definition, layers, workload, trace, raw):
    """The declared metric set of this run, filled from @p raw."""
    names = definition["per_layer" if trace else "end_to_end"]
    metrics = {}
    errors = []
    for entry in names:
        name, unit = entry["name"], entry["unit"]
        got = raw.get(name)
        if got is None:
            moved_on = layers["per_layer"].get(name, {}).get("workloads", [])
            if trace and workload not in moved_on:
                metrics[name] = {"value": 0, "unit": unit}
            else:
                errors.append(f"metric {name} was not measured")
            continue
        value = got.get("value")
        if got.get("unit") != unit:
            errors.append(f"metric {name} has unit {got.get('unit')!r}, "
                          f"declared {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"metric {name} is not a finite number: {value!r}")
            continue
        metrics[name] = {"value": value, "unit": unit}
    for name in raw:
        if not any(entry["name"] == name for entry in names):
            errors.append(f"metric {name} is measured but not declared")
    return metrics, errors


def main():
    # A SIGTERM unwinds through subprocess.run, which kills and reaps
    # the workload binary before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="tree-count scale, below 1 for quick checks")
    parser.add_argument("--corrupt", action="store_true",
                        help="flip one prediction bit (self-test)")
    args = parser.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    definition = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    layers = load_json(os.path.join(HERE, "layers.json"))
    if args.workload not in [w["name"] for w in definition["workloads"]]:
        log(f"unknown workload {args.workload!r}")
        sys.exit(2)

    results = os.path.join(bdir, "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # The source JIT writes its translation units under TMPDIR; keep
    # them inside the build directory and drop them after the run.
    tmpdir = os.path.join(bdir, "tmp", str(os.getpid()))
    os.makedirs(tmpdir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--scale", str(args.scale)]
    if args.trace:
        command += ["--trace-file", os.path.join(results, stem + ".spans.json")]
    if args.corrupt:
        command.append("--corrupt")
    started = time.time()
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              env=dict(os.environ, TMPDIR=tmpdir),
                              timeout=RUN_TIMEOUT_S, check=False)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"perfbench exited {proc.returncode} without a report")
        sys.exit(1)
    raw = json.loads(lines[-1])

    metrics, errors = declared(definition, layers, args.workload,
                               args.trace, raw["metrics"])
    errors = raw["errors"] + errors
    correct = raw["correct"] and not errors
    result = {"correct": correct, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    record = {
        "result": result,
        "errors": errors,
        "run": {"workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "scale": args.scale, "wall_s": time.time() - started,
                "samples": raw["samples"]},
        "host": host_metadata(),
        "build": raw["build"],
        "definition": {"benchmark": definition, "layers": layers},
    }
    with open(os.path.join(results, stem + ".json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for error in errors:
        log(f"check failed: {error}")
    print(json.dumps(result), flush=True)
    ok = correct and raw["failed"] == 0 and proc.returncode == 0
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
