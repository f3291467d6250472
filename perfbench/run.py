#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload and seed.

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

A run builds the perfbench binary from source (once per checkout, under .bench_build/),
runs it, checks that it reports exactly the metrics BENCHMARK.json declares
for the run's kind, each in its declared unit, and prints two lines: the binary's full result (checks,
provenance, sample counts, details) and, last, the summary line
{"correct", "attempted", "failed", "metrics"}. It exits 0 only when every
correctness check passed.

--selftest builds and runs the benchmark's own tests, then checks that the
binary's metric table and BENCHMARK.json declare the same metrics with the
same units and directions.
"""

import argparse
import fcntl
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / (os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir, targets, extra_args=()):
    """Configures (once) and builds `targets`; output goes to a log file."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir.parent / (build_dir.name + "-build.log")
    with open(build_dir.parent / (build_dir.name + ".lock"), "w") as lock, \
            open(log_path, "a") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release", *extra_args]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", str(build_dir), "-j",
                      str(os.cpu_count() or 1), "--target", *targets])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                log(f"build timed out: {' '.join(step)}")
                return False
            if done.returncode != 0:
                out.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                log("build failed: " + " ".join(step) + "\n" + "\n".join(tail))
                if len(steps) > 1 and step is steps[0]:
                    shutil.rmtree(build_dir, ignore_errors=True)
                return False
    return True


def declared_metrics():
    """{kind: {name: spec}} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def metric_problems(result, declared):
    """Problems with the metrics of one perfbench result, as strings: every
    metric of the result's kind declared in BENCHMARK.json must be there, in
    its unit, and nothing else."""
    problems = []
    kind = result.get("kind")
    if kind not in declared:
        return [f"unknown result kind {kind!r}"]
    metrics = result.get("metrics", {})
    for name in declared[kind]:
        if name not in metrics:
            problems.append(f"{name} is declared under {kind} but missing")
    for name, metric in metrics.items():
        spec = declared[kind].get(name)
        if spec is None:
            problems.append(f"{name} is not declared under {kind}")
        elif metric.get("unit") != spec["unit"]:
            problems.append(f"{name} has unit {metric.get('unit')!r}, "
                            f"declared {spec['unit']!r}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} has no finite value")
    return problems


def git_sha():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def run(args):
    build_dir = BUILD_ROOT / "perfbench"
    if not build(build_dir, ["perfbench"]):
        return 2
    results_dir = BUILD_ROOT / "perfbench-results"
    results_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    command = [str(build_dir / "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", str(BUILD_ROOT / "perfbench-work"),
               "--git-sha", git_sha()]
    if args.trace == 1:
        command += ["--spans-out", str(results_dir / f"{tag}.spans.jsonl")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 2
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"perfbench printed no result (exit {done.returncode})")
        return 2
    (results_dir / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")

    problems = metric_problems(result, declared_metrics())
    for problem in problems:
        log(f"CHECK FAILED: metric contract: {problem}")
    correct = bool(result.get("correct")) and done.returncode == 0 and not problems
    print(json.dumps(result))
    print(json.dumps({
        "correct": correct,
        "attempted": int(result.get("attempted", 0)),
        "failed": int(result.get("failed", 0)),
        "metrics": result.get("metrics", {}),
    }), flush=True)
    return 0 if correct else 1


NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def contract_problems(spec):
    """Violations of the BENCHMARK.json format limits, as strings."""
    problems = []
    expect = {"command", "paths", "run_seconds", "workloads", "end_to_end",
              "per_layer"}
    if set(spec) != expect:
        problems.append(f"top-level keys {sorted(spec)}")
    command = spec.get("command", [])
    if not (1 <= len(command) <= 32 and
            all(isinstance(c, str) and len(c) <= 200 for c in command)):
        problems.append("command")
    paths = spec.get("paths", [])
    if not (1 <= len(paths) <= 16 and all(
            PATH_RE.match(p) and not p.startswith("/") and ".." not in p
            for p in paths)):
        problems.append("paths")
    seconds = spec.get("run_seconds")
    if not (isinstance(seconds, int) and 1 <= seconds <= 60):
        problems.append("run_seconds")
    names = []
    workloads = spec.get("workloads", [])
    if not 2 <= len(workloads) <= 8:
        problems.append("number of workloads")
    for w in workloads:
        names.append(w.get("name"))
        why = w.get("why", "")
        if set(w) != {"name", "why"} or not why or len(why) > 200 or "\n" in why:
            problems.append(f"workload {w.get('name')}")
    for kind, keys, most in (("end_to_end", {"name", "unit", "better", "bound"}, 16),
                             ("per_layer", {"name", "unit", "better"}, 128)):
        metrics = spec.get(kind, [])
        if not 1 <= len(metrics) <= most:
            problems.append(f"number of {kind} metrics")
        for m in metrics:
            names.append(m.get("name"))
            if set(m) != keys or not UNIT_RE.match(str(m.get("unit"))) or \
                    m.get("better") not in ("lower", "higher"):
                problems.append(f"{kind} metric {m.get('name')}")
            if kind == "end_to_end" and not 0 < m.get("bound", 0) <= 0.25:
                problems.append(f"bound of {m.get('name')}")
    for name in names:
        if not isinstance(name, str) or not NAME_RE.match(name):
            problems.append(f"name {name!r}")
    if len(set(names)) != len(names):
        problems.append("names are not unique")
    setup = [m for m in spec.get("end_to_end", []) if m.get("name") == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s must be declared in s, lower is better")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s should carry the largest bound")
    return problems


def selftest():
    build_dir = BUILD_ROOT / "perfbench-tests"
    if not build(build_dir, ["perfbench", "perfbench_test"],
                 ["-DPERFBENCH_TESTS=ON"]):
        return 2
    failures = 0
    if subprocess.run([str(build_dir / "perfbench_test")]).returncode != 0:
        failures += 1

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for problem in contract_problems(spec):
        log(f"FAIL: BENCHMARK.json: {problem}")
        failures += 1

    # The binary's metric table and BENCHMARK.json must agree exactly.
    listed = subprocess.run([str(build_dir / "perfbench"), "--list-metrics"],
                            capture_output=True, text=True, check=True)
    table = [json.loads(line) for line in listed.stdout.splitlines() if line]
    declared = declared_metrics()
    workloads = {w["name"] for w in spec["workloads"]}
    seen = set()
    for row in table:
        seen.add((row["kind"], row["name"]))
        decl = declared.get(row["kind"], {}).get(row["name"])
        if decl is None:
            log(f"FAIL: perfbench metric {row['name']} is not in BENCHMARK.json "
                f"{row['kind']}")
            failures += 1
            continue
        for key in ("unit", "better"):
            if decl[key] != row[key]:
                log(f"FAIL: {row['name']} {key}: perfbench {row[key]!r}, "
                    f"BENCHMARK.json {decl[key]!r}")
                failures += 1
        listed_workloads = set(row["workloads"].split(","))
        for workload in listed_workloads - workloads:
            log(f"FAIL: {row['name']} names unknown workload {workload}")
            failures += 1
        if row["kind"] == "end_to_end" and listed_workloads != workloads:
            log(f"FAIL: end-to-end metric {row['name']} is not measured by "
                f"every workload")
            failures += 1
    for kind, names in declared.items():
        for name in names:
            if (kind, name) not in seen:
                log(f"FAIL: BENCHMARK.json {kind} metric {name} is never reported")
                failures += 1
    log("metric table matches BENCHMARK.json" if failures == 0
        else f"{failures} self-test failure(s)")
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
