#!/usr/bin/env python3
"""Auric's end-to-end benchmark: builds perfbench/ from source and runs it.

Run from the root of a checkout:

  python3 perfbench/run.py --workload serve|serve-hot|audit|replay --seed N --seconds S --trace 0|1
      One run. The last stdout line is the result JSON
      {"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
      end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
      --out FILE also saves {"stamp", "digests", "result"} for --compare.
  python3 perfbench/run.py --all [--seed N] [--seconds S]
      Every workload, untraced then traced (metrics, ladder and ledger);
      exits non-zero if any output check fails.
  python3 perfbench/run.py --selftest
      Builds and runs the harness tests.
  python3 perfbench/run.py --compare A.json B.json
      Compares two saved runs; refuses runs made on different core counts
      and exits 1 when their output digests differ.

Every run prints digests of its outputs (`digest <name> <hex>`). Each one
manifest.json records an expected value for is checked: a mismatch marks the
result incorrect, counts every attempted operation as failed and exits 1.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/).
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175
WORKLOADS = ("serve", "serve-hot", "audit", "replay")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_root():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return base if base.is_absolute() else ROOT / base


def build(target):
    """Configures once, then (re)builds `target`; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no Auric sources at {ROOT / 'src'}; nothing to build")
    build_dir = build_root() / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(build_dir), "--target", target, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir / target


def manifest():
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    with open(HERE / "manifest.json") as f:
        return bench, json.load(f)


def check_metrics(result, trace):
    """The result must carry exactly the metrics BENCHMARK.json names."""
    bench, _ = manifest()
    expected = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    problems = []
    for name, unit in expected.items():
        if name not in got:
            problems.append(f"missing metric {name}")
        elif got[name] != unit:
            problems.append(f"metric {name} has unit {got[name]}, expected {unit}")
    problems += [f"unexpected metric {name}" for name in got if name not in expected]
    return problems


def check_digests(workload, digests):
    """Compares the run's digests with the expected values in manifest.json."""
    _, meta = manifest()
    expected = meta["digests"].get(workload, {})
    checked = [name for name in digests if name in expected]
    problems = [f"digest {name} is {digests[name]}, expected {expected[name]}"
                for name in checked if digests[name] != expected[name]]
    if not checked:
        problems.append("no digest of this run has an expected value in manifest.json")
    return problems


def cmake_cache(key):
    cache = build_root() / "perfbench" / "CMakeCache.txt"
    try:
        for line in cache.read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return "unknown"


def run_stamp(world):
    """Where and on what a result was measured."""
    cpu = "unknown"
    try:
        match = re.search(r"model name\s*:\s*(.+)", Path("/proc/cpuinfo").read_text())
        cpu = match.group(1).strip() if match else cpu
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        compiler = subprocess.run([compiler, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True)
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            sources.update(str(path.relative_to(ROOT)).encode())
            sources.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": compiler,
        "git_commit": commit.stdout.strip() if commit.returncode == 0 else None,
        "source_sha256": sources.hexdigest(),
        **world,
    }


def run_once(workload, seed, seconds, trace, out=None):
    """One benchmark run; prints its report and returns (exit code, result)."""
    binary = build("perfbench")
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scratch", str(build_root() / "perfbench-state")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    world = {}
    digests = {}
    for line in lines[:-1]:
        print(line)
        if line.startswith("world: "):
            world = json.loads(line[len("world: "):])
        elif line.startswith("digest "):
            _, name, value = line.split()
            digests[name] = value
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{workload} run printed no result (exit code {proc.returncode})")
    problems = check_metrics(result, trace)
    if problems:
        fail("; ".join(problems))
    for problem in check_digests(workload, digests):
        print(f"CHECK FAILED: {problem}")
        result["correct"] = False
        result["failed"] = result["attempted"]
    stamp = run_stamp(world)
    print("stamp: " + json.dumps(stamp))
    if out:
        with open(out, "w") as f:
            json.dump({"stamp": stamp, "digests": digests, "result": result}, f, indent=2)
            f.write("\n")
    print(json.dumps(result))
    code = proc.returncode if proc.returncode != 0 else (0 if result["correct"] else 1)
    return code, result


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    if a["stamp"].get("nproc") != b["stamp"].get("nproc"):
        print(f"refusing to compare: {path_a} ran on {a['stamp'].get('nproc')} cores, "
              f"{path_b} on {b['stamp'].get('nproc')}", file=sys.stderr)
        return 2
    for key in ("workload", "trace", "carriers"):
        if a["stamp"].get(key) != b["stamp"].get(key):
            print(f"refusing to compare: {key} differs", file=sys.stderr)
            return 2
    for name, m in a["result"]["metrics"].items():
        other = b["result"]["metrics"].get(name)
        if other is None:
            continue
        ratio = other["value"] / m["value"] if m["value"] else float("nan")
        print(f"{name:34s} {m['value']:14.6g} {other['value']:14.6g} {m['unit']:6s} x{ratio:.4f}")
    code = 0
    for name, value in a.get("digests", {}).items():
        other = b.get("digests", {}).get(name)
        if other is not None and other != value:
            print(f"DIGEST DIFFERS: {name} {value} -> {other}")
            code = 1
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    if args.selftest:
        return subprocess.run([str(build("perfbench_tests"))], cwd=ROOT).returncode
    bench, meta = manifest()
    seed = args.seed if args.seed is not None else meta["default_seed"]
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if args.all:
        codes = [run_once(w, seed, seconds, trace)[0] for w in WORKLOADS for trace in (0, 1)]
        return max(codes)
    if not args.workload:
        parser.error("--workload, --all, --selftest or --compare is required")
    return run_once(args.workload, seed, seconds, args.trace, args.out)[0]


if __name__ == "__main__":
    sys.exit(main())
