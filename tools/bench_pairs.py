#!/usr/bin/env python3
"""Run perfbench in alternating pairs on two checkouts and compare them.

Each pair runs `perfbench/run.py --workload W [--seed S] --trace 0` once in
the parent checkout and once in this checkout (the change), in alternating
order (parent first on even pairs, change first on odd ones) so that drift
of the host falls on both sides alike. Each side builds into its own
CARGO_TARGET_DIR. run.py sets the run length (BENCHMARK.json's run_seconds)
and, unless --seed is given, the seed (perfbench/manifest.json's
default_seed). For every end-to-end metric of the change's BENCHMARK.json
it prints both sides' median and quartiles and the pairs the change won,
and it names each side's run with the median `cpu_ms_per_op`, the file to
keep under bench/trajectory/.

It stops without a report (exit 1) as soon as a run fails, computes other
output digests than its workload's first run, or ran on another core count
than the first run. For each side it records the commit, whether `git status
--porcelain` was clean and the source hash the runs were stamped with: a
run on an uncommitted tree is stamped with its HEAD commit, and only the
source hash tells the two apart.

Usage:
    tools/bench_pairs.py --parent DIR --workload serve [--workload serve-hot] \\
        [--pairs 10] [--seed N] --out-dir DIR \\
        [--trajectory bench/trajectory/BENCH_<n>]

`--parent` is a checkout of the parent commit made with `git clone` or
`git archive`. Every run's saved JSON goes to
--out-dir/<workload>/<side>_<pair>.json and the summary to
--out-dir/summary.json; --trajectory PREFIX also copies the median runs to
PREFIX_<workload>_{parent,change}.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(checkout, *args):
    proc = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def describe(checkout):
    """The commit a side runs and whether its tree matches that commit."""
    status = git(checkout, "status", "--porcelain")
    return {
        "path": str(checkout),
        "commit": git(checkout, "rev-parse", "HEAD"),
        "clean": status == "" if status is not None else None,
    }


def run(checkout, target_dir, workload, seed, out):
    """One untraced perfbench run; returns its saved {"stamp", "digests", "result"}."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0",
           "--out", str(out)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.DEVNULL)
    if not out.is_file():
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {checkout} saved no result "
                 f"(exit code {proc.returncode})")
    with open(out) as f:
        saved = json.load(f)
    if proc.returncode != 0 or not saved["result"].get("correct", False):
        sys.exit(f"bench_pairs: the run saved in {out} failed its checks "
                 f"(exit code {proc.returncode})")
    return saved


def refuse_unless_comparable(first_run, first_of_workload, this_run):
    """Exits when a run used another core count than the first run, or
    computed other outputs than its workload's first run."""
    out, saved = this_run
    if saved["stamp"].get("nproc") != first_run[1]["stamp"].get("nproc"):
        sys.exit(f"bench_pairs: refusing to report: {out} ran on {saved['stamp'].get('nproc')} "
                 f"cores, {first_run[0]} on {first_run[1]['stamp'].get('nproc')}")
    if first_of_workload and saved["digests"] != first_of_workload[1]["digests"]:
        sys.exit(f"bench_pairs: refusing to report: digests of {out} differ from "
                 f"{first_of_workload[0]}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def median_file(runs, files):
    """The file of the run with the median cpu_ms_per_op (the lower middle one)."""
    order = sorted(range(len(runs)),
                   key=lambda i: runs[i]["result"]["metrics"]["cpu_ms_per_op"]["value"])
    return files[order[(len(order) - 1) // 2]]


def compare_workload(workload, runs, files, metrics):
    """Prints one workload's table; returns its summary."""
    summary = {"metrics": {}, "median_cpu_run": {}}
    print(f"\n{workload}: {len(runs['parent'])} pairs")
    print(f"  {'metric':14s} {'parent median [q1, q3]':>30s} {'change median [q1, q3]':>30s}"
          f" {'delta':>8s} {'wins':>6s}")
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r["result"]["metrics"][name]["value"] for r in runs[side]]
                  for side in SIDES}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        row = {}
        for side in SIDES:
            q1, q3 = quartiles(values[side])
            row[side] = {"median": statistics.median(values[side]), "q1": q1, "q3": q3,
                         "values": values[side]}
        parent, change = row["parent"]["median"], row["change"]["median"]
        delta = (change - parent) / parent if parent else float("nan")
        row["wins"] = wins
        summary["metrics"][name] = row
        cells = [f"{row[s]['median']:.4g} [{row[s]['q1']:.4g}, {row[s]['q3']:.4g}]"
                 for s in SIDES]
        print(f"  {name:14s} {cells[0]:>30s} {cells[1]:>30s} {delta:+8.2%} "
              f"{wins:>3d}/{len(values['parent'])}")
    for side in SIDES:
        summary["median_cpu_run"][side] = str(median_file(runs[side], files[side]))
        print(f"  median cpu_ms_per_op run, {side}: {summary['median_cpu_run'][side]}")
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, help="default: run.py's, from perfbench/manifest.json")
    parser.add_argument("--out-dir", required=True, type=Path)
    parser.add_argument("--trajectory", help="copy the median runs to PREFIX_<workload>_<side>.json")
    args = parser.parse_args()

    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    with open(checkouts["change"] / "BENCHMARK.json") as f:
        metrics = json.load(f)["end_to_end"]
    out_dir = args.out_dir.resolve()
    summary = {"sides": {s: describe(checkouts[s]) for s in SIDES}, "workloads": {}}
    all_runs = []
    for workload in args.workload:
        runs = {s: [] for s in SIDES}
        files = {s: [] for s in SIDES}
        (out_dir / workload).mkdir(parents=True, exist_ok=True)
        first_of_workload = None
        for pair in range(args.pairs):
            for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                out = out_dir / workload / f"{side}_{pair}.json"
                saved = run(checkouts[side], out_dir / "target" / side, workload, args.seed, out)
                if all_runs:
                    refuse_unless_comparable(all_runs[0], first_of_workload, (out, saved))
                first_of_workload = first_of_workload or (out, saved)
                runs[side].append(saved)
                files[side].append(out)
                all_runs.append((out, saved))
                print(f"{workload} pair {pair} {side}: " + ", ".join(
                    f"{m['name']} {saved['result']['metrics'][m['name']]['value']:.4g}"
                    for m in metrics), flush=True)
        summary["workloads"][workload] = {"runs": runs, "files": files}

    summary["seed"] = all_runs[0][1]["stamp"].get("seed")
    for side in SIDES:
        hashes = {saved["stamp"].get("source_sha256")
                  for out, saved in all_runs if out.name.startswith(side + "_")}
        summary["sides"][side]["source_sha256"] = sorted(hashes)
        info = summary["sides"][side]
        print(f"{side}: {info['path']} at {info['commit']}"
              f"{'' if info['clean'] else ' (uncommitted changes)'}, sources "
              f"{', '.join(h[:12] for h in info['source_sha256'])}")

    for workload in args.workload:
        entry = summary["workloads"][workload]
        entry.update(compare_workload(workload, entry.pop("runs"), entry["files"], metrics))
        entry["files"] = {s: [str(f) for f in entry["files"][s]] for s in SIDES}
        if args.trajectory:
            for side in SIDES:
                dest = Path(f"{args.trajectory}_{workload}_{side}.json")
                shutil.copyfile(entry["median_cpu_run"][side], dest)
                print(f"  copied {entry['median_cpu_run'][side]} to {dest}")
    with open(out_dir / "summary.json", "w") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
