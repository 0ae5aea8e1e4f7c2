#!/usr/bin/env python3
"""Compare two checkouts on the benchmark in alternating pinned pairs.

Usage: python scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W
           --seeds A-B [--workload W2 ...] [--out BENCH_x.json]

For each workload and each seed from A to B, runs
`python3 perfbench/run.py --workload W --seed SEED --seconds S --trace 0`
once in each tree (the tree is the working directory), each run under
`taskset -c 1`.  S is run_seconds from the change tree's BENCHMARK.json,
which also says which way each metric is better.  The change runs first
for odd seeds and the parent first for even seeds, so that drift of the
machine favours neither side.  Writes one JSON file with, per workload
and end-to-end metric, the per-pair values of both sides, their medians,
the parent's quartiles and the number of pairs the change wins, plus the
attempted and failed counts of both sides.  The output must be a
BENCH_*.json outside any perfbench directory; the runs themselves write
only to each tree's .perfbench-work/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

CPU = "1"
SIDES = ("parent", "change")


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one benchmark run in tree."""
    argv = ["taskset", "-c", CPU, sys.executable, "perfbench/run.py",
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(argv[3:])} exited {out.returncode}:\n"
                         f"{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> list:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 5), round(q3, 5)]


def summarise(runs: dict, seeds: list, better: dict) -> dict:
    """runs[side] is the list of result lines, one per seed."""
    metrics = {}
    for name in runs["change"][0]["metrics"]:
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        lower = better.get(name, "lower") == "lower"
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        metrics[name] = {
            **values,
            "better": "lower" if lower else "higher",
            "parent_median": round(statistics.median(values["parent"]), 5),
            "change_median": round(statistics.median(values["change"]), 5),
            "parent_quartiles": quartiles(values["parent"]),
            "change_wins": wins,
            "of": len(seeds),
        }
    return {
        "pairs": len(seeds),
        "seeds": seeds,
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="A-B, inclusive")
    parser.add_argument("--out", type=Path, default=None,
                        help="default BENCH_pairs_<workloads>.json here")
    args = parser.parse_args(argv)
    out = args.out or Path(f"BENCH_pairs_{'_'.join(args.workload)}.json")
    if not (out.name.startswith("BENCH_") and out.suffix == ".json"):
        parser.error("--out must name a BENCH_*.json file")
    if "perfbench" in out.resolve().parts:
        parser.error("--out must not lie under a perfbench directory")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    trees = {"parent": args.parent, "change": args.change}
    doc = {
        "command": f"taskset -c {CPU} python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds} --trace 0",
        "protocol": "alternating pairs: the change ran first for odd seeds, the parent "
                    "first for even seeds; each side in its own tree",
        "workloads": {},
    }
    for workload in args.workload:
        runs = {side: [] for side in SIDES}
        for seed in args.seeds:
            order = ("change", "parent") if seed % 2 else ("parent", "change")
            for side in order:
                runs[side].append(run_once(trees[side], workload, seed, seconds))
            print(f"{workload} seed {seed} done", file=sys.stderr)
        doc["workloads"][workload] = summarise(runs, args.seeds, better)
        out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
