#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny bounds.

    python3 perfbench/smoke.py

Run from the root of a checkout.  Checks that:
- a run prints every end-to-end metric of BENCHMARK.json, and a traced run
  every per-layer metric, each with its unit, and both fail nothing;
- a tampered golden makes the run count failures, so the correctness
  check can fail;
- without the program's sources the benchmark exits non-zero and prints
  no result.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import spec
from run import ROOT, WORK

RUN = [sys.executable, str(spec.HERE / "run.py"), "--seconds", "0.1"]


def run(*args, cwd=ROOT):
    proc = subprocess.run([*RUN, *args], capture_output=True, text=True, cwd=cwd)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def expect(ok, what, problems):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def main():
    problems = []
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        wanted = {m["name"]: m["unit"] for m in bench[section]}
        for workload in ("smoke-verify", "smoke-shapes"):
            code, result = run("--workload", workload, "--seed", "3", "--trace", trace)
            got = {k: v["unit"] for k, v in (result or {}).get("metrics", {}).items()}
            expect(code == 0 and got == wanted,
                   f"{workload} --trace {trace} prints every {section} metric with its unit",
                   problems)
            expect(bool(result) and result["failed"] == 0 and result["correct"],
                   f"{workload} --trace {trace} fails nothing", problems)

    tampered = WORK / "tampered-goldens"
    shutil.rmtree(tampered, ignore_errors=True)
    shutil.copytree(spec.GOLDENS, tampered)
    verify = json.loads((tampered / "verify.json").read_text())
    key = str(spec.mutation_seed(3))
    verify["smoke-verify"][key]["lemmas"]["MUTATION"]["sha256"] = "0" * 64
    verify["smoke-verify"][key]["report_sha256"] = "0" * 64
    (tampered / "verify.json").write_text(json.dumps(verify))
    shapes = json.loads((tampered / "shapes.json").read_text())
    victim = spec.shapes_stream(shapes["pool"], "smoke-shapes", 3, 0)[0]
    for entry in shapes["pool"]:
        if entry["argv"] == victim["argv"]:
            entry["sha256"] = "0" * 64
    (tampered / "shapes.json").write_text(json.dumps(shapes))
    for workload in ("smoke-verify", "smoke-shapes"):
        code, result = run("--workload", workload, "--seed", "3", "--trace", "0",
                           "--goldens", str(tampered))
        expect(code == 0 and result["failed"] > 0 and not result["correct"],
               f"{workload} with a tampered golden counts failures", problems)

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(spec.HERE, bare / spec.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{spec.HERE.name}/run.py", "--workload",
                           "shapes", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=bare, timeout=180)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without sources the benchmark exits non-zero and prints no result", problems)
    shutil.rmtree(bare)
    shutil.rmtree(tampered)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
