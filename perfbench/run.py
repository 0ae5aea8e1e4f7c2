#!/usr/bin/env python3
"""ogpkit benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  Every
measured pass runs in a fresh process.  With --trace 0 the run repeats
passes for about S seconds (at least MIN_PASSES), times the reference loop
between them, and prints the end-to-end metrics; with --trace 1 it makes a
traced pass between two untraced ones and prints the per-layer metrics.
Every pass is checked against the goldens in perfbench/goldens.  A
human-readable report goes to stderr; the last line of stdout is the JSON
result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spec
import tracer

ROOT = spec.HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
CHILD = spec.HERE / "child.py"
REFERENCE = spec.HERE / "reference.py"
# Normalised times are seconds on a machine whose reference loop takes this
# long, about its median on the machine in meta.json.
REFERENCE_S = 0.6

MIN_PASSES = 3
SETUP_REPS = 15
WORKLOADS = (*spec.VERIFY, *spec.CATALOG, *spec.SHAPES)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, stdout_path=None):
    """Run argv to completion; returns (exit code, wall seconds, peak RSS MB)."""
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if stdout_path:
            out.close()
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def reference():
    """Seconds the reference loop takes now, in a fresh process."""
    proc = subprocess.run([sys.executable, str(REFERENCE)], capture_output=True,
                          text=True, check=True, cwd=ROOT)
    return float(proc.stdout)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_golden(goldens: Path, name: str):
    with open(goldens / name) as fh:
        return json.load(fh)


@dataclass
class Pass:
    wall_s: float
    rss_mb: float
    attempted: int
    failed: int
    latencies: list     # seconds per command


# -- workloads ----------------------------------------------------------------


class Verify:
    """`ogpkit verify` over a lemma subset; items are lemma instances."""

    def __init__(self, workload, seed, goldens):
        self.argv = spec.verify_argv(workload, seed)
        seeded = spec.VERIFY[workload][4]
        key = str(spec.mutation_seed(seed)) if seeded else "default"
        self.golden = load_golden(goldens, "verify.json")[workload][key]

    def items(self):
        return sum(g["instances"] for g in self.golden["lemmas"].values())

    def run(self, index, spans=None):
        out = WORK / "verify.json"
        out.unlink(missing_ok=True)
        if spans is None:
            code, wall, rss = spawn([sys.executable, "-m", "ogpkit", *self.argv], out)
        else:
            code, wall, rss = spawn([sys.executable, str(CHILD), "--trace", str(spans),
                                     "verify", str(out), *self.argv])
        attempted = self.items()
        failed = attempted if code != 0 else self.check(out.read_bytes())
        return Pass(wall, rss, attempted, failed, [wall])

    def check(self, data):
        """Instances of lemmas whose report differs from the golden."""
        if sha256(data) == self.golden["report_sha256"]:
            return 0
        try:
            reports = {r["lemma"]: r for r in json.loads(data)["reports"]}
        except (ValueError, KeyError, TypeError):
            return self.items()
        failed = 0
        for lemma, g in self.golden["lemmas"].items():
            got = reports.get(lemma)
            if got is None or sha256(json.dumps(got, sort_keys=True).encode()) != g["sha256"]:
                failed += g["instances"]
        # a report that differs outside its lemma entries fails as a whole
        return failed or self.items()


class Catalog:
    """harness.enumerate_catalog; items are catalog entries."""

    def __init__(self, workload, seed, goldens):
        self.bounds = spec.CATALOG[workload]
        self.golden = load_golden(goldens, "catalog.json")[workload]

    def items(self):
        return len(self.golden)

    def run(self, index, spans=None):
        out = WORK / "catalog.json"
        out.unlink(missing_ok=True)
        argv = [sys.executable, str(CHILD)]
        if spans is not None:
            argv += ["--trace", str(spans)]
        argv += ["catalog", *map(str, self.bounds), str(out)]
        code, wall, rss = spawn(argv)
        attempted = self.items()
        failed = attempted
        if code == 0:
            got = json.loads(out.read_text())
            failed = sum(a != b for a, b in zip(got, self.golden))
            failed = min(attempted, failed + abs(len(got) - len(self.golden)))
        return Pass(wall, rss, attempted, failed, [wall])


class Shapes:
    """A stream of single-shape commands through cli.main in one process;
    items are commands."""

    def __init__(self, workload, seed, goldens):
        self.workload, self.seed = workload, seed
        self.pool = load_golden(goldens, "shapes.json")["pool"]
        self.streams = {0: spec.shapes_stream(self.pool, workload, seed, 0)}

    def items(self):
        return len(self.streams[0])

    def run(self, index, spans=None):
        if index not in self.streams:
            self.streams[index] = spec.shapes_stream(self.pool, self.workload,
                                                     self.seed, index)
        stream = self.streams[index]
        commands, out = WORK / "commands.json", WORK / "shapes.json"
        commands.write_text(json.dumps([e["argv"] for e in stream]))
        out.unlink(missing_ok=True)
        argv = [sys.executable, str(CHILD)]
        if spans is not None:
            argv += ["--trace", str(spans)]
        argv += ["shapes", str(commands), str(out)]
        code, wall, rss = spawn(argv)
        attempted = len(stream)
        if code != 0:
            return Pass(wall, rss, attempted, attempted, [wall])
        results = json.loads(out.read_text())
        failed = attempted - len(results)
        latencies = []
        for entry, (exit_code, digest, elapsed) in zip(stream, results):
            failed += exit_code != entry["exit"] or digest != entry["sha256"]
            latencies.append(elapsed)
        return Pass(wall, rss, attempted, failed, latencies)


def make_workload(name, seed, goldens):
    if name in spec.VERIFY:
        return Verify(name, seed, goldens)
    if name in spec.CATALOG:
        return Catalog(name, seed, goldens)
    return Shapes(name, seed, goldens)


# -- metrics ------------------------------------------------------------------


def high_percentile(samples):
    """(percentile, value): p99 when at least ten samples lie beyond it,
    else the median, the highest percentile a short sample supports."""
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 1000:
        rank = -(-99 * n // 100)    # nearest rank, 1-based
        return 99, ordered[rank - 1]
    return 50, statistics.median(ordered)


def setup(name, seed, goldens):
    """Build the inputs and import ogpkit in a fresh process, SETUP_REPS
    times after one warm-up import; returns the workload and the times."""
    importer = [sys.executable, "-c", "import ogpkit.cli"]
    if spawn(importer)[0] != 0:
        raise RuntimeError("cannot import ogpkit from " + str(SRC))
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        workload = make_workload(name, seed, goldens)
        code = spawn(importer)[0]
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError("cannot import ogpkit from " + str(SRC))
    return workload, times


def end_to_end(passes, setup_times, refs, items):
    """Samples of each end-to-end metric and of the raw timings behind them:
    two dicts of name -> (samples, unit).  refs are the reference times
    before the set-ups and after the set-ups and each pass; a phase's scale
    is REFERENCE_S over the mean of the two around it.  Every metric reports
    the median of its samples except cmd_p99_norm_ms."""
    scales = [2 * REFERENCE_S / (a + b) for a, b in zip(refs, refs[1:])]
    setup_scale, pass_scales = scales[0], scales[1:]
    walls = [p.wall_s * k for p, k in zip(passes, pass_scales)]
    norm_ms = [1000 * x * k for p, k in zip(passes, pass_scales) for x in p.latencies]
    metrics = {
        "setup_s": ([t * setup_scale for t in setup_times], "s"),
        "wall_norm_s": (walls, "s"),
        "items_per_norm_s": ([items / w for w in walls], "1/s"),
        "cmd_p50_norm_ms": (norm_ms, "ms"),
        "cmd_p99_norm_ms": (norm_ms, "ms"),
        "peak_rss_mb": ([p.rss_mb for p in passes], "MB"),
    }
    raw = {
        "reference_s": (refs, "s"),
        "setup_s": (setup_times, "s"),
        "wall_s": ([p.wall_s for p in passes], "s"),
        "items_per_s": ([items / p.wall_s for p in passes], "1/s"),
        "cmd_ms": ([1000 * x for p in passes for x in p.latencies], "ms"),
    }
    return metrics, raw


def summarise(metrics, raw):
    """Metric values from end_to_end() samples; prints median, high
    percentile and sample count of each, raw timings too, to stderr."""
    values = {}
    for label, samples in (("", metrics), ("raw ", raw)):
        for name, (xs, unit) in samples.items():
            median = statistics.median(xs)
            pct, high = high_percentile(xs)
            if samples is metrics:
                values[name] = (high if name == "cmd_p99_norm_ms" else median, unit)
            print(f"  {label + name:20s} median {median:14.6f}  p{pct} {high:14.6f}  "
                  f"n={len(xs)}  {unit}", file=sys.stderr)
    return values


def per_layer(stats, passes):
    """Per-layer metrics from the traced pass's span statistics; passes are
    untraced, traced, untraced."""
    names = [t[2] for t in tracer.TARGETS if t[2] != "harness.check"]
    metrics = {}
    for name in names:
        s = stats.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        metrics[f"{name}.calls"] = (s["calls"], "count")
        metrics[f"{name}.self_s"] = (s["self_s"], "s")
    for name in OUTER_ENTRY_POINTS:
        metrics[f"{name}.total_s"] = (stats.get(name, {}).get("total_s", 0.0), "s")

    def ratio(name, key):
        s = stats.get(name)
        return (s[key] / s["calls"] if s and s["calls"] else 0.0, "ratio")

    metrics["poset.find_iso.hit_ratio"] = ratio("poset.find_iso", "value")
    metrics["molecule.reconstruct.ok_ratio"] = ratio("molecule.reconstruct", "value")
    metrics["molecule.reconstruct.repeat_ratio"] = ratio("molecule.reconstruct", "repeat")
    metrics["molecule.find_derivation.found_ratio"] = ratio("molecule.find_derivation", "value")
    metrics["molecule.find_derivation.bound_exceeded"] = (
        stats.get("molecule.find_derivation", {}).get("bound", 0), "count")
    metrics["gray.gray_poset.repeat_ratio"] = ratio("gray.gray_poset", "repeat")
    for lemma in LEMMAS:
        s = stats.get(f"harness.{lemma}", {})
        metrics[f"harness.{lemma}.total_s"] = (s.get("total_s", 0.0), "s")
        metrics[f"harness.{lemma}.instances"] = (s.get("instances", 0), "count")
    untraced = (passes[0].wall_s + passes[2].wall_s) / 2
    metrics["trace_overhead_s"] = (passes[1].wall_s - untraced, "s")
    return metrics


OUTER_ENTRY_POINTS = ("cli.main", "exprlang.eval_text", "harness.enumerate_catalog",
                      "molecule.reconstruct", "molecule.find_derivation",
                      "molecule.recognise_generalised_pasting",
                      "contexts.is_a_context", "marked.pushout_product",
                      "gray.gray_poset")
LEMMAS = spec.PRODUCT_LEMMAS + spec.SEARCH_LEMMAS


def report(passes, metrics):
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"failed_share {failed / attempted:.6f} ({failed}/{attempted})",
          file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--goldens", type=Path, default=spec.GOLDENS,
                        help="directory of golden files (default perfbench/goldens)")
    args = parser.parse_args(argv)
    # a terminated run stops the pass it is waiting for (see spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "ogpkit" / "__init__.py").is_file():
        print(f"no ogpkit sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # The runner, the reference loops and the passes all run on one cpu:
    # the two cpus of a shared machine change speed separately, so a
    # reference timed on the other cpu says little about a pass.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    print(f"workload {args.workload} seed {args.seed}; python "
          f"{sys.version.split()[0]}, {os.cpu_count()} cpus", file=sys.stderr)
    if args.trace:
        workload = make_workload(args.workload, args.seed, args.goldens)
        # untraced passes on both sides of the traced one, against drift
        spans = WORK / "spans.bin"
        passes = [workload.run(0), workload.run(0, spans), workload.run(0)]
        metrics = per_layer(tracer.aggregate(spans), passes)
        for key, (value, unit) in metrics.items():
            print(f"  {key:52s} {value:14.6f} {unit}", file=sys.stderr)
    else:
        # The reference loop runs before and after the set-ups and after
        # every pass.  Each phase's timings are scaled by REFERENCE_S over
        # the mean of the two reference times around it, which divides out
        # the machine's speed, which changes from one pass to the next.
        # Another pass starts while it would end less than half a pass late.
        refs = [reference()]
        workload, setup_times = setup(args.workload, args.seed, args.goldens)
        refs.append(reference())
        passes = []
        t0 = time.perf_counter()
        while len(passes) < MIN_PASSES or (
                (time.perf_counter() - t0) * (1 + 1 / (2 * len(passes))) < args.seconds):
            passes.append(workload.run(len(passes)))
            refs.append(reference())
        metrics = summarise(*end_to_end(passes, setup_times, refs, workload.items()))
    report(passes, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
