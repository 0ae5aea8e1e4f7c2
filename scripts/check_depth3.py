#!/usr/bin/env python3
"""Run the depth-3 verdict and check its report against a recorded digest.

Usage: python scripts/check_depth3.py

Runs `python -m ogpkit verify --depth 3` on this checkout's src in a child
process, and prints each lemma's status and instance count, the wall time
and the child's peak RSS; the last line of stdout holds those numbers as
one JSON object.  Exits 0 when the run passed and its report's sha256
equals REPORT_SHA256, and 1 otherwise.  The run takes minutes, so it is a
slow check outside the tier-1 tests.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ARGV = ["verify", "--depth", "3"]
# The report of `ogpkit verify --depth 3` (md5 18d027467e5b26513a6bb244a3d0e7c1),
# recorded before the boundary reads went grade by grade; every lemma passes.
REPORT_SHA256 = "e24cbdb2228568f225d16e6399bcf57a024d38434136c5330e4e4e87b7a44157"


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "ogpkit", *ARGV],
                          capture_output=True, env=env, cwd=ROOT)
    wall = time.perf_counter() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    digest = hashlib.sha256(proc.stdout).hexdigest()
    try:
        reports = json.loads(proc.stdout)["reports"]
    except (ValueError, KeyError):
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        print(f"no report (exit {proc.returncode})")
        return 1
    for r in reports:
        print(f"{r['lemma']:<16} {r['status']:<5} {r['instances']:>10,} instances")
    print(f"wall {wall:.1f} s, peak RSS {peak_mb:.1f} MB, exit {proc.returncode}")
    matches = digest == REPORT_SHA256
    print(f"report sha256 {digest}: {'matches' if matches else 'MISMATCH'}")
    print(json.dumps({
        "argv": ARGV, "exit": proc.returncode, "sha256": digest,
        "matches": matches, "wall_s": round(wall, 2),
        "peak_rss_mb": round(peak_mb, 1),
        "instances": {r["lemma"]: r["instances"] for r in reports},
    }, sort_keys=True))
    return 0 if proc.returncode == 0 and matches else 1


if __name__ == "__main__":
    sys.exit(main())
