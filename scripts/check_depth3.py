#!/usr/bin/env python3
"""Run the verdict at depth 3 (or another recorded depth) and check its
report against a recorded digest.

Usage: python scripts/check_depth3.py [DEPTH]

Runs `python -m ogpkit verify --depth DEPTH` (DEPTH 3 by default) on this
checkout's src in a child process, and prints each lemma's status and
instance count, the wall time and the child's peak RSS; the last line of
stdout holds those numbers as one JSON object.  Exits 0 when the run passed
and its report's sha256 equals REPORT_SHA256[DEPTH], and 1 otherwise,
also for a depth with no recorded digest.  The run takes minutes at depth 3
and about eight at depth 4, so it is a slow check outside the tier-1 tests.
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
# The report of `ogpkit verify --depth D` per depth D; every lemma passes.
# Depth 3 (md5 18d027467e5b26513a6bb244a3d0e7c1) was recorded before the
# boundary reads went grade by grade, depth 4 (md5
# ae6189f22d37387179354f6bbd8770cc) before OP_SWAP's second face formula.
REPORT_SHA256 = {
    3: "e24cbdb2228568f225d16e6399bcf57a024d38434136c5330e4e4e87b7a44157",
    4: "3d9d9253996fc9bbd1e56866a284883c5668af9a351e67aa24f984307910a180",
}


def main() -> int:
    args = sys.argv[1:]
    if len(args) > 1 or args and not args[0].isdigit():
        sys.stderr.write(__doc__)
        return 2
    depth = int(args[0]) if args else 3
    argv = ["verify", "--depth", str(depth)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "ogpkit", *argv],
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
    matches = digest == REPORT_SHA256.get(depth)
    verdict = "matches" if matches else "MISMATCH" if depth in REPORT_SHA256 else "no recorded digest"
    print(f"report sha256 {digest}: {verdict}")
    print(json.dumps({
        "argv": argv, "exit": proc.returncode, "sha256": digest,
        "matches": matches, "wall_s": round(wall, 2),
        "peak_rss_mb": round(peak_mb, 1),
        "instances": {r["lemma"]: r["instances"] for r in reports},
    }, sort_keys=True))
    return 0 if proc.returncode == 0 and matches else 1


if __name__ == "__main__":
    sys.exit(main())
