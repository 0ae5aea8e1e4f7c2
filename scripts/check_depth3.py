#!/usr/bin/env python3
"""Run the verdict at depth 3 (or another recorded depth) and check its
report against a recorded digest.

Usage: python scripts/check_depth3.py [DEPTH]

Runs `python -m ogpkit verify --depth DEPTH` (DEPTH 3 by default) on this
checkout's src in a child process, and prints each lemma's status,
instance count and report-entry sha256 (against LEMMA_SHA256[DEPTH], so
that a mismatch names the lemma that moved), the wall time and the child's
peak RSS; the last line of stdout holds those numbers as one JSON object.
Exits 0 when the run passed and its report's sha256 equals
REPORT_SHA256[DEPTH], and 1 otherwise, also for a depth with no recorded
digest.  The run takes about a minute at depth 3 and five at depth 4, so
it is a slow check outside the tier-1 tests.
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

# The sha256 of each lemma's entry in that report, as lemma_digest reads it.
LEMMA_SHA256 = {
    3: {
        "ATOM_CLOSURES":
            "f04e4412eba67c980d7e8c967caf3fa70e0a237554fab2b10accf949075fa97c",
        "CTX_RECURSION":
            "cc5b4423c1996d9d328e9f5d3a1d2a1efe200dda989235a357f3c282c4533b2c",
        "CYLINDERS":
            "408a308cdbc13a496e7cc2c33dd62f785e35ffcb8a69b7e8be6e108235428cac",
        "DIST_LOWER":
            "3f9032b16747d0a2340ff47f99c1f2793ddb415ba92ac0f52f3ce829a764431f",
        "ENTIRE_RESIDUAL":
            "65a47622c09f7e36623e6afe7c3c7cd5cfe6f02eafe827103b8e53e28cb346a7",
        "GENCP_BOUNDARY":
            "38d559af8d7c2550d3b5278339592270f4f5e418cd6a517a5c6bc9a2e8a4a00c",
        "GENCP_FORMULA":
            "0fa8ee514900d3f63985bcac31769afe31faad49772bcad1f48ffc0d48d10eb5",
        "GRAY_BOUNDARY":
            "dcaa983de302422213841567d48b96389ae422f3b9d3080da1ad794f1b18859f",
        "HORN_PP":
            "c4667e3b7ef4177372b969f5b5f7df718498dc7cfe38489802e3a0fb011c272a",
        "ISO_UNIQUE":
            "66f4ba7d21d7348d84c88e46864eec1ba8f3d6b36e7122428f4422d3b9d95900",
        "MARKED_HORN_PP":
            "d1d7aafaa10c5d2daa94d7187f23291d5e34fa180b61d77cb2be77728362ca07",
        "MUTATION":
            "f5aa852c1fd9163fcec28cc28d5b50175163b7dfe4600949b308e9b8ce09b943",
        "OP_HORN":
            "22ac78bacb204aad54de4286f0a66dd890255f87b0be6174ea912d15d2044626",
        "OP_PP":
            "c23fe48da6d40d6d2f8192eca167eda632b80a3f0b08af4696db89cce2f90f16",
        "OP_SWAP":
            "da0fc0ace231887e32a85a940df052d29dba198350e8b7b68a679a0478fbad7a",
    },
    4: {
        "ATOM_CLOSURES":
            "072e15d7fb63edb3e31fdb68e438b7a52befe22fb6505c1a5e13e1e4bbd95451",
        "CTX_RECURSION":
            "76e04e94156138f35967b5a9304febaa6b54db1ecbf1d186b9cac3ab14fbca9a",
        "CYLINDERS":
            "408a308cdbc13a496e7cc2c33dd62f785e35ffcb8a69b7e8be6e108235428cac",
        "DIST_LOWER":
            "9dc602504cc31b523aa9ab72dee1d9f11f6f64bea6313b756ccefbed1043ce67",
        "ENTIRE_RESIDUAL":
            "65a47622c09f7e36623e6afe7c3c7cd5cfe6f02eafe827103b8e53e28cb346a7",
        "GENCP_BOUNDARY":
            "dafd44fca181af90a7d4c19ebec9d553b7fae5ab66cf876f369e750128daf3a1",
        "GENCP_FORMULA":
            "e329187606aafd7665fce96ce295bd6fca6d95f11875304abb3edda26f2e94ba",
        "GRAY_BOUNDARY":
            "8d5eec74388199926aa1e31000f3945f28632ba6dc3f4417bfdc5147b398b585",
        "HORN_PP":
            "4b4415f89f441945b0651b20308aadf72852223c61d235a667d5efcd144cd005",
        "ISO_UNIQUE":
            "63e881465c27d57b2d6e9730af6c8ad6783d95bd3b36e649f7df626c6916b7dd",
        "MARKED_HORN_PP":
            "c5a2b30e6cf203bbfb9222070b7d44e1b1226f9cf4ff66b8460416842dda7a52",
        "MUTATION":
            "f5aa852c1fd9163fcec28cc28d5b50175163b7dfe4600949b308e9b8ce09b943",
        "OP_HORN":
            "34cfd3a2ecd3f459615b2ccdcdc4fab035700eefb5ca1301a53b34f5273bf249",
        "OP_PP":
            "c23fe48da6d40d6d2f8192eca167eda632b80a3f0b08af4696db89cce2f90f16",
        "OP_SWAP":
            "fb01bafc2e502db047b4d17ccb8dc2516eba531dfe16cced15f30c87636ad04a",
    },
}


def lemma_digest(report: dict) -> str:
    """The sha256 of one report entry, serialised with sorted keys."""
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


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
    recorded = LEMMA_SHA256.get(depth, {})
    lemma_digests = {r["lemma"]: lemma_digest(r) for r in reports}
    for r in reports:
        lemma = r["lemma"]
        verdict = ("no recorded digest" if lemma not in recorded
                   else "matches" if lemma_digests[lemma] == recorded[lemma] else "MISMATCH")
        print(f"{lemma:<16} {r['status']:<5} {r['instances']:>10,} instances"
              f"  sha256 {lemma_digests[lemma]}: {verdict}")
    print(f"wall {wall:.1f} s, peak RSS {peak_mb:.1f} MB, exit {proc.returncode}")
    matches = digest == REPORT_SHA256.get(depth)
    verdict = "matches" if matches else "MISMATCH" if depth in REPORT_SHA256 else "no recorded digest"
    print(f"report sha256 {digest}: {verdict}")
    print(json.dumps({
        "argv": argv, "exit": proc.returncode, "sha256": digest,
        "matches": matches, "wall_s": round(wall, 2),
        "peak_rss_mb": round(peak_mb, 1),
        "instances": {r["lemma"]: r["instances"] for r in reports},
        "lemma_sha256": lemma_digests,
    }, sort_keys=True))
    return 0 if proc.returncode == 0 and matches else 1


if __name__ == "__main__":
    sys.exit(main())
