#!/usr/bin/env python3
"""Enumerate the shape catalog and dump one JSON line per entry.

Usage: python scripts/build_catalog.py [depth] [max_dim] [max_elements]

After the JSON lines, stderr gets what the bound costs: the wall time of
the enumeration, the entry count, and the sha256 of the expression list
(the expressions joined by newlines), which tests/test_harness.py pins for
some bounds.
"""

import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ogpkit.harness import Bounds, enumerate_catalog  # noqa: E402
from ogpkit.render import poset_to_dict  # noqa: E402


def main(argv):
    depth = int(argv[0]) if len(argv) > 0 else 2
    max_dim = int(argv[1]) if len(argv) > 1 else 4
    max_elements = int(argv[2]) if len(argv) > 2 else 16
    start = time.perf_counter()
    catalog = enumerate_catalog(Bounds(depth, max_dim, max_elements))
    wall = time.perf_counter() - start
    for entry in catalog.entries:
        doc = {
            "expr": entry.expr,
            "depth": entry.depth,
            "dim": entry.molecule.dim,
            "elements": len(entry.molecule),
            "atom": entry.molecule.is_atom(),
            "shape": poset_to_dict(entry.molecule),
        }
        print(json.dumps(doc, sort_keys=True))
    exprs = "\n".join(entry.expr for entry in catalog.entries)
    print(f"{len(catalog.entries)} catalog entries", file=sys.stderr)
    print(f"enumerated in {wall:.2f} s", file=sys.stderr)
    print(f"expressions sha256 {hashlib.sha256(exprs.encode()).hexdigest()}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
