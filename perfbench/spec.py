"""Workload definitions shared by the benchmark runner, the child
processes, the golden recorder and the smoke test.

Everything a run does is fixed here or derived from its --seed, so the same
seed always gives the same argv lists, command streams and goldens.
"""

from __future__ import annotations

import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens"

PRODUCT_LEMMAS = ("GRAY_BOUNDARY", "OP_SWAP", "ISO_UNIQUE", "OP_PP",
                  "ENTIRE_RESIDUAL", "CYLINDERS", "MUTATION")
SEARCH_LEMMAS = ("DIST_LOWER", "CTX_RECURSION", "GENCP_FORMULA", "GENCP_BOUNDARY",
                 "HORN_PP", "MARKED_HORN_PP", "OP_HORN", "ATOM_CLOSURES")

# (depth, max_dim, max_elems, lemmas, pass the MUTATION seed).  The bounds are
# below the CLI defaults so that one pass fits several times into a run.
VERIFY = {
    "verify-products": (2, 4, 10, PRODUCT_LEMMAS, True),
    "verify-search": (1, 4, 8, SEARCH_LEMMAS, False),
    "smoke-verify": (1, 4, 16, ("MUTATION",), True),
}
CATALOG = {"catalog-d3": (3, 4, 12)}

# Verify reports are recorded for this many MUTATION seeds; a run's seed is
# reduced modulo this count.
MUTATION_SEEDS = 8

# Shapes stream.  Every command kind of the CLI's single-shape commands (one
# example each in the README's usage) and every size class (elements of the
# largest shape the command builds) gets the same number of commands: no
# traffic data exists to weigh them by.  So a third of the commands are
# large, p50 falls among the medium ones and p99 among the slowest large
# ones.
SHAPE_KINDS = ("build", "check", "boundary", "iso", "horn", "pp-horn",
               "pp-marked-horn", "render")
SIZE_CLASSES = (("small", 16), ("medium", 120), ("large", 10**9))
# Per workload: commands per (kind, size class) in one pass, and the size
# classes drawn.  A cell's commands are distinct, so the count must not
# exceed the cell's pool in goldens/shapes.json.  `shapes` takes the whole
# pool of 16 per cell: its passes differ only in order, so that pass times
# differ by the machine and the program, not by which commands were drawn.
SHAPES = {
    "shapes": (16, ("small", "medium", "large")),
    "smoke-shapes": (5, ("small",)),
}


def size_class(elements: int) -> str:
    for name, limit in SIZE_CLASSES:
        if elements <= limit:
            return name
    raise ValueError(elements)


def mutation_seed(seed: int) -> int:
    return seed % MUTATION_SEEDS


def verify_argv(workload: str, seed: int) -> list:
    """Arguments after `ogpkit`, as a user would type them."""
    depth, max_dim, max_elems, lemmas, seeded = VERIFY[workload]
    argv = ["verify", "--depth", str(depth), "--max-dim", str(max_dim),
            "--max-elems", str(max_elems)]
    if seeded:
        argv += ["--seed", str(mutation_seed(seed))]
    for lemma in lemmas:
        argv += ["--lemma", lemma]
    return argv


def shapes_stream(pool: list, workload: str, seed: int, pass_index: int) -> list:
    """Pool entries for one pass: a fixed count per cell, drawn without
    replacement, and their order, all drawn from (seed, pass_index)."""
    per_cell, sizes = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    by_cell: dict = {}
    for entry in pool:
        by_cell.setdefault((entry["kind"], entry["size"]), []).append(entry)
    stream = []
    for kind in SHAPE_KINDS:
        for size in sizes:
            stream += rng.sample(by_cell[kind, size], per_cell)
    rng.shuffle(stream)
    return stream
