"""Test-side oracle for molecule.find_derivation: a derivation replayed
from its hole outward.  It shares no code with the peel search; it reads
only boundaries and closedness from the poset."""

from ogpkit.poset import MINUS, PLUS


def replay_derivation(p, hole: int, steps, expect: int) -> bool:
    """Re-evaluate a derivation from the hole outward and check it lands on
    the expected carrier, re-validating every pasting precondition.

    hole and expect are masks of p, and the steps are dicts as
    find_derivation returns them.  Every carrier on the way must be
    closed; boundaries are read from p.  A hole or step with bits outside
    p does not replay.
    """
    carrier = hole
    if carrier & ~p.full or not p.is_closed_mask(carrier):
        return False
    for step in steps:
        shared, removed, piece = step["shared"], step["removed"], step["piece"]
        if (shared | removed | piece) & ~p.full:
            return False
        attach_sign = PLUS if step["side"] == "right" else MINUS
        if shared & ~p.boundary_mask(carrier, step["k"], attach_sign):
            return False
        if removed & carrier:
            return False
        carrier |= piece
        if not p.is_closed_mask(carrier):
            return False
    return carrier == expect
