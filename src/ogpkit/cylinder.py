"""Partial Gray cylinders, their one-sided inverted variants, higher
invertor shapes, and unit/unitor shapes.

The partial cylinder I (x)_K U on U, for a closed K, is the Gray product
of the arrow I with U, with both end copies of K glued onto K and its
middle copy dropped.  The inverted variants reverse one end copy of each
top cell, so that the top cells witness one-sided invertibility.  K is a
mask of U's ids, decoded to labels only for certificates.  Each cylinder
records its collapse onto U, the projection tau, as an id image in
provenance["collapse"]; collapse_defect checks those images on masks.
"""

from __future__ import annotations

from .errors import (
    BadCollapseSet,
    KNotClosed,
    NotRewritable,
    NotRound,
    ZeroDimensional,
)
from .gray import gray_poset
from .molecule import Molecule, arrow, is_round
from .poset import MINUS, PLUS, OgPoset, bits, map_mask

_ARROW = arrow().poset  # ids 0-, 0+, 1 = 0, 1, 2


def _cylinder_poset(p: OgPoset, K: int, variant: str) -> tuple:
    """The cylinder on p collapsing the closed mask K, as a quotient of
    G = I (x) p; variant is "plain", "L" or "R".  Returns the cylinder and
    its collapse map onto p as an id image.

    G has the copy (i, x) at id i * |p| + x.  The cylinder keeps K's ids
    in base order, then (0-, x), (0+, x), (1, x) for each other x; it
    sends (0-, y) and (0+, y) onto y for y in K and drops (1, y), and each
    face mask is G's carried along that image.  "L" reverses the (0+, x)
    copy of each top cell x, "R" the (0-, x) copy, and that copy's bit
    moves across the faces of (1, x).  The collapse image of G's id e is
    e % |p|.
    """
    np_ = len(p)
    g = gray_poset(_ARROW, p)
    kept = bits(K)
    order = kept + [e for x in range(np_) if not K >> x & 1
                    for e in (x, np_ + x, 2 * np_ + x)]
    image = [-1] * len(g)
    for new, e in enumerate(order):
        image[e] = new
    for y in kept:
        image[np_ + y] = image[y]
    keep = ~(K << 2 * np_)
    fin = [map_mask(g.fin[e] & keep, image) for e in order]
    fout = [map_mask(g.fout[e] & keep, image) for e in order]
    if variant != "plain":
        copy, read = (np_, p.fin) if variant == "L" else (0, p.fout)
        for x in bits(p.grade_masks()[p.dim]):
            if read[x] & K:
                raise BadCollapseSet("collapse set meets a face of a reversed top cell")
            c, t = image[copy + x], image[2 * np_ + x]
            fin[c], fout[c] = fout[c], fin[c]
            fin[t] ^= 1 << c
            fout[t] ^= 1 << c
    poset = OgPoset([g.dims[e] for e in order], fin, fout,
                    lambda: tuple([p.labels[e] if K >> e & 1 else g.labels[e] for e in order]))
    return poset, [e % np_ for e in order]


def _cylinder(u: Molecule, K: int, variant: str, cert: dict) -> Molecule:
    """The cylinder on u collapsing K, recording its collapse onto u as
    provenance["collapse"] = (u, id image)."""
    poset, collapse = _cylinder_poset(u.poset, K, variant)
    result = Molecule(poset, cert)
    result.provenance["collapse"] = (u, collapse)
    return result


def gray_cylinder(u: Molecule, K: int) -> Molecule:
    """The partial Gray cylinder I (x)_K U for a closed mask K of U's ids;
    K = U collapses to U itself."""
    p = u.poset
    if K & ~p.full:
        raise BadCollapseSet("collapse set has ids outside the base")
    if not p.is_closed_mask(K):
        raise KNotClosed("collapse set must be closed")
    if K == p.full:
        return u
    return _cylinder(u, K, "plain", {"kind": "cylinder", "K": p.sids(K), "of": u.certificate})


def inverted_cylinder(u: Molecule, K: int, side: str) -> Molecule:
    """Left- or right-inverted partial Gray cylinder on a molecule of
    dimension n >= 1, for a closed mask K inside bd_(n-1)^+ ("L") or
    bd_(n-1)^- ("R")."""
    if side not in ("L", "R"):
        raise BadCollapseSet(f"side must be L or R, got {side!r}")
    if u.dim < 1:
        raise ZeroDimensional("inverted cylinders need dimension >= 1")
    p = u.poset
    bound = p.boundary_mask(p.full, u.dim - 1, PLUS if side == "L" else MINUS)
    if K & ~bound or not p.is_closed_mask(K):
        raise BadCollapseSet(
            f"collapse set must be a closed subset of the {'output' if side == 'L' else 'input'} boundary"
        )
    return _cylinder(u, K, side, {"kind": "inverted-cylinder", "side": side, "K": p.sids(K),
                                  "of": u.certificate})


def whole_inverted_cylinder(u: Molecule, side: str) -> Molecule:
    """The inverted cylinder on the whole (n-1)-boundary of u: the output
    for side "L", the input for "R"."""
    p = u.poset
    K = p.boundary_mask(p.full, u.dim - 1, PLUS if side == "L" else MINUS)
    return inverted_cylinder(u, K, side)


def invertor_shape(s: str, u: Molecule) -> Molecule:
    """Iterated inverted cylinders indexed by a string over {L, R}.

    The empty string gives U back; "Ls" is the left-inverted cylinder on
    the "s" shape relative to its full output boundary, "Rs" the
    right-inverted one relative to the input boundary.  Each of the len(s)
    steps records its collapse, so collapse_defect(q, len(s)) checks the
    projection tau_s onto U.
    """
    if any(ch not in "LR" for ch in s):
        raise BadCollapseSet(f"invertor string must be over L/R, got {s!r}")
    if not is_round(u):
        raise NotRound("invertor shapes are defined on round molecules")
    if s == "":
        return u
    return whole_inverted_cylinder(invertor_shape(s[1:], u), s[0])


def _image_defect(src: OgPoset, tgt: OgPoset, ids: list):
    """None when the id image ids from src onto tgt is total, surjective,
    raises no dimension and carries closures onto closures; else the
    first defect."""
    if len(ids) != len(src) or min(ids, default=0) < 0 or max(ids, default=-1) >= len(tgt):
        return "projection must be total"
    if len(set(ids)) != len(tgt):
        return "projection must be surjective"
    for i, (d, j) in enumerate(zip(src.dims, ids)):
        if d < tgt.dims[j]:
            return f"projection must not raise the dimension of {src.labels[i]}"
    tgt_cl = tgt.closure_masks()
    if any(map_mask(c, ids) != tgt_cl[j] for c, j in zip(src.closure_masks(), ids)):
        return "projection must respect closures"
    return None


def collapse_defect(c: Molecule, steps: int):
    """None when the collapses recorded on c and on the bases below it,
    steps of them, and then their composite onto the last base, are each
    a projection (see _image_defect); else the first defect."""
    composite = list(range(len(c)))
    top = c
    for _ in range(steps):
        base, ids = c.provenance["collapse"]
        defect = _image_defect(c.poset, base.poset, ids)
        if defect:
            return defect
        composite = [ids[j] for j in composite]
        c = base
    return _image_defect(top.poset, c.poset, composite)


# -- units and unitors ---------------------------------------------------


def unit_shape(u: Molecule) -> Molecule:
    """Cylinder collapsed over the whole boundary: the shape of u => u."""
    return gray_cylinder(u, u.poset.full_boundary_mask())


def unitor_shape(u: Molecule, side: str) -> Molecule:
    """Cylinder collapsed over everything but the open part of the hole,
    the whole input (side "left") or output (side "right") boundary of u.

    u must be round, as for invertor_shape.  With n = dim u, the hole is
    bd_(n-1)^sign u, round because u is (its lower boundaries are u's, by
    globularity), and its rim bd_(n-2)^- hole u bd_(n-2)^+ hole; K is the
    full boundary of u less the hole's elements outside its rim, a closed
    set for round u (gray_cylinder raises KNotClosed otherwise).
    """
    if side not in ("left", "right"):
        raise NotRewritable(f"side must be left or right, got {side!r}")
    if not is_round(u):
        raise NotRound("unitor shapes are defined on round molecules")
    p = u.poset
    n = u.dim
    bd = p.boundary_mask
    hole = bd(p.full, n - 1, MINUS if side == "left" else PLUS)
    rim = bd(hole, n - 2, MINUS) | bd(hole, n - 2, PLUS)
    return gray_cylinder(u, p.full_boundary_mask() & ~(hole & ~rim))
