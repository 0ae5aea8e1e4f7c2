"""Partial Gray cylinders, their one-sided inverted variants, higher
invertor shapes, collapse projections, and unit/unitor shapes.

The partial cylinder I (x)_K U on U, for a closed K, is the Gray product
of the arrow I with U, with both end copies of K glued onto K and its
middle copy dropped.  The inverted variants reverse one end copy of each
top cell, so that the top cells witness one-sided invertibility.  K is a
mask of U's ids, decoded to labels only for certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BadCollapseSet,
    BadProjection,
    KNotClosed,
    NotComposable,
    NotRewritable,
    NotRound,
    ZeroDimensional,
)
from .gray import gray_poset
from .molecule import Molecule, arrow, is_round
from .poset import MINUS, PLUS, OgPoset, bits, map_mask, same_ids

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
    poset, collapse = _cylinder_poset(p, K, "plain")
    cert = {"kind": "cylinder", "K": p.sids(K), "of": u.certificate}
    result = Molecule(poset, cert)
    result.provenance["cylinder"] = {"base": u, "K": K, "variant": "plain",
                                     "collapse": collapse}
    return result


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
    poset, collapse = _cylinder_poset(p, K, side)
    cert = {"kind": "inverted-cylinder", "side": side, "K": p.sids(K), "of": u.certificate}
    result = Molecule(poset, cert)
    result.provenance["cylinder"] = {"base": u, "K": K, "variant": side,
                                     "collapse": collapse}
    return result


def invertor_shape(s: str, u: Molecule) -> Molecule:
    """Iterated inverted cylinders indexed by a string over {L, R}.

    The empty string gives U back; "Ls" is the left-inverted cylinder on
    the "s" shape relative to its full output boundary, "Rs" the
    right-inverted one relative to the input boundary.
    """
    if any(ch not in "LR" for ch in s):
        raise BadCollapseSet(f"invertor string must be over L/R, got {s!r}")
    if not is_round(u):
        raise NotRound("invertor shapes are defined on round molecules")
    if s == "":
        return u
    inner = invertor_shape(s[1:], u)
    sign = PLUS if s[0] == "L" else MINUS
    K = inner.poset.boundary_mask(inner.poset.full, inner.dim - 1, sign)
    result = inverted_cylinder(inner, K, s[0])
    result.provenance["invertor"] = {"base": u, "s": s, "inner": inner}
    return result


@dataclass
class Projection:
    """Surjective collapse map of a cylinder or invertor shape onto its
    base: ids is the id image, the target id of each source id."""

    source: Molecule
    target: Molecule
    ids: list

    def __post_init__(self):
        src, tgt = self.source.poset, self.target.poset
        ids = self.ids
        if len(ids) != len(src) or min(ids, default=0) < 0 or max(ids, default=-1) >= len(tgt):
            raise BadProjection("projection must be total")
        if len(set(ids)) != len(tgt):
            raise BadProjection("projection must be surjective")
        for i, (d, j) in enumerate(zip(src.dims, ids)):
            if d < tgt.dims[j]:
                raise BadProjection(
                    f"projection must not raise the dimension of {src.labels[i]}")

    def preserves_closures(self) -> bool:
        """Image of a closure is the closure of the image, elementwise."""
        ids = self.ids
        src_cl = self.source.poset.closure_masks()
        tgt_cl = self.target.poset.closure_masks()
        return all(map_mask(c, ids) == tgt_cl[j] for c, j in zip(src_cl, ids))

    def compose(self, other: "Projection") -> "Projection":
        if not same_ids(other.source.poset, self.target.poset):
            raise NotComposable("projection: the second source is not the first target")
        return Projection(self.source, other.target, [other.ids[j] for j in self.ids])


def projection(c: Molecule) -> Projection:
    """Collapse map tau of a cylinder, or tau_s of an invertor shape."""
    if "invertor" in c.provenance:
        info = c.provenance["invertor"]
        if info["s"] == "":
            return Projection(c, info["base"], list(range(len(c))))
        return _one_step_projection(c).compose(projection(info["inner"]))
    if "cylinder" in c.provenance:
        return _one_step_projection(c)
    # a shape that is its own trivial cylinder (s = "", or K = U collapse)
    return Projection(c, c, list(range(len(c))))


def _one_step_projection(c: Molecule) -> Projection:
    info = c.provenance["cylinder"]
    proj = Projection(c, info["base"], info["collapse"])
    if not proj.preserves_closures():
        raise BadProjection("cylinder projection must respect closures")
    return proj


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
    full boundary of u less the hole's elements outside its rim.
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
    K = p.full_boundary_mask() & ~(hole & ~rim)
    if not p.is_closed_mask(K):
        raise KNotClosed("unitor collapse set is not closed")
    return gray_cylinder(u, K)
