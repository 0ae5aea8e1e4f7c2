"""Partial Gray cylinders, their one-sided inverted variants, higher
invertor shapes, collapse projections, and unit/unitor shapes.

A partial cylinder on U relative to a closed K glues the K-part of two
parallel copies of U: elements are pairs (i, x) for x outside K with i one
of the arrow's elements, plus the K elements themselves.  The inverted
variants reorient the top dimension so that the top cells witness one-sided
invertibility; only their printed exceptional clauses differ from the plain
orientation.
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
)
from .ids import sid
from .molecule import Inclusion, Molecule, is_round
from .poset import MINUS, PLUS, OgPoset, bits, build, map_mask, same_ids

I_SRC = "0-"
I_MID = "1"
I_TGT = "0+"


def _cylinder_poset(p: OgPoset, K: frozenset, variant: str) -> tuple:
    """Shared construction; variant is "plain", "L", or "R".  Returns the
    cylinder and its collapse map onto p as an id image: an element of K
    and each (i, x) go to the id of x, recorded as the elements are
    numbered."""
    n = p.dim
    elements, faces = {}, {}
    collapse = []
    # K in the base's id order, so the ids do not depend on the hash seed
    for y in sorted(K, key=p.index.__getitem__):
        elements[y] = p.dim_of[y]
        collapse.append(p.index[y])
        if p.dim_of[y] > 0:
            faces[y] = (set(p.faces(y, MINUS)), set(p.faces(y, PLUS)))

    def side_copy(i, x, sign):
        """Faces of (i, x) for i an endpoint, the plain rule."""
        return {(i, y) for y in p.faces(x, sign) - K} | (p.faces(x, sign) & K)

    for x_id, (x, dx) in enumerate(p.dim_of.items()):
        if x in K:
            continue
        top = dx == n and variant != "plain"
        for i in (I_SRC, I_TGT):
            e = (i, x)
            elements[e] = dx
            collapse.append(x_id)
            if dx == 0:
                continue
            if top and variant == "L" and i == I_TGT:
                # left-inverted: the far copy of a top cell is reversed
                faces[e] = (side_copy(i, x, PLUS), side_copy(i, x, MINUS))
            elif top and variant == "R" and i == I_SRC:
                faces[e] = (side_copy(i, x, PLUS), side_copy(i, x, MINUS))
            else:
                faces[e] = (side_copy(i, x, MINUS), side_copy(i, x, PLUS))
        e = (I_MID, x)
        elements[e] = dx + 1
        collapse.append(x_id)
        if top and variant == "L":
            fin = {(I_SRC, x), (I_TGT, x)} | {(I_MID, y) for y in p.faces(x, PLUS) - K}
            fout = {(I_MID, y) for y in p.faces(x, MINUS)}
        elif top and variant == "R":
            fin = {(I_MID, y) for y in p.faces(x, PLUS)}
            fout = {(I_SRC, x), (I_TGT, x)} | {(I_MID, y) for y in p.faces(x, MINUS) - K}
        else:
            fin = {(I_SRC, x)} | {(I_MID, y) for y in p.faces(x, PLUS) - K}
            fout = {(I_TGT, x)} | {(I_MID, y) for y in p.faces(x, MINUS) - K}
        faces[e] = (fin, fout)
    return build(elements, faces), collapse


def gray_cylinder(u: Molecule, K) -> Molecule:
    """The partial Gray cylinder I (x)_K U; K = U collapses to U itself."""
    K = frozenset(K)
    for y in K:
        u.poset.id_of(y)
    if not u.poset.is_closed(K):
        raise KNotClosed("collapse set must be closed")
    if K == frozenset(u.poset.dim_of):
        return u
    poset, collapse = _cylinder_poset(u.poset, K, "plain")
    cert = {"kind": "cylinder", "K": sorted(map(sid, K)), "of": u.certificate}
    result = Molecule(poset, cert)
    result.provenance["cylinder"] = {"base": u, "K": K, "variant": "plain",
                                     "collapse": collapse}
    return result


def inverted_cylinder(u: Molecule, K, side: str) -> Molecule:
    """Left- or right-inverted partial Gray cylinder on a molecule."""
    if side not in ("L", "R"):
        raise BadCollapseSet(f"side must be L or R, got {side!r}")
    K = frozenset(K)
    for y in K:
        u.poset.id_of(y)
    bound = u.poset.boundary_set(u.dim - 1, PLUS if side == "L" else MINUS)
    if not (u.poset.is_closed(K) and K <= bound):
        raise BadCollapseSet(
            f"collapse set must be a closed subset of the {'output' if side == 'L' else 'input'} boundary"
        )
    poset, collapse = _cylinder_poset(u.poset, K, side)
    cert = {"kind": "inverted-cylinder", "side": side,
            "K": sorted(map(sid, K)), "of": u.certificate}
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
    K = inner.poset.boundary_set(inner.dim - 1, sign)
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
                    f"projection must not raise the dimension of {sid(src.labels[i])}")

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
    return gray_cylinder(u, u.poset.full_boundary_set())


def unitor_shape(u: Molecule, iota: Inclusion, side: str) -> Molecule:
    """Cylinder collapsed over everything but the open part of a rewritable
    hole in the input (side "left") or output (side "right") boundary."""
    if side not in ("left", "right"):
        raise NotRewritable(f"side must be left or right, got {side!r}")
    sign = MINUS if side == "left" else PLUS
    p = u.poset
    expected = p.boundary_mask(p.full, u.dim - 1, sign)
    if not same_ids(iota.target.poset, p.restrict_mask(expected)):
        raise NotRewritable("unitor inclusion must land in the matching boundary of u")
    if not iota.rewritable:
        raise NotRewritable("unitor hole must be rewritable")
    # the target's ids are the bits of expected in order
    hole_boundary = map_mask(iota.source.poset.full_boundary_mask(), iota.ids)
    interior = map_mask(iota.image & ~hole_boundary, bits(expected))
    K = p.full_boundary_mask() & ~interior
    if not p.is_closed_mask(K):
        raise KNotClosed("unitor collapse set is not closed")
    return gray_cylinder(u, p.decode(K))
