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
from .poset import MINUS, PLUS, OgPoset, build

I_SRC = "0-"
I_MID = "1"
I_TGT = "0+"


def _cylinder_poset(p: OgPoset, K: frozenset, variant: str) -> OgPoset:
    """Shared construction; variant is "plain", "L", or "R"."""
    n = p.dim
    elements, faces = {}, {}
    for y in K:
        elements[y] = p.dim_of[y]
        if p.dim_of[y] > 0:
            faces[y] = (set(p.faces(y, MINUS)), set(p.faces(y, PLUS)))

    def side_copy(i, x, sign):
        """Faces of (i, x) for i an endpoint, the plain rule."""
        return {(i, y) for y in p.faces(x, sign) - K} | (p.faces(x, sign) & K)

    for x, dx in p.dim_of.items():
        if x in K:
            continue
        top = dx == n and variant != "plain"
        for i in (I_SRC, I_TGT):
            e = (i, x)
            elements[e] = dx
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
    return build(elements, faces)


def gray_cylinder(u: Molecule, K) -> Molecule:
    """The partial Gray cylinder I (x)_K U; K = U collapses to U itself."""
    K = frozenset(K)
    for y in K:
        u.poset.id_of(y)
    if not u.poset.is_closed(K):
        raise KNotClosed("collapse set must be closed")
    if K == frozenset(u.poset.dim_of):
        return u
    poset = _cylinder_poset(u.poset, K, "plain")
    cert = {"kind": "cylinder", "K": sorted(map(sid, K)), "of": u.certificate}
    result = Molecule(poset, cert)
    result.provenance["cylinder"] = {"base": u, "K": K, "variant": "plain"}
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
    poset = _cylinder_poset(u.poset, K, side)
    cert = {"kind": "inverted-cylinder", "side": side,
            "K": sorted(map(sid, K)), "of": u.certificate}
    result = Molecule(poset, cert)
    result.provenance["cylinder"] = {"base": u, "K": K, "variant": side}
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
    """Surjective collapse map of a cylinder or invertor shape onto its base."""

    source: Molecule
    target: Molecule
    mapping: dict

    def __post_init__(self):
        src, tgt = self.source.poset, self.target.poset
        if self.mapping.keys() != src.index.keys():
            raise BadProjection("projection must be total")
        if set(self.mapping.values()) != tgt.element_set:
            raise BadProjection("projection must be surjective")
        src_dim, tgt_dim = src.dim_of, tgt.dim_of
        for x, y in self.mapping.items():
            if src_dim[x] < tgt_dim[y]:
                raise BadProjection(f"projection must not raise the dimension of {sid(x)}")

    def __getitem__(self, x):
        return self.mapping[x]

    def apply(self, subset):
        return frozenset(self.mapping[x] for x in subset)

    def preserves_closures(self) -> bool:
        """Image of a closure is the closure of the image, elementwise."""
        src, tgt = self.source.poset, self.target.poset
        return all(
            self.apply(src.closure({x})) == tgt.closure({self.mapping[x]})
            for x in src.dim_of
        )

    def compose(self, other: "Projection") -> "Projection":
        if not (other.source is self.target or other.source.poset == self.target.poset):
            raise NotComposable("projection: the second source is not the first target")
        return Projection(
            self.source, other.target,
            {x: other.mapping[y] for x, y in self.mapping.items()},
        )


def projection(c: Molecule) -> Projection:
    """Collapse map tau of a cylinder, or tau_s of an invertor shape."""
    if "invertor" in c.provenance:
        info = c.provenance["invertor"]
        if info["s"] == "":
            base = info["base"]
            return Projection(c, base, {x: x for x in c.poset.dim_of})
        inner = info["inner"]
        outer = _one_step_projection(c)
        return outer.compose(projection(inner))
    if "cylinder" in c.provenance:
        return _one_step_projection(c)
    # a shape that is its own trivial cylinder (s = "", or K = U collapse)
    return Projection(c, c, {x: x for x in c.poset.dim_of})


def _one_step_projection(c: Molecule) -> Projection:
    info = c.provenance["cylinder"]
    base = info["base"]
    mapping = {}
    for e in c.poset.dim_of:
        if isinstance(e, tuple) and len(e) == 2 and e[0] in (I_SRC, I_MID, I_TGT) \
                and e[1] in base.poset.dim_of and e[1] not in info["K"]:
            mapping[e] = e[1]
        else:
            mapping[e] = e
    proj = Projection(c, base, mapping)
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
    expected = u.poset.boundary_set(u.dim - 1, sign)
    if frozenset(iota.target.poset.dim_of) != expected:
        raise NotRewritable("unitor inclusion must land in the matching boundary of u")
    if not iota.rewritable:
        raise NotRewritable("unitor hole must be rewritable")
    hole_boundary = iota.apply(iota.source.poset.full_boundary_set())
    interior = iota.image - hole_boundary
    K = u.poset.full_boundary_set() - interior
    if not u.poset.is_closed(K):
        raise KNotClosed("unitor collapse set is not closed")
    return gray_cylinder(u, K)
