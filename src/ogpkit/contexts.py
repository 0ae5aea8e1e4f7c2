"""Atomic horns, shape-level contexts with a one-hole carrier, restricted
context recognition against a marking, marked horns, and the horn
pushout-product identities.

A context is carried by a molecule with a distinguished rewritable hole.
Contexts are recognised, not built: recognition against a marking A peels
one atom at a time off the carrier, restricted to atoms whose top is in A;
the search is exhaustive over peel orders with memoisation, hence complete
at the sizes this package targets.

Contexts, derivations, horns and markings are masks of their shape's ids,
and a facet or the top of a step is an id; a step is a dict as
molecule.find_derivation returns it.  A marked horn is recognised on its
atom's own poset: the classified context is a closed subset of the atom,
so its search needs no context object.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BadHole,
    BadMarking,
    IdentityFailed,
    NotAContext,
    NotAFacet,
    RecognitionFailed,
)
from .gray import gray
from .marked import MarkedMap, MarkedShape, pushout_product
from .molecule import Molecule, find_derivation, is_round
from .poset import MINUS, PLUS, bits, preimage, spread


# -- context shapes -----------------------------------------------------------


@dataclass(eq=False)
class ContextShape:
    """Ambient molecule with a rewritable hole, a mask of the ambient's
    ids."""

    ambient: Molecule
    hole: int

    def __post_init__(self):
        p = self.ambient.poset
        hole = self.hole
        if hole & ~p.full:
            raise BadHole("hole has elements outside the ambient")
        if not p.is_closed_mask(hole):
            raise BadHole("hole must be closed")
        if p.dim_mask(hole) != p.dim:
            raise BadHole("hole must have full dimension")
        if not is_round(p, hole):
            raise BadHole("hole must be round")


# -- atomic horns --------------------------------------------------------------


@dataclass(eq=False)
class AtomicHorn:
    """The boundary of an atom minus one open facet, as a mask of the
    atom's ids."""

    shape: Molecule       # the atom U
    facet: int            # the id of x, a face of the top element
    sign: str             # the side of the top element x sits on
    horn: int             # bd U minus {x}

    def __post_init__(self):
        p = self.shape.poset
        if self.horn & ~p.full or not p.is_closed_mask(self.horn):
            raise BadHole("horn must be closed")


def atomic_horn(u: Molecule, x: int) -> AtomicHorn:
    """The horn of an atom at the facet of its top element with id x.

    The carrier is the full boundary minus the facet itself (equivalently
    the closure of the remaining facets), which is closed because the facet
    is maximal in the boundary.
    """
    if not u.is_atom() or u.dim < 1:
        raise NotAFacet("horns are defined on atoms of positive dimension")
    p = u.poset
    top = u.top_id()
    if not 0 <= x < len(p):
        raise NotAFacet(f"id {x} is not a facet of the top element")
    if p.fin[top] >> x & 1:
        sign = MINUS
    elif p.fout[top] >> x & 1:
        sign = PLUS
    else:
        raise NotAFacet(f"{p.labels[x]} is not a facet of the top element")
    return AtomicHorn(u, x, sign, p.full_boundary_mask() & ~(1 << x))


def classified_context(h: AtomicHorn) -> ContextShape:
    """The context seen through the missing facet: ambient is the boundary
    of the atom on the facet's side, the hole is the facet's closure."""
    u = h.shape
    p = u.poset
    carrier = p.boundary_mask(p.full, u.dim - 1, h.sign)
    # the boundary molecule's ids are the carrier's bits in order
    hole = preimage(p.closure_masks()[h.facet], bits(carrier))
    return ContextShape(u.boundary_molecule(u.dim - 1, h.sign), hole)


def is_a_context(c: ContextShape, marking: int) -> list | None:
    """Derivation of the context using only pastings of atoms whose top is
    marked, or None.  marking is a mask of positive-dimensional ids of the
    ambient.  Monotone in the marking."""
    p = c.ambient.poset
    if marking & ~(p.full & ~p.grade_masks()[0]):
        raise BadMarking("markings are positive-dimensional elements of the ambient")
    return find_derivation(p, p.full, c.hole, allowed=marking)


# -- marked horns --------------------------------------------------------------


@dataclass(eq=False)
class MarkedHorn:
    """A horn whose classified context is recognised against the marking,
    with the enlarged marking on the atom computed by the two-case rule.
    Both markings are masks of the atom's ids."""

    horn: AtomicHorn
    marking: int     # A, on the horn carrier
    enlarged: int    # A', on the whole atom

    def as_marked_map(self) -> MarkedMap:
        return MarkedMap(MarkedShape(self.horn.shape, self.enlarged), self.horn.horn,
                         self.marking)


def marked_horn(h: AtomicHorn, marking: int) -> MarkedHorn:
    """Recognise (h, A) as a marked horn, for the marking A, a mask of the
    atom's ids.

    Requires the classified context to admit a derivation restricted to A;
    the enlarged marking adds the top, and the facet as well when every
    facet on the other side is already marked.  The context is searched on
    the atom's own poset: its ambient is a closed subset there, whose
    boundaries, closures and cofaces within it, and label order, are those
    of the boundary molecule.
    """
    u = h.shape
    p = u.poset
    stray = marking & ~(h.horn & ~p.grade_masks()[0])
    if stray:
        i = (stray & -stray).bit_length() - 1
        name = p.labels[i] if i < len(p) else f"id {i}"
        raise NotAContext(f"marking element {name} is not on the horn")
    carrier = p.boundary_mask(p.full, u.dim - 1, h.sign)
    if find_derivation(p, carrier, p.closure_masks()[h.facet], allowed=marking) is None:
        raise NotAContext("the classified context is not derivable from the marking")
    top = u.top_id()
    other = p.fout[top] if h.sign == MINUS else p.fin[top]
    enlarged = marking | 1 << top
    if not other & ~marking:
        enlarged |= 1 << h.facet
    return MarkedHorn(h, marking, enlarged)


# -- horn pushout-products -----------------------------------------------------
#
# U (x) V has (a, b) at id a * |V| + b, as in gray_poset, so a set of pairs
# with a in S and b in T is the grid spread(S, |V|) * T.


def pp_horn(h: AtomicHorn, v: Molecule, order: str = "uv",
            product: Molecule | None = None) -> AtomicHorn:
    """Pushout-product of a horn inclusion with a boundary inclusion.

    order "uv" forms the product U (x) V and expects the horn at (x, top V);
    order "vu" forms V (x) U and expects it at (top V, x).  The identity is
    checked as an equality of inclusion carriers; a mismatch raises with a
    counterexample certificate.  product, when given, is that Gray product
    built by the caller; it feeds only the expected side, the horn of the
    product read from its own boundaries, while the pushout side is
    assembled from the factors' masks.
    """
    if order not in ("uv", "vu"):
        raise IdentityFailed(f"unknown order {order!r}")
    u = h.shape
    pu, pv = u.poset, v.poset
    bd_v = pv.full_boundary_mask()
    if order == "uv":
        prod = product if product is not None else gray(u, v)
        facet = h.facet * len(pv) + v.top_id()
        domain = spread(h.horn, len(pv)) * pv.full | spread(pu.full, len(pv)) * bd_v
    else:
        prod = product if product is not None else gray(v, u)
        facet = v.top_id() * len(pu) + h.facet
        domain = spread(pv.full, len(pu)) * h.horn | spread(bd_v, len(pu)) * pu.full
    expected = atomic_horn(prod, facet)
    if domain != expected.horn:
        raise IdentityFailed(
            "pushout-product of the horn is not the expected horn",
            certificate={
                "lemma": "HORN_PP",
                "inputs": {"facet": pu.labels[h.facet], "order": order},
                "expected": prod.poset.sids(expected.horn),
                "got": prod.poset.sids(domain),
            },
        )
    return expected


def pp_marked_horn(mh: MarkedHorn, gen: MarkedMap, order: str = "uv",
                   products: dict | None = None, horns: dict | None = None) -> MarkedHorn:
    """Pushout-product of a marked horn with a cellular-model generator,
    re-recognised from scratch as a marked horn.

    The product marking on the new horn is recomputed independently from
    the generator family's closed form and compared with the pushout
    machinery; the context recognition and two-case enlarged-marking rule
    are re-run on the product.

    The Gray product U (x) V (or V (x) U) is built once and feeds both
    pushout_product, as the ambient whose markings the pushout computes,
    and pp_horn, as the ambient whose horn the pushout domain must equal.
    products, when given, maps (first factor, second factor) to that
    product and is filled in here; a caller passes the same dict to every
    horn, generator and order of one check.  horns, when given, likewise
    keeps each product horn pp_horn returned, keyed by (U, facet, V,
    order): every marking of one horn and both generator families of one
    V share it.  Only successes are kept, so a failing pp_horn raises on
    every instance.
    """
    v = gen.meta.get("atom")
    if v is None or gen.meta.get("family") not in ("minbd", "markbd"):
        raise RecognitionFailed("generator must come from an M' family", {})
    u = mh.horn.shape
    key = (u, v) if order == "uv" else (v, u)
    if products is None:
        products = {}
    if key not in products:
        products[key] = gray(*key)
    prod = products[key]
    i = mh.as_marked_map()
    if order == "uv":
        pp = pushout_product(i, gen, prod.poset)
    else:
        pp = pushout_product(gen, i, prod.poset)
    hkey = (u, mh.horn.facet, v, order)
    new_horn = horns.get(hkey) if horns is not None else None
    if new_horn is None:
        new_horn = pp_horn(mh.horn, v, order, prod)
        if horns is not None:
            horns[hkey] = new_horn

    # closed-form domain marking: A' (x) bd V  u  A (x) V  u  horn (x) B,
    # where B is the generator's target marking (empty for minbd)
    A, Ap, H = mh.marking, mh.enlarged, mh.horn.horn
    pv = v.poset
    bd_v, B = pv.full_boundary_mask(), gen.target.marking
    if order == "uv":
        stride = len(pv)
        expected_b = (spread(Ap, stride) * bd_v | spread(A, stride) * pv.full
                      | spread(H, stride) * B)
    else:
        stride = len(u.poset)
        expected_b = (spread(bd_v, stride) * Ap | spread(pv.full, stride) * A
                      | spread(B, stride) * H)
    if pp.source_marking != expected_b:
        raise RecognitionFailed(
            "pushout-product domain marking differs from the closed form",
            certificate={
                "lemma": "MARKED_HORN_PP",
                "expected": prod.poset.sids(expected_b),
                "got": prod.poset.sids(pp.source_marking),
            },
        )
    result = marked_horn(new_horn, pp.source_marking)
    if result.enlarged != pp.target.marking:
        raise RecognitionFailed(
            "enlarged marking of the product horn differs from the pushout marking",
            certificate={
                "lemma": "MARKED_HORN_PP",
                "expected": prod.poset.sids(pp.target.marking),
                "got": prod.poset.sids(result.enlarged),
            },
        )
    return result
