"""Atomic horns, shape-level contexts with a one-hole carrier, restricted
context recognition against a marking, marked horns, and the horn
pushout-product identities.

A context is carried by a molecule with a distinguished rewritable hole.
Derivations, when present, are lists of extended-pasting steps from the
hole outward in ambient coordinates; a stored derivation re-evaluates to
exactly its (ambient, hole) pair.  Recognition against a marking A peels
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
    BadDerivation,
    BadHole,
    BadMarking,
    ClauseViolation,
    IdentityFailed,
    NotAContext,
    NotAFacet,
    RecognitionFailed,
)
from .gray import gray
from .ids import sid
from .marked import MarkedMap, MarkedShape, pushout_product
from .molecule import (
    Inclusion,
    Molecule,
    atom,
    find_derivation,
    is_round,
    paste_at,
    replay_derivation,
)
from .poset import MINUS, PLUS, OgPoset, bits, find_iso, flip, map_mask, preimage, spread


# -- context shapes -----------------------------------------------------------


@dataclass(eq=False)
class ContextShape:
    """Ambient molecule with a rewritable hole, a mask of the ambient's
    ids, plus an optional derivation."""

    ambient: Molecule
    hole: int
    derivation: list | None = None

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
        if self.derivation is not None and not replay_derivation(
                p, hole, self.derivation, p.full):
            raise BadDerivation("stored derivation must re-evaluate to the ambient")

    @property
    def dim(self) -> int:
        return self.ambient.dim

    def is_identity(self) -> bool:
        return self.hole == self.ambient.poset.full


def identity_context(v: Molecule, w: Molecule) -> ContextShape:
    """Identity context at the type v => w: hole equals ambient."""
    amb = atom(v, w)
    return ContextShape(amb, amb.poset.full, derivation=[])


def _translate_steps(steps, image: list) -> list:
    """Steps carried along an id image."""
    return [{**s, "top": None if s["top"] is None else image[s["top"]],
             **{key: map_mask(s[key], image) for key in ("piece", "removed", "shared", "rest")}}
            for s in steps]


def _forward_step(result: Molecule, piece: int, side: str, k: int) -> dict:
    """The step that pasted the closed mask piece onto the rest of result."""
    p = result.poset
    d = p.dim_mask(piece)
    tops = piece & p.grade_masks()[d]
    shared = p.boundary_mask(piece, d - 1, MINUS if side == "right" else PLUS)
    return {
        "side": side,
        "k": k,
        "top": tops.bit_length() - 1 if tops.bit_count() == 1 else None,
        "piece": piece,
        "removed": piece & ~shared,
        "shared": shared,
        "rest": p.full & ~(piece & ~shared),
    }


def left_paste(u: Molecule, iota: Inclusion, c: ContextShape, k: int) -> ContextShape:
    """The clause pasting u on the input side: iota maps bd_k+ u into the
    k-input boundary of the ambient."""
    result = paste_at(u, iota, c.ambient, side="left", k=k)
    image = result.provenance["right"].ids
    deriv = None
    if c.derivation is not None and u.is_atom():
        piece = result.provenance["left"].image
        deriv = _translate_steps(c.derivation, image)
        deriv.append(_forward_step(result, piece, "left", k))
    return ContextShape(result, map_mask(c.hole, image), deriv)


def right_paste(u: Molecule, iota: Inclusion, c: ContextShape, k: int) -> ContextShape:
    """The clause pasting u on the output side: iota maps bd_k- u into the
    k-output boundary of the ambient."""
    result = paste_at(c.ambient, iota, u, side="right", k=k)
    image = result.provenance["left"].ids
    deriv = None
    if c.derivation is not None and u.is_atom():
        piece = result.provenance["right"].image
        deriv = _translate_steps(c.derivation, image)
        deriv.append(_forward_step(result, piece, "right", k))
    return ContextShape(result, map_mask(c.hole, image), deriv)


def _replay(old_poset: OgPoset, old_hole: int, steps, base: Molecule):
    """Re-run a derivation on a new base of matching boundary type.

    Gluing positions transport through the unique isomorphisms between the
    k-boundaries of the old and new carriers; molecule rigidity (checked by
    the harness) makes the transport canonical.  Returns the new ambient,
    the id image of base in it, and the transported steps.
    """
    carrier_old = old_hole
    current = base
    base_image = list(range(len(base.poset)))
    new_steps = []
    for step in steps:
        k, side = step["k"], step["side"]
        attach_sign = PLUS if side == "right" else MINUS
        old_bd = old_poset.boundary_mask(carrier_old, k, attach_sign)
        cur = current.poset
        new_bd = cur.boundary_mask(cur.full, k, attach_sign)
        iso = find_iso(cur.restrict_mask(new_bd), old_poset.restrict_mask(old_bd))
        if iso is None:
            raise ClauseViolation(
                f"cannot transport a level-{k} pasting onto the new carrier"
            )
        # the current id of each old id on the boundary, -1 off it
        back = [-1] * len(old_poset)
        old_ids = bits(old_bd)
        for i, j in zip(bits(new_bd), iso):
            back[old_ids[j]] = i
        piece = Molecule(old_poset.restrict_mask(step["piece"]), {"kind": "atom-closure"})
        pp = piece.poset
        piece_bd_mask = pp.boundary_mask(pp.full, k, flip(attach_sign))
        piece_ids = bits(step["piece"])
        iota = Inclusion(Molecule(pp.restrict_mask(piece_bd_mask), {"kind": "boundary"}),
                         current, [back[piece_ids[t]] for t in bits(piece_bd_mask)])
        if side == "right":
            result = paste_at(current, iota, piece, side="right", k=k)
            keep, put = "left", "right"
        else:
            result = paste_at(piece, iota, current, side="left", k=k)
            keep, put = "right", "left"
        image = result.provenance[keep].ids
        base_image = [image[i] for i in base_image]
        new_steps = _translate_steps(new_steps, image)
        new_steps.append(_forward_step(result, result.provenance[put].image, side, k))
        carrier_old |= step["piece"]
        current = result
    return current, base_image, new_steps


def compose(c: ContextShape, d: ContextShape) -> ContextShape:
    """d after c: replay d's derivation with c's ambient in d's hole."""
    if d.derivation is None:
        raise ClauseViolation("composition needs a derivation for the outer context")
    ambient, base_image, outer_steps = _replay(d.ambient.poset, d.hole, d.derivation,
                                               c.ambient)
    hole = map_mask(c.hole, base_image)
    if c.derivation is None:
        return ContextShape(ambient, hole, None)
    inner_steps = _translate_steps(c.derivation, base_image)
    return ContextShape(ambient, hole, inner_steps + outer_steps)


def promote(c: ContextShape, v: Molecule, w: Molecule) -> ContextShape:
    """Promotion clause: the same pastes around a hole one dimension up.

    v and w must be parallel round molecules whose boundaries match the
    type of c's hole: bd- of the hole is bd- v and bd+ of the hole is
    bd+ w, up to unique isomorphism.
    """
    if c.derivation is None:
        raise ClauseViolation("promotion needs a derivation")
    p = c.ambient.poset
    for sign, m in ((MINUS, v), (PLUS, w)):
        old_bd = p.restrict_mask(p.boundary_mask(c.hole, c.dim - 1, sign))
        q = m.poset
        new_bd = q.restrict_mask(q.boundary_mask(q.full, m.dim - 1, sign))
        if find_iso(new_bd, old_bd) is None:
            raise ClauseViolation("promotion types do not match the hole type")
    base = atom(v, w)
    ambient, base_image, steps = _replay(p, c.hole, c.derivation, base)
    return ContextShape(ambient, map_mask(base.poset.full, base_image), steps)


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
        raise NotAFacet(f"{sid(p.labels[x])} is not a facet of the top element")
    return AtomicHorn(u, x, sign, p.full_boundary_mask() & ~(1 << x))


def classified_context(h: AtomicHorn) -> ContextShape:
    """The context seen through the missing facet: ambient is the boundary
    of the atom on the facet's side, the hole is the facet's closure."""
    u = h.shape
    p = u.poset
    carrier = p.boundary_mask(p.full, u.dim - 1, h.sign)
    # the boundary molecule's ids are the carrier's bits in order
    hole = preimage(p.closure_masks()[h.facet], bits(carrier))
    return ContextShape(u.boundary_molecule(u.dim - 1, h.sign), hole, derivation=None)


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

    @property
    def added(self) -> int:
        return self.enlarged & ~self.marking

    def as_marked_map(self) -> MarkedMap:
        return MarkedMap(MarkedShape(self.horn.shape, self.enlarged), self.horn.horn,
                         self.marking, meta={"kind": "marked-horn", "facet": self.horn.facet})


def marked_horn(h: AtomicHorn, marking: int) -> MarkedHorn:
    """Recognise (h, A) as a marked horn, for the marking A, a mask of the
    atom's ids.

    Requires the classified context to admit a derivation restricted to A;
    the enlarged marking adds the top, and the facet as well when every
    facet on the other side is already marked.  The context is searched on
    the atom's own poset: its ambient is a closed subset there, whose
    boundaries, closures and cofaces within it, and sid order, are those
    of the boundary molecule.
    """
    u = h.shape
    p = u.poset
    stray = marking & ~(h.horn & ~p.grade_masks()[0])
    if stray:
        i = (stray & -stray).bit_length() - 1
        name = sid(p.labels[i]) if i < len(p) else f"id {i}"
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
                "inputs": {"facet": sid(pu.labels[h.facet]), "order": order},
                "expected": prod.poset.sids(expected.horn),
                "got": prod.poset.sids(domain),
            },
        )
    return expected


def pp_marked_horn(mh: MarkedHorn, gen: MarkedMap, order: str = "uv",
                   products: dict | None = None) -> MarkedHorn:
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
    horn, generator and order of one check.
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
    new_horn = pp_horn(mh.horn, v, order, prod)

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
