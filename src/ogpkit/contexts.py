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

Contexts are given by labels.  Horns and marked horns are masks of the
atom's ids, with the facet given by its id; marked_horn decodes its
marking once, to recognise the classified context.
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
from .poset import MINUS, PLUS, OgPoset, find_iso, flip, spread


# -- context shapes -----------------------------------------------------------


@dataclass(eq=False)
class ContextShape:
    """Ambient molecule with a rewritable hole, plus optional derivation."""

    ambient: Molecule
    hole: frozenset
    derivation: list | None = None

    def __post_init__(self):
        self.hole = frozenset(self.hole)
        p = self.ambient.poset
        hole = p.encode(self.hole)
        if not p.is_closed_mask(hole):
            raise BadHole("hole must be closed")
        if p.dim_mask(hole) != p.dim:
            raise BadHole("hole must have full dimension")
        if not is_round(p, hole):
            raise BadHole("hole must be round")
        if self.derivation is not None and not replay_derivation(
                p, self.hole, self.derivation, p.element_set):
            raise BadDerivation("stored derivation must re-evaluate to the ambient")

    @property
    def dim(self) -> int:
        return self.ambient.dim

    def is_identity(self) -> bool:
        return self.hole == frozenset(self.ambient.poset.dim_of)


def identity_context(v: Molecule, w: Molecule) -> ContextShape:
    """Identity context at the type v => w: hole equals ambient."""
    amb = atom(v, w)
    return ContextShape(amb, frozenset(amb.poset.dim_of), derivation=[])


def _translate_steps(steps, mapping):
    out = []
    for s in steps:
        out.append({
            "side": s["side"],
            "k": s["k"],
            "top": mapping[s["top"]],
            "piece": frozenset(mapping[x] for x in s["piece"]),
            "removed": frozenset(mapping[x] for x in s["removed"]),
            "shared": frozenset(mapping[x] for x in s["shared"]),
            "rest": frozenset(mapping[x] for x in s["rest"]) if s.get("rest") else None,
        })
    return out


def _forward_step(result: Molecule, piece_ids: frozenset, side: str, k: int):
    piece_poset = result.poset.restrict(piece_ids)
    tops = [x for x in piece_ids
            if result.poset.dim_of[x] == piece_poset.dim]
    keep_sign = MINUS if side == "right" else PLUS
    shared = piece_poset.boundary_set(piece_poset.dim - 1, keep_sign)
    return {
        "side": side,
        "k": k,
        "top": tops[0] if len(tops) == 1 else None,
        "piece": piece_ids,
        "removed": piece_ids - shared,
        "shared": shared,
        "rest": frozenset(result.poset.dim_of) - (piece_ids - shared),
    }


def left_paste(u: Molecule, iota: Inclusion, c: ContextShape, k: int) -> ContextShape:
    """The clause pasting u on the input side: iota maps bd_k+ u into the
    k-input boundary of the ambient."""
    result = paste_at(u, iota, c.ambient, side="left", k=k)
    inj_c = result.provenance["right"].mapping
    inj_u = result.provenance["left"].mapping
    hole = frozenset(inj_c[x] for x in c.hole)
    deriv = None
    if c.derivation is not None and u.is_atom():
        deriv = _translate_steps(c.derivation, inj_c)
        deriv.append(_forward_step(result, frozenset(inj_u.values()), "left", k))
    return ContextShape(result, hole, deriv)


def right_paste(u: Molecule, iota: Inclusion, c: ContextShape, k: int) -> ContextShape:
    """The clause pasting u on the output side: iota maps bd_k- u into the
    k-output boundary of the ambient."""
    result = paste_at(c.ambient, iota, u, side="right", k=k)
    inj_c = result.provenance["left"].mapping
    inj_u = result.provenance["right"].mapping
    hole = frozenset(inj_c[x] for x in c.hole)
    deriv = None
    if c.derivation is not None and u.is_atom():
        deriv = _translate_steps(c.derivation, inj_c)
        deriv.append(_forward_step(result, frozenset(inj_u.values()), "right", k))
    return ContextShape(result, hole, deriv)


def _replay(old_poset: OgPoset, old_hole: frozenset, steps, base: Molecule):
    """Re-run a derivation on a new base of matching boundary type.

    Gluing positions transport through the unique isomorphisms between the
    k-boundaries of the old and new carriers; molecule rigidity (checked by
    the harness) makes the transport canonical.  Returns the new ambient,
    the map from base ids into it, and the transported steps.
    """
    carrier_old = frozenset(old_hole)
    current = base
    base_map = {x: x for x in base.poset.dim_of}
    new_steps = []
    for step in steps:
        k, side = step["k"], step["side"]
        attach_sign = PLUS if side == "right" else MINUS
        old_sub = old_poset.restrict(carrier_old)
        old_bd = old_sub.boundary_set(k, attach_sign)
        new_bd = current.poset.boundary_set(k, attach_sign)
        iso = find_iso(current.poset.restrict(new_bd), old_poset.restrict(old_bd))
        if iso is None:
            raise ClauseViolation(
                f"cannot transport a level-{k} pasting onto the new carrier"
            )
        back = {old: new for new, old in iso.mapping.items()}
        piece = Molecule(old_poset.restrict(step["piece"]), {"kind": "atom-closure"})
        keep_sign = flip(attach_sign)
        piece_bd = piece.poset.boundary_set(k, keep_sign)
        iota = Inclusion(
            Molecule(piece.poset.restrict(piece_bd), {"kind": "boundary"}),
            current,
            {x: back[x] for x in piece_bd},
        )
        if side == "right":
            result = paste_at(current, iota, piece, side="right", k=k)
            inj_keep = result.provenance["left"].mapping
            inj_piece = result.provenance["right"].mapping
        else:
            result = paste_at(piece, iota, current, side="left", k=k)
            inj_keep = result.provenance["right"].mapping
            inj_piece = result.provenance["left"].mapping
        base_map = {x: inj_keep[y] for x, y in base_map.items()}
        new_steps = _translate_steps(new_steps, inj_keep)
        new_steps.append(_forward_step(result, frozenset(inj_piece.values()), side, k))
        carrier_old = carrier_old | step["piece"]
        current = result
    return current, base_map, new_steps


def compose(c: ContextShape, d: ContextShape) -> ContextShape:
    """d after c: replay d's derivation with c's ambient in d's hole."""
    if d.derivation is None:
        raise ClauseViolation("composition needs a derivation for the outer context")
    ambient, base_map, outer_steps = _replay(d.ambient.poset, d.hole, d.derivation,
                                             c.ambient)
    hole = frozenset(base_map[x] for x in c.hole)
    if c.derivation is None:
        return ContextShape(ambient, hole, None)
    inner_steps = _translate_steps(c.derivation, base_map)
    return ContextShape(ambient, hole, inner_steps + outer_steps)


def promote(c: ContextShape, v: Molecule, w: Molecule) -> ContextShape:
    """Promotion clause: the same pastes around a hole one dimension up.

    v and w must be parallel round molecules whose boundaries match the
    type of c's hole: bd- of the hole is bd- v and bd+ of the hole is
    bd+ w, up to unique isomorphism.
    """
    if c.derivation is None:
        raise ClauseViolation("promotion needs a derivation")
    hole_sub = c.ambient.poset.restrict(c.hole)
    for sign, m in ((MINUS, v), (PLUS, w)):
        old_bd = hole_sub.restrict(hole_sub.boundary_set(hole_sub.dim - 1, sign))
        new_bd = m.poset.restrict(m.poset.boundary_set(m.dim - 1, sign))
        if find_iso(new_bd, old_bd) is None:
            raise ClauseViolation("promotion types do not match the hole type")
    base = atom(v, w)
    ambient, base_map, steps = _replay(c.ambient.poset, c.hole, c.derivation, base)
    hole = frozenset(base_map.values())
    return ContextShape(ambient, hole, steps)


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
    p = h.shape.poset
    ambient = h.shape.boundary_molecule(h.shape.dim - 1, h.sign)
    return ContextShape(ambient, p.decode(p.closure_masks()[h.facet]), derivation=None)


def is_a_context(c: ContextShape, marking) -> list | None:
    """Derivation of the context using only pastings of atoms whose top is
    marked, or None.  Monotone in the marking.

    Marking elements outside the ambient carrier are irrelevant to the
    derivation and ignored, so a marking on a larger shape (a horn, say)
    can be passed directly.
    """
    p = c.ambient.poset
    index, dims = p.index, p.dims
    if any(dims[index[x]] <= 0 for x in marking if x in index):
        raise BadMarking("markings are positive-dimensional")
    return find_derivation(p, p.element_set, c.hole, allowed=marking)


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


def marked_horn(u: Molecule, x: int, marking: int) -> MarkedHorn:
    """Recognise (u, x, A) as a marked horn, for the facet with id x and
    the marking A, a mask of u's ids.

    Requires the classified context to admit a derivation restricted to A;
    the enlarged marking adds the top, and the facet as well when every
    facet on the other side is already marked.
    """
    h = atomic_horn(u, x)
    p = u.poset
    stray = marking & ~(h.horn & ~p.grade_masks()[0])
    if stray:
        i = (stray & -stray).bit_length() - 1
        name = sid(p.labels[i]) if i < len(p) else f"id {i}"
        raise NotAContext(f"marking element {name} is not on the horn")
    if is_a_context(classified_context(h), p.decode(marking)) is None:
        raise NotAContext("the classified context is not derivable from the marking")
    top = u.top_id()
    other = p.fout[top] if h.sign == MINUS else p.fin[top]
    enlarged = marking | 1 << top
    if not other & ~marking:
        enlarged |= 1 << x
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
    result = marked_horn(new_horn.shape, new_horn.facet, pp.source_marking)
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
