"""Inductive molecules over oriented graded posets.

A Molecule is a validated poset together with a construction certificate:
point, paste, atom, or a theorem-backed rule tag for constructions whose
molecule-hood is guaranteed by a cited result (boundaries, Gray products,
duals, cylinders).  Molecule-hood of an arbitrary poset is never decided;
the bounded `reconstruct` search below produces certificates for small
instances and is used by the verification harness as a spot check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    BadEmbedding,
    BoundaryMismatch,
    BoundExceeded,
    DimMismatch,
    LevelOutOfRange,
    NotRewritable,
    NotRound,
    RecognitionFailed,
    ZeroDimensional,
)
from .ids import inl, inr, sid
from .poset import (
    MINUS,
    PLUS,
    SIGNS,
    OgPoset,
    all_isos,
    build,
    canonical_key,
    embedding_defect,
    find_iso,
)

POINT_ID = "*"
TOP_ID = "top"


@dataclass(eq=False)
class Molecule:
    """Shape with a construction certificate and cached boundaries."""

    poset: OgPoset
    certificate: dict
    provenance: dict = field(default_factory=dict, repr=False)
    _boundaries: dict = field(default_factory=dict, repr=False)

    @property
    def dim(self) -> int:
        return self.poset.dim

    def __len__(self):
        return len(self.poset)

    @property
    def elements(self):
        return self.poset.elements

    def grade(self, n):
        return self.poset.grade(n)

    def maximal_elements(self):
        return self.poset.maximal_elements()

    def top(self):
        """The unique maximal element of an atom."""
        ms = self.poset.maximal_elements()
        if len(ms) != 1:
            raise NotRound(f"shape with {len(ms)} maximal elements is not an atom")
        return next(iter(ms))

    def is_atom(self) -> bool:
        return len(self.poset.maximal_elements()) == 1 and len(self.poset) > 0

    def boundary(self, n: int | None = None, sign: str = MINUS) -> "Inclusion":
        """Inclusion of the n-dimensional boundary of the given sign.

        Defaults to the top boundary (n = dim - 1).  For n >= dim this is
        the identity inclusion.
        """
        if n is None:
            n = self.dim - 1
        key = (n, sign)
        if key not in self._boundaries:
            subset = self.poset.boundary_set(n, sign)
            if len(subset) == len(self.poset):
                self._boundaries[key] = identity_inclusion(self)
            else:
                src = submolecule(self, subset, {"kind": "boundary", "n": n, "sign": sign,
                                                 "of": self.certificate})
                self._boundaries[key] = Inclusion(src, self, {x: x for x in subset},
                                                  kind="boundary")
        return self._boundaries[key]

    def boundary_molecule(self, n=None, sign=MINUS) -> "Molecule":
        return self.boundary(n, sign).source


@dataclass(eq=False)
class Inclusion:
    """Tracked injective map of shapes, tagged with how it arose."""

    source: Molecule
    target: Molecule
    mapping: dict
    kind: str = "inclusion"

    def __post_init__(self):
        defect = embedding_defect(self.source.poset, self.target.poset, self.mapping)
        if defect is not None:
            raise BadEmbedding(f"inclusion: {defect}")

    @property
    def image(self) -> frozenset:
        return frozenset(self.mapping.values())

    @property
    def is_iso(self) -> bool:
        return len(self.mapping) == len(self.target.poset)

    @property
    def rewritable(self) -> bool:
        return self.source.dim == self.target.dim and is_round(self.source)

    def compose(self, other: "Inclusion") -> "Inclusion":
        """other after self: self source includes into other's target."""
        assert self.target is other.source or self.target.poset == other.source.poset
        return Inclusion(
            self.source,
            other.target,
            {x: other.mapping[y] for x, y in self.mapping.items()},
            kind="compose",
        )

    def apply(self, subset) -> frozenset:
        return frozenset(self.mapping[x] for x in subset)


def identity_inclusion(m: Molecule) -> Inclusion:
    return Inclusion(m, m, {x: x for x in m.poset.dim_of}, kind="iso")


def submolecule(m: Molecule, subset, certificate) -> Molecule:
    """Molecule structure on a closed subset, ids preserved."""
    return Molecule(m.poset.restrict(subset), certificate)


def subset_inclusion(m: Molecule, subset, certificate, kind="inclusion") -> Inclusion:
    src = submolecule(m, subset, certificate)
    return Inclusion(src, m, {x: x for x in subset}, kind=kind)


# -- base shapes -----------------------------------------------------------


def point() -> Molecule:
    return Molecule(build({POINT_ID: 0}, {}), {"kind": "point"})


def arrow() -> Molecule:
    p = build(
        {"0-": 0, "0+": 0, "1": 1},
        {"1": ({"0-"}, {"0+"})},
    )
    return Molecule(p, {"kind": "arrow"})


def globe(n: int) -> Molecule:
    """The n-globe with canonical ids "k-", "k+" and top str(n).

    Uniquely isomorphic to the iterated atom construction; built directly
    so facet names stay readable.
    """
    if n < 0:
        raise ZeroDimensional("globe dimension must be >= 0")
    if n == 0:
        return point()
    elements = {str(n): n}
    faces = {}
    for k in range(n):
        elements[f"{k}-"] = k
        elements[f"{k}+"] = k
    for k in range(1, n):
        for s in SIGNS:
            faces[f"{k}{s}"] = ({f"{k - 1}-"}, {f"{k - 1}+"})
    faces[str(n)] = ({f"{n - 1}-"}, {f"{n - 1}+"})
    return Molecule(build(elements, faces), {"kind": "globe", "n": n})


# -- roundness -------------------------------------------------------------


def is_round(shape, subset: frozenset | None = None) -> bool:
    """Lower boundaries intersect minimally: bd_k- meets bd_k+ in bd_(k-1).

    With subset, a closed subset of the shape's poset, the question is
    asked of the sub-poset on it, read from the poset's dicts.
    """
    p = shape.poset if isinstance(shape, Molecule) else shape
    if subset is None:
        subset = p.element_set
    for k in range(p.sub_dim(subset)):
        meet = p.sub_boundary_set(subset, k, MINUS) & p.sub_boundary_set(subset, k, PLUS)
        lower = p.sub_boundary_set(subset, k - 1, MINUS) | p.sub_boundary_set(subset, k - 1, PLUS)
        if meet != lower:
            return False
    return True


# -- pushout gluing --------------------------------------------------------


def paste_along(a: OgPoset, b: OgPoset, glue: dict):
    """Pushout of a <- dom(glue) -> b in oriented graded posets.

    glue maps a closed subset of a isomorphically onto a closed subset of b.
    Left elements keep their ids under the in0 tag, unshared right elements
    under in1, and the shared part keeps the left ids.
    """
    image = {}
    for x, y in glue.items():
        if a.dim_of.get(x) != b.dim_of.get(y):
            raise BadEmbedding(f"glue must preserve dimension at {sid(x)}")
        image[y] = x
    for x in glue:
        for s in SIGNS:
            fx = {glue.get(f) for f in a.faces(x, s)}
            if fx != b.faces(glue[x], s):
                raise BadEmbedding(f"glue must preserve faces at {sid(x)}")

    def map_a(x):
        return inl(x)

    def map_b(y):
        return inl(image[y]) if y in image else inr(y)

    elements, faces = {}, {}
    for x, d in a.dim_of.items():
        elements[map_a(x)] = d
        if d > 0:
            faces[map_a(x)] = (
                {map_a(f) for f in a.faces(x, MINUS)},
                {map_a(f) for f in a.faces(x, PLUS)},
            )
    for y, d in b.dim_of.items():
        if y in image:
            continue
        elements[map_b(y)] = d
        if d > 0:
            faces[map_b(y)] = (
                {map_b(f) for f in b.faces(y, MINUS)},
                {map_b(f) for f in b.faces(y, PLUS)},
            )
    poset = build(elements, faces)
    inj_a = {x: map_a(x) for x in a.dim_of}
    inj_b = {y: map_b(y) for y in b.dim_of}
    return poset, inj_a, inj_b


# -- pastings --------------------------------------------------------------


def paste(m1: Molecule, m2: Molecule, k: int) -> Molecule:
    """Pasting m1 #_k m2 along the unique iso bd_k+ m1 = bd_k- m2."""
    if k < 0:
        raise LevelOutOfRange(f"pasting level {k} is negative")
    b1 = m1.poset.restrict(m1.poset.boundary_set(k, PLUS))
    b2 = m2.poset.restrict(m2.poset.boundary_set(k, MINUS))
    iso = find_iso(b1, b2)
    if iso is None:
        raise BoundaryMismatch(
            f"bd_{k}+ of the left shape is not isomorphic to bd_{k}- of the right shape"
        )
    poset, inj1, inj2 = paste_along(m1.poset, m2.poset, dict(iso.mapping))
    cert = {
        "kind": "paste",
        "k": k,
        "left": m1.certificate,
        "right": m2.certificate,
        "glue": {sid(x): sid(y) for x, y in sorted(iso.mapping.items(), key=lambda i: sid(i[0]))},
    }
    result = Molecule(poset, cert)
    result.provenance["left"] = Inclusion(m1, result, inj1, kind="paste-left")
    result.provenance["right"] = Inclusion(m2, result, inj2, kind="paste-right")
    result.provenance["gencp"] = GeneralisedPasting(
        ambient=result,
        left=frozenset(inj1.values()),
        right=frozenset(inj2.values()),
        level=k,
        checked=False,
    )
    return result


def paste_at(m1: Molecule, iota: Inclusion, m2: Molecule, side: str, k: int) -> Molecule:
    """Pasting at a submolecule.

    side "left": iota : bd_k+ m1 -> bd_k- m2 rewritable; m1 is glued onto
    the input side of m2.  side "right": iota : bd_k- m2 -> bd_k+ m1; m2 is
    glued onto the output side of m1.  Either way the left argument keeps
    its ids in the pushout.
    """
    if k < 0:
        raise LevelOutOfRange(f"pasting level {k} is negative")
    if side not in ("left", "right"):
        raise LevelOutOfRange(f"unknown side {side!r}")
    if side == "left":
        expected_src = m1.poset.boundary_set(k, PLUS)
        expected_tgt = m2.poset.boundary_set(k, MINUS)
        tgt_poset = m2.poset
    else:
        expected_src = m2.poset.boundary_set(k, MINUS)
        expected_tgt = m1.poset.boundary_set(k, PLUS)
        tgt_poset = m1.poset
    if frozenset(iota.mapping) != expected_src:
        raise NotRewritable("inclusion source does not match the required boundary")
    if not iota.image <= expected_tgt:
        raise NotRewritable("inclusion image does not land in the required boundary")
    # rewritability is against the boundary the inclusion lands in, not the
    # whole molecule: round source of the same dimension
    if not is_round(iota.source):
        raise NotRewritable("inclusion source must be round")
    if iota.source.dim != tgt_poset.restrict(expected_tgt).dim:
        raise NotRewritable("inclusion must not drop dimension into its boundary")

    if side == "left":
        glue = dict(iota.mapping)  # m1 boundary ids -> m2 ids
        poset, inj1, inj2 = paste_along(m1.poset, m2.poset, glue)
    else:
        glue = {y: x for x, y in iota.mapping.items()}  # m1 ids -> m2 boundary ids
        poset, inj1, inj2 = paste_along(m1.poset, m2.poset, glue)
    cert = {
        "kind": "paste_at",
        "side": side,
        "k": k,
        "left": m1.certificate,
        "right": m2.certificate,
        "glue": {sid(x): sid(y) for x, y in sorted(glue.items(), key=lambda i: sid(i[0]))},
    }
    result = Molecule(poset, cert)
    result.provenance["left"] = Inclusion(m1, result, inj1, kind="paste-left")
    result.provenance["right"] = Inclusion(m2, result, inj2, kind="paste-right")
    result.provenance["gencp"] = GeneralisedPasting(
        ambient=result,
        left=frozenset(inj1.values()),
        right=frozenset(inj2.values()),
        level=k,
        checked=False,
    )
    return result


def atom(m1: Molecule, m2: Molecule) -> Molecule:
    """The atom m1 => m2: one fresh top element over the glued boundaries."""
    n = m1.dim
    if n != m2.dim:
        raise DimMismatch(f"atom inputs have dimensions {m1.dim} and {m2.dim}")
    if not is_round(m1) or not is_round(m2):
        raise NotRound("atom inputs must be round")
    glue = {}
    for s in SIGNS:
        b1 = m1.poset.restrict(m1.poset.boundary_set(n - 1, s))
        b2 = m2.poset.restrict(m2.poset.boundary_set(n - 1, s))
        iso = find_iso(b1, b2)
        if iso is None:
            raise BoundaryMismatch(f"bd{s} of the two inputs are not isomorphic")
        for x, y in iso.mapping.items():
            if x in glue and glue[x] != y:
                raise BoundaryMismatch("input and output boundary isos disagree on the overlap")
            glue[x] = y
    poset, inj1, inj2 = paste_along(m1.poset, m2.poset, glue)
    elements = dict(poset.dim_of)
    faces = {x: (set(poset.faces_in[x]), set(poset.faces_out[x]))
             for x in poset.dim_of if poset.dim_of[x] > 0}
    elements[TOP_ID] = n + 1
    faces[TOP_ID] = (
        {inj1[x] for x in m1.poset.grade(n)},
        {inj2[y] for y in m2.poset.grade(n)},
    )
    cert = {
        "kind": "atom",
        "left": m1.certificate,
        "right": m2.certificate,
        "glue": {sid(x): sid(y) for x, y in sorted(glue.items(), key=lambda i: sid(i[0]))},
    }
    result = Molecule(build(elements, faces), cert)
    result.provenance["left"] = Inclusion(m1, result, inj1, kind="atom-input")
    result.provenance["right"] = Inclusion(m2, result, inj2, kind="atom-output")
    return result


def merger(m: Molecule) -> Molecule:
    """The atom bd- m => bd+ m compressing a round molecule to one cell."""
    if m.dim < 1:
        raise ZeroDimensional("merger needs dimension >= 1")
    if not is_round(m):
        raise NotRound("merger input must be round")
    return atom(m.boundary_molecule(sign=MINUS), m.boundary_molecule(sign=PLUS))


# -- duals at molecule level -------------------------------------------------


def dual(m: Molecule, dims) -> Molecule:
    dims = frozenset(dims)
    cert = m.certificate
    if cert.get("kind") == "dual" and cert.get("dims") == tuple(sorted(dims)):
        return m.provenance["dual_of"]
    result = Molecule(m.poset.dual(dims), {"kind": "dual", "dims": tuple(sorted(dims)),
                                           "of": m.certificate})
    result.provenance["dual_of"] = m
    return result


def op(m: Molecule) -> Molecule:
    return dual(m, range(1, m.dim + 1, 2)) if m.dim >= 1 else dual(m, ())


# -- generalised pastings ----------------------------------------------------


@dataclass(eq=False)
class GeneralisedPasting:
    """A decomposition ambient = left u right recognised (or recorded) as a
    generalised pasting at the level-k boundary."""

    ambient: Molecule
    left: frozenset
    right: frozenset
    level: int
    checked: bool = False

    @property
    def shared(self) -> frozenset:
        return self.left & self.right


def recognise_generalised_pasting(
    ambient: Molecule,
    left,
    right,
    k: int,
    *,
    shared=None,
    reconstruct_cap: int = 120,
    verdicts: dict | None = None,
):
    """Check the three generalised-pasting conditions for a decomposition.

    left and right are closed element subsets of the ambient covering it.
    On success the two pasting factorisations through the k-boundaries are
    materialised (as unions inside the ambient, with every intermediate
    pasting precondition checked) and the ambient is asserted rigid, which
    together witness the unique isomorphism of the factorisations with the
    ambient.  Condition failures return None; a factorisation failure on a
    decomposition that passed the conditions raises, since it contradicts a
    cited lemma.

    verdicts, when given, maps canonical keys to molecule verdicts of
    condition 2 and is filled in as boundaries are certified; a caller
    passes the same dict to every recognition of one check.
    """
    w = ambient.poset
    left, right = frozenset(left), frozenset(right)
    if left | right != frozenset(w.dim_of):
        return None
    if not (w.is_closed(left) and w.is_closed(right)):
        return None
    meet = left & right
    if shared is not None and frozenset(shared) != meet:
        return None

    def left_bd(sign):
        return w.sub_boundary_set(left, k, sign)

    def right_bd(sign):
        return w.sub_boundary_set(right, k, sign)

    # condition 1: the shared part lies in bd_k+ of the left and bd_k- of
    # the right piece
    if not (meet <= left_bd(PLUS) and meet <= right_bd(MINUS)):
        return None
    bdm = w.boundary_set(k, MINUS)
    bdp = w.boundary_set(k, PLUS)
    # condition 2: both k-boundaries of the union are molecules
    if verdicts is None:
        verdicts = {}
    for subset in (bdm, bdp):
        if not _is_molecule(w.restrict(subset), reconstruct_cap, verdicts):
            return None
    # condition 3
    if not (left_bd(MINUS) <= bdm and right_bd(PLUS) <= bdp):
        return None

    def stage(base: frozenset, piece_bd: frozenset, target_sign: str, piece: frozenset):
        """One pasting stage: glue piece onto base along piece_bd, which must
        land in the target_sign k-boundary of base."""
        target = w.sub_boundary_set(base, k, target_sign)
        if not piece_bd <= target:
            raise RecognitionFailed(
                "generalised pasting factorisation stage failed",
                {
                    "level": k,
                    "stage_boundary": sorted(map(sid, piece_bd)),
                    "target": sorted(map(sid, target)),
                },
            )
        return base | piece

    # (bd_k- W subcp U) subcp V
    g1 = stage(bdm, left_bd(MINUS), PLUS, left)
    g2 = stage(g1, right_bd(MINUS), PLUS, right)
    # U cpsub (V cpsub bd_k+ W)
    h1 = stage(bdp, right_bd(PLUS), MINUS, right)
    h2 = stage(h1, left_bd(PLUS), MINUS, left)
    if g2 != frozenset(w.dim_of) or h2 != frozenset(w.dim_of):
        raise RecognitionFailed("factorisation does not cover the ambient", {})
    if len(all_isos(w, w)) != 1:
        raise RecognitionFailed("ambient is not rigid", {})
    return GeneralisedPasting(ambient, left, right, k, checked=True)


def _is_molecule(p: OgPoset, cap: int, verdicts: dict) -> bool:
    """Whether reconstruct certifies p, looked up by canonical key in
    verdicts and recorded there; without a key, reconstruct runs."""
    key = canonical_key(p)
    if key is None:
        return reconstruct(p, cap=cap) is not None
    if key not in verdicts:
        verdicts[key] = reconstruct(p, cap=cap) is not None
    return verdicts[key]


# -- bounded decomposition search --------------------------------------------


def _peel_candidates(p: OgPoset, carrier: frozenset, protected: frozenset):
    """Pasting peels of one maximal element's closure off a carrier subset.

    Yields dicts describing carrier = rest (subcp / cpsub) cl{top} at level
    dim(top) - 1, with the set-level pasting preconditions checked on the
    element sets of p.
    """
    dim_of = p.dim_of
    cin, cout = p._coface_dicts()
    out = []
    for top in sorted(p.sub_maximal(carrier), key=lambda x: (-dim_of[x], sid(x))):
        d = dim_of[top]
        if d < 1 or top in protected:
            continue
        piece = p.element_closure(top)
        k = d - 1
        for side, keep_sign, attach_sign in (("right", MINUS, PLUS), ("left", PLUS, MINUS)):
            shared = p.sub_boundary_set(piece, k, keep_sign)
            removed = piece - shared
            if removed & protected:
                continue
            rest = carrier - removed
            # the carrier is closed, so only a coface of a removed element
            # can leave rest open
            if not rest or not all(rest.isdisjoint(cin[x]) and rest.isdisjoint(cout[x])
                                   for x in removed):
                continue
            # rest holds shared, which has dimension k
            if not shared <= p.sub_boundary_set(rest, k, attach_sign):
                continue
            out.append({
                "side": side,
                "k": k,
                "top": top,
                "piece": piece,
                "removed": removed,
                "shared": shared,
                "rest": rest,
            })
    return out


def find_derivation(p: OgPoset, carrier: frozenset, hole: frozenset,
                    allowed=None, max_states: int = 500_000):
    """Exhaustive peel search: decompose carrier onto hole by extended
    pastings of single atoms.

    allowed, when given, restricts the tops of pasted atoms (the shape-level
    A-context condition).  Returns the steps ordered from the hole outward,
    or None.  Complete at the sizes this package targets: all peel orders
    are explored with memoisation on the remaining carrier.
    """
    hole = frozenset(hole)
    failed = set()
    states = 0

    def dfs(current: frozenset):
        nonlocal states
        if current == hole:
            return []
        if current in failed:
            return None
        states += 1
        if states > max_states:
            raise BoundExceeded("derivation search exceeded its state budget")
        for cand in _peel_candidates(p, current, hole):
            if allowed is not None and cand["top"] not in allowed:
                continue
            inner = dfs(cand["rest"])
            if inner is not None:
                return inner + [cand]
        failed.add(current)
        return None

    return dfs(frozenset(carrier))


def replay_derivation(p: OgPoset, hole: frozenset, steps, expect: frozenset) -> bool:
    """Re-evaluate a derivation from the hole outward and check it lands on
    the expected carrier, re-validating every pasting precondition.  Every
    carrier on the way must be closed; boundaries are read from p."""
    carrier = frozenset(hole)
    if not p.is_closed(carrier):
        return False
    for step in steps:
        attach_sign = PLUS if step["side"] == "right" else MINUS
        if not step["shared"] <= p.sub_boundary_set(carrier, step["k"], attach_sign):
            return False
        if step["removed"] & carrier:
            return False
        carrier |= step["piece"]
        if not p.is_closed(carrier):
            return False
    return carrier == frozenset(expect)


def glues_to_atom(p: OgPoset, carrier: frozenset) -> bool:
    """Whether a closed subset of p with one maximal element, whose two
    top boundaries minus and plus are molecules, is the atom minus => plus.

    With n the carrier's dimension, both have dimension n - 1, as the
    faces of the top do.  The carrier is the atom exactly when both are
    round, their (n-2)-boundaries agree as sets for each sign, and
    minus & plus is the union of those.  Molecules are rigid, so
    the glue that atom() would find between the (n-2)-boundaries is the
    identity, and any isomorphism from the atom it builds to the carrier
    maps boundaries to boundaries: the conditions are necessary.  When
    they hold, the pushout along the identity is the carrier itself.
    """
    n = p.sub_dim(carrier)
    minus = p.sub_boundary_set(carrier, n - 1, MINUS)
    plus = p.sub_boundary_set(carrier, n - 1, PLUS)
    if not (is_round(p, minus) and is_round(p, plus)):
        return False
    rim = frozenset()
    for s in SIGNS:
        lower = p.sub_boundary_set(minus, n - 2, s)
        if lower != p.sub_boundary_set(plus, n - 2, s):
            return False
        rim |= lower
    return minus & plus == rim


def reconstruct(p: OgPoset, cap: int = 120) -> Molecule | None:
    """Bounded certifier: rebuild a paste/atom certificate for a poset.

    Returns a Molecule carrying p itself (ids preserved) on success, None
    if no decomposition is found within the search.  Only used on instances
    the theory guarantees to be molecules; a None on such an instance is a
    harness failure.  The search runs on closed element sets of p and
    builds no poset: a single-maximum carrier is certified as an atom by
    glues_to_atom on its two boundaries.
    """
    if len(p) > cap:
        raise BoundExceeded(f"reconstruct called on {len(p)} elements (cap {cap})")
    memo = {}

    def rec(carrier: frozenset):
        if carrier in memo:
            return memo[carrier]
        result = None
        n = p.sub_dim(carrier)
        if len(carrier) == 1 and n == 0:
            result = {"kind": "point"}
        elif carrier:
            maxima = p.sub_maximal(carrier)
            if len(maxima) == 1:
                minus = p.sub_boundary_set(carrier, n - 1, MINUS)
                plus = p.sub_boundary_set(carrier, n - 1, PLUS)
                cm = rec(minus)
                cp = rec(plus)
                if cm is not None and cp is not None and glues_to_atom(p, carrier):
                    result = {"kind": "atom", "left": cm, "right": cp}
            else:
                for cand in _peel_candidates(p, carrier, frozenset()):
                    inner = rec(cand["rest"])
                    if inner is None:
                        continue
                    piece_cert = rec(cand["piece"])
                    if piece_cert is None:
                        continue
                    result = {
                        "kind": "paste_at",
                        "side": cand["side"],
                        "k": cand["k"],
                        "base": inner,
                        "piece": piece_cert,
                        "shared": sorted(map(sid, cand["shared"])),
                    }
                    break
        memo[carrier] = result
        return result

    cert = rec(p.element_set)
    if cert is None:
        return None
    return Molecule(p, cert)
