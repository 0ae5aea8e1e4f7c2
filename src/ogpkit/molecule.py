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
    NotComposable,
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
    bits,
    build,
    canonical_key,
    embedding_defect,
    find_iso,
    map_mask,
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
        return self.poset.labels[self.top_id()]

    def top_id(self) -> int:
        """The id of the unique maximal element of an atom."""
        ms = self.poset.maximal_mask(self.poset.full)
        if ms.bit_count() != 1:
            raise NotRound(f"shape with {ms.bit_count()} maximal elements is not an atom")
        return ms.bit_length() - 1

    def is_atom(self) -> bool:
        return self.poset.maximal_mask(self.poset.full).bit_count() == 1

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
        if not (self.target is other.source or self.target.poset == other.source.poset):
            raise NotComposable("inclusion: the second source is not the first target")
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


def is_round(shape, subset: int | None = None) -> bool:
    """Lower boundaries intersect minimally: bd_k- meets bd_k+ in bd_(k-1).

    With subset, the mask of a closed subset of the shape's poset, the
    question is asked of the sub-poset on it, read from the poset's masks.
    """
    p = shape.poset if isinstance(shape, Molecule) else shape
    m = p.full if subset is None else subset
    bd = p.boundary_mask
    for k in range(p.dim_mask(m)):
        if bd(m, k, MINUS) & bd(m, k, PLUS) != bd(m, k - 1, MINUS) | bd(m, k - 1, PLUS):
            return False
    return True


# -- pushout gluing --------------------------------------------------------


def paste_along(a: OgPoset, b: OgPoset, glue: dict):
    """Pushout of a <- dom(glue) -> b in oriented graded posets.

    glue maps a closed subset of a isomorphically onto a closed subset of b.
    Left elements keep their ids under the in0 tag, unshared right elements
    under in1, and the shared part keeps the left ids.  The pushout is
    built on masks with no build() re-check: a keeps its ids, the unshared
    elements of b follow in b's order, and a glue that preserves dimension
    and faces leaves every element with nonempty, disjoint face sides one
    dimension below.
    """
    a_index, b_index = a.index, b.index
    image = [-1] * len(a)  # a id -> b id, on the glued ids
    for x, y in glue.items():
        i, j = a_index.get(x), b_index.get(y)
        if i is None or j is None or a.dims[i] != b.dims[j]:
            raise BadEmbedding(f"glue must preserve dimension at {sid(x)}")
        image[i] = j
    for x, y in glue.items():
        i, j = a_index[x], b_index[y]
        if map_mask(a.fin[i], image) != b.fin[j] or map_mask(a.fout[i], image) != b.fout[j]:
            raise BadEmbedding(f"glue must preserve faces at {sid(x)}")

    na = len(a)
    b_image = [-1] * len(b)  # b id -> pushout id
    for i, j in enumerate(image):
        if j >= 0:
            b_image[j] = i
    rest = [j for j, i in enumerate(b_image) if i < 0]
    for k, j in enumerate(rest):
        b_image[j] = na + k
    a_labels = [inl(x) for x in a.labels]
    b_labels = b.labels
    labels = (*a_labels, *[inr(b_labels[j]) for j in rest])
    poset = OgPoset(a.dims + [b.dims[j] for j in rest],
                    a.fin + [map_mask(b.fin[j], b_image) for j in rest],
                    a.fout + [map_mask(b.fout[j], b_image) for j in rest],
                    labels)
    inj_a = dict(zip(a.labels, a_labels))
    inj_b = {y: labels[b_image[j]] for j, y in enumerate(b_labels)}
    return poset, inj_a, inj_b


# -- pastings --------------------------------------------------------------


def paste(m1: Molecule, m2: Molecule, k: int) -> Molecule:
    """Pasting m1 #_k m2 along the unique iso bd_k+ m1 = bd_k- m2."""
    if k < 0:
        raise LevelOutOfRange(f"pasting level {k} is negative")
    p1, p2 = m1.poset, m2.poset
    b1 = p1.restrict_mask(p1.boundary_mask(p1.full, k, PLUS))
    b2 = p2.restrict_mask(p2.boundary_mask(p2.full, k, MINUS))
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
    p1, p2 = m1.poset, m2.poset
    for s in SIGNS:
        b1 = p1.restrict_mask(p1.boundary_mask(p1.full, n - 1, s))
        b2 = p2.restrict_mask(p2.boundary_mask(p2.full, n - 1, s))
        iso = find_iso(b1, b2)
        if iso is None:
            raise BoundaryMismatch(f"bd{s} of the two inputs are not isomorphic")
        for x, y in iso.mapping.items():
            if x in glue and glue[x] != y:
                raise BoundaryMismatch("input and output boundary isos disagree on the overlap")
            glue[x] = y
    poset, inj1, inj2 = paste_along(p1, p2, glue)
    # the top's faces: the n-cells of each input, which the glue along the
    # (n-1)-boundaries keeps apart
    top_in = poset.encode(inj1[x] for x in p1.grade(n))
    top_out = poset.encode(inj2[y] for y in p2.grade(n))
    cert = {
        "kind": "atom",
        "left": m1.certificate,
        "right": m2.certificate,
        "glue": {sid(x): sid(y) for x, y in sorted(glue.items(), key=lambda i: sid(i[0]))},
    }
    result = Molecule(OgPoset(poset.dims + [n + 1], poset.fin + [top_in],
                              poset.fout + [top_out], (*poset.labels, TOP_ID)), cert)
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
    if left | right != w.element_set:
        return None
    lm, rm = w.encode(left), w.encode(right)
    if not (w.is_closed_mask(lm) and w.is_closed_mask(rm)):
        return None
    meet = lm & rm
    if shared is not None and w.encode(shared) != meet:
        return None
    bd = w.boundary_mask

    # condition 1: the shared part lies in bd_k+ of the left and bd_k- of
    # the right piece
    if meet & ~bd(lm, k, PLUS) or meet & ~bd(rm, k, MINUS):
        return None
    bdm = bd(w.full, k, MINUS)
    bdp = bd(w.full, k, PLUS)
    # condition 2: both k-boundaries of the union are molecules
    if verdicts is None:
        verdicts = {}
    for subset in (bdm, bdp):
        if not _is_molecule(w.restrict_mask(subset), reconstruct_cap, verdicts):
            return None
    # condition 3
    if bd(lm, k, MINUS) & ~bdm or bd(rm, k, PLUS) & ~bdp:
        return None

    def stage(base: int, piece_bd: int, target_sign: str, piece: int) -> int:
        """One pasting stage: glue piece onto base along piece_bd, which must
        land in the target_sign k-boundary of base."""
        target = bd(base, k, target_sign)
        if piece_bd & ~target:
            raise RecognitionFailed(
                "generalised pasting factorisation stage failed",
                {
                    "level": k,
                    "stage_boundary": w.sids(piece_bd),
                    "target": w.sids(target),
                },
            )
        return base | piece

    # (bd_k- W subcp U) subcp V
    g1 = stage(bdm, bd(lm, k, MINUS), PLUS, lm)
    g2 = stage(g1, bd(rm, k, MINUS), PLUS, rm)
    # U cpsub (V cpsub bd_k+ W)
    h1 = stage(bdp, bd(rm, k, PLUS), MINUS, rm)
    h2 = stage(h1, bd(lm, k, PLUS), MINUS, lm)
    if g2 != w.full or h2 != w.full:
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


def _peel_candidates(p: OgPoset, carrier: int, protected: int) -> list:
    """Pasting peels of one maximal element's closure off a carrier, all
    masks of p.

    Returns dicts describing carrier = rest (subcp / cpsub) cl{top} at
    level dim(top) - 1, top an id and the rest masks, with the set-level
    pasting preconditions checked on p's masks.
    """
    dims = p.dims
    rank = p.sid_ranks()
    cin, cout = p.coface_masks()
    cl = p.closure_masks()
    bd = p.boundary_mask
    out = []
    for top in sorted(bits(p.maximal_mask(carrier)), key=lambda i: (-dims[i], rank[i])):
        d = dims[top]
        if d < 1 or protected >> top & 1:
            continue
        piece = cl[top]
        k = d - 1
        for side, keep_sign, attach_sign in (("right", MINUS, PLUS), ("left", PLUS, MINUS)):
            shared = bd(piece, k, keep_sign)
            removed = piece & ~shared
            if removed & protected:
                continue
            rest = carrier & ~removed
            # the carrier is closed, so only a coface of a removed element
            # can leave rest open
            if not rest or any((cin[x] | cout[x]) & rest for x in bits(removed)):
                continue
            # rest holds shared, which has dimension k
            if shared & ~bd(rest, k, attach_sign):
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


def find_derivation(p: OgPoset, carrier: int, hole: int, allowed: int | None = None,
                    max_states: int = 500_000):
    """Exhaustive peel search: decompose carrier onto hole by extended
    pastings of single atoms.

    carrier and hole are closed masks of p.  allowed, when given, is a
    mask of p that restricts the tops of pasted atoms (the shape-level
    A-context condition).  Returns the steps ordered from the hole
    outward, each a dict of _peel_candidates (top an id, the rest masks
    of p), or None.  Complete at the sizes this package targets: all
    peel orders are explored with memoisation on the remaining carrier.
    """
    failed = set()
    states = 0

    def dfs(current: int):
        nonlocal states
        if current == hole:
            return []
        if current in failed:
            return None
        states += 1
        if states > max_states:
            raise BoundExceeded("derivation search exceeded its state budget")
        for cand in _peel_candidates(p, current, hole):
            if allowed is not None and not allowed >> cand["top"] & 1:
                continue
            inner = dfs(cand["rest"])
            if inner is not None:
                return inner + [cand]
        failed.add(current)
        return None

    return dfs(carrier)


def replay_derivation(p: OgPoset, hole: int, steps, expect: int) -> bool:
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


def glues_to_atom(p: OgPoset, carrier: int) -> bool:
    """Whether a closed mask of p with one maximal element, whose two
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
    bd = p.boundary_mask
    n = p.dim_mask(carrier)
    minus = bd(carrier, n - 1, MINUS)
    plus = bd(carrier, n - 1, PLUS)
    if not (is_round(p, minus) and is_round(p, plus)):
        return False
    rim = 0
    for s in SIGNS:
        lower = bd(minus, n - 2, s)
        if lower != bd(plus, n - 2, s):
            return False
        rim |= lower
    return minus & plus == rim


def reconstruct(p: OgPoset, cap: int = 120) -> Molecule | None:
    """Bounded certifier: rebuild a paste/atom certificate for a poset.

    Returns a Molecule carrying p itself (ids preserved) on success, None
    if no decomposition is found within the search.  Only used on instances
    the theory guarantees to be molecules; a None on such an instance is a
    harness failure.  The search runs on closed masks of p and builds no
    poset: a single-maximum carrier is certified as an atom by
    glues_to_atom on its two boundaries.
    """
    if len(p) > cap:
        raise BoundExceeded(f"reconstruct called on {len(p)} elements (cap {cap})")
    memo = {}
    bd = p.boundary_mask

    def rec(carrier: int):
        if carrier in memo:
            return memo[carrier]
        result = None
        n = p.dim_mask(carrier)
        if n == 0 and carrier & (carrier - 1) == 0:
            result = {"kind": "point"}
        elif carrier:
            maxima = p.maximal_mask(carrier)
            if maxima & (maxima - 1) == 0:
                cm = rec(bd(carrier, n - 1, MINUS))
                cp = rec(bd(carrier, n - 1, PLUS))
                if cm is not None and cp is not None and glues_to_atom(p, carrier):
                    result = {"kind": "atom", "left": cm, "right": cp}
            else:
                for cand in _peel_candidates(p, carrier, 0):
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
                        "shared": p.sids(cand["shared"]),
                    }
                    break
        memo[carrier] = result
        return result

    cert = rec(p.full)
    if cert is None:
        return None
    return Molecule(p, cert)
