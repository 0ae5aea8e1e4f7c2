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
    bits,
    build,
    canonical_key,
    embedding_defect,
    find_iso,
    map_mask,
    same_ids,
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
    _boundary_posets: dict = field(default_factory=dict, repr=False)

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
            q = self.boundary_poset(n, sign)
            if q is self.poset:
                self._boundaries[key] = identity_inclusion(self)
            else:
                src = Molecule(q, {"kind": "boundary", "n": n, "sign": sign,
                                   "of": self.certificate})
                p = self.poset
                self._boundaries[key] = Inclusion(src, self, bits(p.boundary_mask(p.full, n, sign)),
                                                  kind="boundary")
        return self._boundaries[key]

    def boundary_poset(self, n: int, sign: str) -> OgPoset:
        """The sub-poset on the n-boundary of the given sign, its ids in
        order, or the poset itself for n >= dim; memoised.  It is the
        source of boundary(n, sign); paste and atom read it without the
        inclusion, so its colours are computed once per molecule."""
        key = (n, sign)
        q = self._boundary_posets.get(key)
        if q is None:
            p = self.poset
            mask = p.boundary_mask(p.full, n, sign)
            q = p if mask == p.full else p.restrict_mask(mask)
            self._boundary_posets[key] = q
        return q

    def boundary_molecule(self, n=None, sign=MINUS) -> "Molecule":
        return self.boundary(n, sign).source


@dataclass(eq=False)
class Inclusion:
    """Tracked injective map of shapes, tagged with how it arose: ids is
    the id image, the target id of each source id."""

    source: Molecule
    target: Molecule
    ids: list
    kind: str = "inclusion"

    def __post_init__(self):
        defect = embedding_defect(self.source.poset, self.target.poset, self.ids)
        if defect is not None:
            raise BadEmbedding(f"inclusion: {defect}")

    @property
    def image(self) -> int:
        """The mask of the image in the target."""
        return map_mask(self.source.poset.full, self.ids)

    @property
    def rewritable(self) -> bool:
        return self.source.dim == self.target.dim and is_round(self.source)


def identity_inclusion(m: Molecule) -> Inclusion:
    return Inclusion(m, m, list(range(len(m))), kind="iso")


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


def paste_along(a: OgPoset, b: OgPoset, glue: list):
    """Pushout of a <- dom(glue) -> b in oriented graded posets.

    glue is an id image on a: the id in b of each glued id of a, -1 for
    the others.  It must map a closed subset of a isomorphically onto a
    closed subset of b.  a keeps its ids in the pushout, and the unglued
    ids of b follow in b's order.  Returns the pushout and the id images
    of a and of b in it.  The pushout's labels are decoded on first read:
    a's under the in0 tag, the unglued elements of b under in1, so the
    shared part keeps the left labels.  It is built on masks with no
    build() re-check: a glue that preserves dimension and faces leaves
    every element with nonempty, disjoint face sides one dimension below.
    """
    na, nb = len(a), len(b)
    b_image = [-1] * nb  # b id -> pushout id
    for i, j in enumerate(glue):
        if j < 0:
            continue
        if j >= nb or a.dims[i] != b.dims[j]:
            raise BadEmbedding(f"glue must preserve dimension at {sid(a.labels[i])}")
        if b_image[j] >= 0:
            raise BadEmbedding(f"glue must be injective at {sid(a.labels[i])}")
        b_image[j] = i
    for i, j in enumerate(glue):
        if j >= 0 and (map_mask(a.fin[i], glue) != b.fin[j]
                       or map_mask(a.fout[i], glue) != b.fout[j]):
            raise BadEmbedding(f"glue must preserve faces at {sid(a.labels[i])}")

    rest = [j for j, i in enumerate(b_image) if i < 0]
    for k, j in enumerate(rest):
        b_image[j] = na + k

    def labels():
        b_labels = b.labels
        return (*[inl(x) for x in a.labels], *[inr(b_labels[j]) for j in rest])

    poset = OgPoset(a.dims + [b.dims[j] for j in rest],
                    a.fin + [map_mask(b.fin[j], b_image) for j in rest],
                    a.fout + [map_mask(b.fout[j], b_image) for j in rest],
                    labels)
    return poset, list(range(na)), b_image


# -- pastings --------------------------------------------------------------


def _glue(n: int, keys: list, values: list) -> list:
    """The id image on n ids with values[t] at keys[t], -1 elsewhere."""
    glue = [-1] * n
    for i, j in zip(keys, values):
        glue[i] = j
    return glue


def _glue_certificate(a: OgPoset, b: OgPoset, glue: list) -> dict:
    """A glue as certificates print it: sid to sid, sorted by the left sid."""
    a_labels, b_labels = a.labels, b.labels
    return dict(sorted((sid(a_labels[i]), sid(b_labels[j]))
                       for i, j in enumerate(glue) if j >= 0))


def _pasted(m1: Molecule, m2: Molecule, glue: list, cert: dict, k: int) -> Molecule:
    """The pushout of m1 and m2 along glue, with the two inclusions and the
    generalised pasting at level k recorded as its provenance."""
    poset, inj1, inj2 = paste_along(m1.poset, m2.poset, glue)
    result = Molecule(poset, {**cert, "left": m1.certificate, "right": m2.certificate,
                              "glue": _glue_certificate(m1.poset, m2.poset, glue)})
    left = Inclusion(m1, result, inj1, kind="paste-left")
    right = Inclusion(m2, result, inj2, kind="paste-right")
    result.provenance["left"] = left
    result.provenance["right"] = right
    result.provenance["gencp"] = GeneralisedPasting(result, left.image, right.image, k)
    return result


def paste(m1: Molecule, m2: Molecule, k: int) -> Molecule:
    """Pasting m1 #_k m2 along the unique iso bd_k+ m1 = bd_k- m2."""
    if k < 0:
        raise LevelOutOfRange(f"pasting level {k} is negative")
    iso = find_iso(m1.boundary_poset(k, PLUS), m2.boundary_poset(k, MINUS))
    if iso is None:
        raise BoundaryMismatch(
            f"bd_{k}+ of the left shape is not isomorphic to bd_{k}- of the right shape"
        )
    p1, p2 = m1.poset, m2.poset
    targets = bits(p2.boundary_mask(p2.full, k, MINUS))
    glue = _glue(len(p1), bits(p1.boundary_mask(p1.full, k, PLUS)), [targets[j] for j in iso])
    return _pasted(m1, m2, glue, {"kind": "paste", "k": k}, k)


def paste_at(m1: Molecule, iota: Inclusion, m2: Molecule, side: str, k: int) -> Molecule:
    """Pasting at a submolecule.

    side "left": iota : bd_k+ m1 -> bd_k- m2 rewritable; m1 is glued onto
    the input side of m2.  side "right": iota : bd_k- m2 -> bd_k+ m1; m2 is
    glued onto the output side of m1.  Either way the left argument keeps
    its ids in the pushout.  The source of iota must be the boundary on
    ids, the sub-poset that restrict_mask gives, as Molecule.boundary
    builds it, and its target the shape it lands in.
    """
    if k < 0:
        raise LevelOutOfRange(f"pasting level {k} is negative")
    if side not in ("left", "right"):
        raise LevelOutOfRange(f"unknown side {side!r}")
    if side == "left":
        src_poset, src_sign, tgt_poset, tgt_sign = m1.poset, PLUS, m2.poset, MINUS
    else:
        src_poset, src_sign, tgt_poset, tgt_sign = m2.poset, MINUS, m1.poset, PLUS
    expected_src = src_poset.boundary_mask(src_poset.full, k, src_sign)
    expected_tgt = tgt_poset.boundary_mask(tgt_poset.full, k, tgt_sign)
    if not same_ids(iota.source.poset, src_poset.restrict_mask(expected_src)):
        raise NotRewritable("inclusion source does not match the required boundary")
    if not same_ids(iota.target.poset, tgt_poset):
        raise NotRewritable("inclusion target is not the shape it lands in")
    if iota.image & ~expected_tgt:
        raise NotRewritable("inclusion image does not land in the required boundary")
    # rewritability is against the boundary the inclusion lands in, not the
    # whole molecule: round source of the same dimension
    if not is_round(iota.source):
        raise NotRewritable("inclusion source must be round")
    if iota.source.dim != tgt_poset.dim_mask(expected_tgt):
        raise NotRewritable("inclusion must not drop dimension into its boundary")

    if side == "left":  # m1 boundary ids -> m2 ids
        glue = _glue(len(m1), bits(expected_src), iota.ids)
    else:  # m1 ids -> m2 boundary ids
        glue = _glue(len(m1), iota.ids, bits(expected_src))
    return _pasted(m1, m2, glue, {"kind": "paste_at", "side": side, "k": k}, k)


def atom(m1: Molecule, m2: Molecule) -> Molecule:
    """The atom m1 => m2: one fresh top element over the glued boundaries."""
    n = m1.dim
    if n != m2.dim:
        raise DimMismatch(f"atom inputs have dimensions {m1.dim} and {m2.dim}")
    if not is_round(m1) or not is_round(m2):
        raise NotRound("atom inputs must be round")
    p1, p2 = m1.poset, m2.poset
    glue = [-1] * len(p1)
    for s in SIGNS:
        iso = find_iso(m1.boundary_poset(n - 1, s), m2.boundary_poset(n - 1, s))
        if iso is None:
            raise BoundaryMismatch(f"bd{s} of the two inputs are not isomorphic")
        targets = bits(p2.boundary_mask(p2.full, n - 1, s))
        for i, j in zip(bits(p1.boundary_mask(p1.full, n - 1, s)), iso):
            if glue[i] >= 0 and glue[i] != targets[j]:
                raise BoundaryMismatch("input and output boundary isos disagree on the overlap")
            glue[i] = targets[j]
    poset, inj1, inj2 = paste_along(p1, p2, glue)
    # the top's faces: the n-cells of each input, which the glue along the
    # (n-1)-boundaries keeps apart; m1 keeps its ids.  Empty inputs have
    # none, and their atom is a point.
    top_in = p1.grade_masks()[n] if n >= 0 else 0
    top_out = map_mask(p2.grade_masks()[n], inj2) if n >= 0 else 0
    cert = {
        "kind": "atom",
        "left": m1.certificate,
        "right": m2.certificate,
        "glue": _glue_certificate(p1, p2, glue),
    }
    result = Molecule(OgPoset(poset.dims + [n + 1], poset.fin + [top_in],
                              poset.fout + [top_out], lambda: (*poset.labels, TOP_ID)), cert)
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
    generalised pasting at the level-k boundary; left and right are masks
    of the ambient's ids."""

    ambient: Molecule
    left: int
    right: int
    level: int
    checked: bool = False

    @property
    def shared(self) -> int:
        return self.left & self.right


def recognise_generalised_pasting(
    ambient: Molecule,
    left: int,
    right: int,
    k: int,
    *,
    reconstruct_cap: int = 120,
    verdicts: dict | None = None,
):
    """Check the three generalised-pasting conditions for a decomposition.

    left and right are closed masks of the ambient's ids covering it.
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
    if left | right != w.full:
        return None
    if not (w.is_closed_mask(left) and w.is_closed_mask(right)):
        return None
    meet = left & right
    bd = w.boundary_mask

    # condition 1: the shared part lies in bd_k+ of the left and bd_k- of
    # the right piece
    if meet & ~bd(left, k, PLUS) or meet & ~bd(right, k, MINUS):
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
    if bd(left, k, MINUS) & ~bdm or bd(right, k, PLUS) & ~bdp:
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
    g1 = stage(bdm, bd(left, k, MINUS), PLUS, left)
    g2 = stage(g1, bd(right, k, MINUS), PLUS, right)
    # U cpsub (V cpsub bd_k+ W)
    h1 = stage(bdp, bd(right, k, PLUS), MINUS, right)
    h2 = stage(h1, bd(left, k, PLUS), MINUS, left)
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
