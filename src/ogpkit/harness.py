"""Catalog enumeration and the lemma-checking suite.

Every checker computes both sides of its identity independently: boundary
rules are evaluated on product or pasted carriers directly, while the
formula side is assembled from the factors, so neither side reuses the
construction under test as its own oracle.  Reports are deterministic for
a fixed configuration; the random seed only drives the mutation check.

Every identity follows one protocol.  `<lemma>_instances(catalog)`
yields `(inputs, thunk)` pairs, and `run_instances`, the runner behind
`check`, does the rest.  A thunk returns None when its instance passes,
and otherwise the failure as `(expected, got)`, or a list of them where
one instance can fail in more than one way.  A failure of two element
sets, from `_masks_differ`, is `(expected, got, diff)`: diff adds what got
misses ("missing") and what it has besides ("extra") to the record, so a
reader need not compare the two lists.  The runner counts the
instances and calls each thunk before it advances the generator, so a
thunk may close over loop variables.  It records every failure with the
instance's inputs.  A `ShapeError` raised inside a thunk (`BoundExceeded`,
`IdentityFailed`, `RecognitionFailed`, `NotAContext`, ...) fails that
instance alone: the expected side is the lemma's label and the got side is
the exception's certificate, or its message where it carries none.  Any
other exception is a programming error and propagates.  Setup in a
generator body runs outside that isolation: a `ShapeError` there, which a
correct kernel never raises, is recorded as one failure of the lemma with
inputs {"stage": "setup"}, and ends that lemma's run.  MUTATION inverts
the comparator's verdict and keeps its own body.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from typing import NamedTuple

from .contexts import (
    ContextShape,
    atomic_horn,
    classified_context,
    is_a_context,
    marked_horn,
    pp_horn,
    pp_marked_horn,
)
from .cylinder import (
    collapse_defect,
    gray_cylinder,
    invertor_shape,
    unit_shape,
)
from .errors import BoundExceeded, NotAContext, ShapeError, UnknownLemma
from .exprlang import CONSTRUCTORS, text
from .gray import (
    gray,
    gray_boundary_decomposition,
    gray_poset,
    gray_split_of_generalised_pasting,
    op_swap_iso,
    swap_ids,
    twist,
)
from .marked import (
    generators,
    pushout_product,
    residual,
    residual_formula,
    residual_formula_swapped,
    residual_upper_bound,
)
from .molecule import (
    Molecule,
    arrow,
    atom,
    dual,
    is_round,
    op,
    paste,
    paste_at,
    point,
    reconstruct,
    recognise_generalised_pasting,
)
from .poset import (
    MINUS,
    PLUS,
    SIGNS,
    OgPoset,
    all_isos,
    bits,
    find_iso,
    flip,
    iso_invariant,
    map_mask,
    preimage,
    spread,
)

# Size caps on the instances, in elements of the shapes involved.
PRODUCT_CAP = 140  # |U| * |V| of a Gray product
SPLIT_CAP = 45  # |U| * |V| for the two-piece splits of GRAY_BOUNDARY
GENCP_PRODUCT_CAP = 60  # |ambient| * |V| for pastings moved through products
PASTE_CAP = 14  # |w| + |u| of the pastings at a submolecule
RECOGNISE_CAP = 40  # product boundaries DIST_LOWER re-recognises
CYLINDER_CAP = 9  # bases of cylinders and invertor shapes
ATOM_CLOSURE_CAP = 16  # shapes whose element closures are reconstructed
HORN_U_CAP = 11  # atoms that carry marked horns
HORN_V_CAP = 9  # atoms under the cellular-model generators
MARKED_PRODUCT_CAP = 70  # |U| * |V| for marked-horn pushout-products
CTX_FACTOR_COUNT = 4  # right factors of the pasted-subdiagram contexts
DIST_FACTOR_COUNT = 8  # right factors of DIST_LOWER


@dataclass
class Bounds:
    """Catalog generation bounds."""

    depth: int = 2
    max_dim: int = 4
    max_elements: int = 16


@dataclass
class CatalogEntry:
    expr: str
    molecule: Molecule
    depth: int


@dataclass
class Catalog:
    bounds: Bounds
    entries: list

    def __post_init__(self):
        # keyed by identity: the lemmas hand back the catalog's own molecules
        self._names = {id(e.molecule): e.expr for e in self.entries}

    def molecules(self):
        return [e.molecule for e in self.entries]

    def atoms(self, max_dim=None, min_dim=0, max_elements=None):
        out = []
        for e in self.entries:
            m = e.molecule
            if not m.is_atom():
                continue
            if m.dim < min_dim or (max_dim is not None and m.dim > max_dim):
                continue
            if max_elements is not None and len(m) > max_elements:
                continue
            out.append(m)
        return out

    def round_molecules(self):
        return [e.molecule for e in self.entries if is_round(e.molecule)]

    def expr_of(self, m: Molecule) -> str:
        return self._names.get(id(m), "<anonymous>")


class _Row(NamedTuple):
    """What the depth loop reads of one entry before it builds a candidate.
    plus[k] and minus[k], for k below max_dim, number the iso_invariants of
    bd_k+ and bd_k- (equal numbers for equal invariants), and plus_sizes[k]
    is the size of bd_k+."""

    dim: int
    size: int
    round: bool
    plus: list
    minus: list
    plus_sizes: list
    full_boundary: int  # the size of bd_(dim-1)- u bd_(dim-1)+


def _boundary_rows(previous: list, max_dim: int) -> list:
    """The _Row of each entry of previous.  Its keys are read from the
    boundary sub-posets that Molecule.boundary_poset memoises and paste and
    atom read, so the colours behind each key are computed once and
    find_iso reuses them."""
    numbers: dict = {}

    def keys(m, sign):
        return [numbers.setdefault(iso_invariant(m.boundary_poset(k, sign)), len(numbers))
                for k in range(max_dim)]

    return [_Row(m.dim, len(m), is_round(m), keys(m, PLUS), keys(m, MINUS),
                 [len(m.boundary_poset(k, PLUS)) for k in range(max_dim)],
                 m.poset.full_boundary_mask().bit_count())
            for m in (e.molecule for e in previous)]


def _binary_candidates(r1: _Row, r2: _Row) -> list:
    """The binary constructions worth trying on a pair, in the order the
    depth loop tries them, each as (kind, k, size, dim) of what it would
    build: the Gray product; each paste whose bd_k+ and bd_k- keys agree;
    and the atom, when both inputs are round of one dimension n and their
    (n-1)-boundaries agree sign by sign.  Isomorphic posets have equal
    invariants, so every construction left out would raise."""
    dim = max(r1.dim, r2.dim)
    out = [("gray", None, r1.size * r2.size, r1.dim + r2.dim)]
    for k in range(dim):
        if r1.plus[k] == r2.minus[k]:
            out.append(("paste", k, r1.size + r2.size - r1.plus_sizes[k], dim))
    n = r1.dim
    if n == r2.dim and r1.round and r2.round and (
            n == 0 or r1.plus[n - 1] == r2.plus[n - 1] and r1.minus[n - 1] == r2.minus[n - 1]):
        out.append(("atom", None, r1.size + r2.size + 1 - r1.full_boundary, n + 1))
    return out


def enumerate_catalog(bounds: Bounds) -> Catalog:
    """Closure of {point, arrow} under paste, atom, gray, cylinders and
    inverted cylinders up to the bounds, with duals taken for free and
    deduplication up to isomorphism.

    A binary candidate is built only if `add` could keep it.  Its size and
    dimension follow from its inputs: |m1| + |m2| - |bd_k+ m1| and
    max(d1, d2) for a paste, |m1| + |m2| + 1 - |bd_(n-1)- m1 u bd_(n-1)+ m1|
    and n + 1 for an atom of two n-dimensional inputs, |m1| |m2| and
    d1 + d2 for a Gray product; a candidate over the bounds is skipped.  A paste or atom is
    tried only where the iso_invariants of the boundaries it glues agree
    (_binary_candidates); isomorphic posets have equal invariants, so every
    other one would raise.  What is skipped is exactly what `add` would
    reject or the constructor refuse, so the entries, their order and the
    dedup choices are those of trying every candidate."""
    entries: list[CatalogEntry] = []
    buckets: dict = {}

    def known(m: Molecule):
        key = iso_invariant(m.poset)
        for other in buckets.get(key, ()):
            if find_iso(m.poset, other.poset) is not None:
                return True
        return False

    def add(m: Molecule, depth: int, head: str, *args) -> bool:
        """Keep m, named text(head, *args), unless it is out of bounds or
        known; the name is printed only for an entry kept."""
        if m.dim > bounds.max_dim or len(m) > bounds.max_elements or len(m) == 0:
            return False
        if known(m):
            return False
        entry = CatalogEntry(text(head, *args), m, depth)
        entries.append(entry)
        buckets.setdefault(iso_invariant(m.poset), []).append(m)
        return True

    def close_under_duals(depth: int):
        # duals do not change size, so they cost no depth
        frontier = list(entries)
        while frontier:
            nxt = []
            for e in frontier:
                m = e.molecule
                candidates = [(op(m), ("op", e.expr))]
                for j in range(1, m.dim + 1):
                    candidates.append((dual(m, {j}), ("dual", {j}, e.expr)))
                for d, name in candidates:
                    if add(d, e.depth, *name):
                        nxt.append(entries[-1])
            frontier = nxt

    add(point(), 0, "point")
    add(arrow(), 0, "arrow")
    close_under_duals(0)

    for depth in range(1, bounds.depth + 1):
        previous = list(entries)
        rows = _boundary_rows(previous, bounds.max_dim)
        for e1, r1 in zip(previous, rows):
            m1 = e1.molecule
            # unary constructors
            p1 = m1.poset
            if m1.dim >= 1:
                sets = [(p1.full_boundary_mask(), ("unit", e1.expr))]
                for sign in (MINUS, PLUS):
                    K = p1.boundary_mask(p1.full, m1.dim - 1, sign)
                    sets.append((K, ("cyl", e1.expr, p1.decode(K))))
                for K, name in sets:
                    try:
                        c = gray_cylinder(m1, K)
                    except ShapeError:
                        continue
                    add(c, depth, *name)
            if r1.round and m1.dim >= 1:
                for head in ("lcyl", "rcyl"):
                    try:
                        c = CONSTRUCTORS[head][1](m1)
                    except ShapeError:
                        continue
                    add(c, depth, head, e1.expr)
            for e2, r2 in zip(previous, rows):
                m2 = e2.molecule
                for kind, k, size, dim in _binary_candidates(r1, r2):
                    if size > bounds.max_elements or dim > bounds.max_dim:
                        continue
                    if kind == "gray":
                        add(gray(m1, m2), depth, "gray", e1.expr, e2.expr)
                        continue
                    try:
                        c = paste(m1, m2, k) if kind == "paste" else atom(m1, m2)
                    except ShapeError:
                        continue
                    level = (k,) if kind == "paste" else ()
                    add(c, depth, kind, e1.expr, e2.expr, *level)
        del rows  # the keys serve one depth; keep peak memory flat
        close_under_duals(depth)
    return Catalog(bounds, entries)


# -- reports and the runner ----------------------------------------------------


@dataclass
class LemmaReport:
    lemma: str
    instances: int = 0
    failures: list = field(default_factory=list)
    warning: str = ""

    @property
    def status(self) -> str:
        return "fail" if self.failures else "pass"

    def to_dict(self) -> dict:
        doc = {
            "lemma": self.lemma,
            "instances": self.instances,
            "failures": self.failures,
            "status": self.status,
        }
        if self.warning:
            doc["warning"] = self.warning
        return doc

    def record(self, inputs, expected, got, diff=None):
        """Append one failure; diff, when given, adds its keys to it."""
        self.failures.append({
            "lemma": self.lemma,
            "inputs": inputs,
            "expected": expected,
            "got": got,
            **(diff or {}),
        })


def _raised(exc: ShapeError):
    """The got side of a failure that raised: its certificate, or its
    message where it carries none."""
    return getattr(exc, "certificate", None) or str(exc)


def run_instances(lemma_id: str, instances, label: str, catalog: Catalog,
                  config) -> LemmaReport:
    """Run the (inputs, thunk) pairs that instances(catalog) yields: count
    them, record each failure with its inputs, and turn a ShapeError from
    a thunk into the failure (label, certificate or message) of that
    instance alone.  A ShapeError from the generator's own setup becomes
    one failure with inputs {"stage": "setup"} and ends the run.  config
    is unread: LEMMAS share one signature with check_mutation."""
    rep = LemmaReport(lemma_id)
    try:
        for inputs, thunk in instances(catalog):
            rep.instances += 1
            try:
                failed = thunk()
            except ShapeError as exc:
                failed = label, _raised(exc)
            if failed is None:
                continue
            for failure in failed if isinstance(failed, list) else [failed]:
                rep.record(inputs, *failure)
    except ShapeError as exc:
        rep.record({"stage": "setup"}, label, _raised(exc))
    return rep


def _differ(expected, got):
    """None when the two sides agree, else the failure."""
    return None if expected == got else (expected, got)


def _masks_differ(p: OgPoset, expected: int, got: int):
    """None when two masks of p agree, else the failure as sorted labels,
    with what got misses ("missing") and what it has besides ("extra")."""
    if expected != got:
        return p.sids(expected), p.sids(got), {"missing": p.sids(expected & ~got),
                                               "extra": p.sids(got & ~expected)}
    return None


def _failed(expected, got):
    """The thunk of an instance its generator has already found failing."""
    return lambda: (expected, got)


def _raising(fn, *args):
    """The thunk of an instance that fn(*args) fails by raising."""
    def thunk():
        fn(*args)
        return None
    return thunk


def _recognised(ambient: Molecule, left: int, right: int, level: int, verdicts: dict):
    """None when the masks (left, right) are a generalised pasting of the
    ambient at level, else the failure."""
    if recognise_generalised_pasting(ambient, left, right, level,
                                     verdicts=verdicts) is None:
        return "recognised", "conditions failed"
    return None


# -- the lemmas ----------------------------------------------------------------


def gray_union_rows(u: Molecule, v: Molecule) -> dict:
    """The rows of the union formula's terms for one pair: per (k, sign),
    bd_k^sign U spread at stride |V|, for k = 0 .. dim U + dim V."""
    p, nq = u.poset, len(v)
    return {(k, sign): spread(p.boundary_mask(p.full, k, sign), nq)
            for k in range(u.dim + v.dim + 1) for sign in SIGNS}


def check_gray_boundary_sides(product: OgPoset, rows: dict, v: Molecule,
                              n: int, sign: str):
    """Direct boundary of the (possibly tampered) product vs the union
    formula evaluated on the factors.  Returns (direct, union) as masks of
    product ids, (i, j) at i * |V| + j: the direct side reads the
    product's faces, the union side only the factors' boundaries.

    rows is gray_union_rows(U, V), built once per pair.  The union's term
    k is the grid of bd_k^sign U and bd_(n-k)^((-)^k . sign) V: the row
    of (k, sign) times the second."""
    q = v.poset
    direct = product.boundary_mask(product.full, n, sign)
    union = 0
    for k in range(n + 1):
        union |= rows[k, sign] * q.boundary_mask(q.full, n - k, twist(sign, k))
    return direct, union


def gray_boundary_instances(catalog: Catalog):
    mols = catalog.molecules()
    for u, v in itertools.product(mols, mols):
        if len(u) * len(v) > PRODUCT_CAP:
            continue
        product = gray_poset(u.poset, v.poset)
        rows = gray_union_rows(u, v)
        names = {"U": catalog.expr_of(u), "V": catalog.expr_of(v)}
        for n in range(u.dim + v.dim + 1):
            for sign in SIGNS:
                def union_formula():
                    direct, union = check_gray_boundary_sides(product, rows, v, n, sign)
                    return _masks_differ(product, union, direct)

                yield {**names, "n": n, "sign": sign}, union_formula
        # the two-piece splits must cover the boundary as well; these read
        # one sub-boundary per cut, so they run on the smaller pairs
        if len(u) * len(v) > SPLIT_CAP:
            continue
        for n, sign, direct, splits in gray_boundary_decomposition(u.poset, v.poset, product):
            for j, left, right in splits:
                yield ({**names, "n": n, "sign": sign, "j": j},
                       lambda: _masks_differ(product, direct, left | right))


def iso_unique_instances(catalog: Catalog):
    for e in catalog.entries:
        p = e.molecule.poset
        autos = len(all_isos(p, p))
        yield {"shape": e.expr}, lambda: _differ(1, autos)
        if len(p) <= 12:
            yield ({"shape": e.expr, "check": "brute-force"},
                   lambda: _differ(len(brute_force_isos(p, p)), autos))


def brute_force_isos(p: OgPoset, q: OgPoset):
    """Oracle iso enumeration: all dimension-preserving bijections, filtered
    by the face-preservation condition; each an id image."""
    if len(p) != len(q) or p.dim != q.dim:
        return []
    per_dim = []
    for xs, ys in zip(p.grade_masks(), q.grade_masks()):
        if xs.bit_count() != ys.bit_count():
            return []
        per_dim.append((bits(xs), bits(ys)))
    found = []
    for combo in itertools.product(*(itertools.permutations(ys) for _, ys in per_dim)):
        image = [-1] * len(p)
        for (xs, _), perm in zip(per_dim, combo):
            for i, j in zip(xs, perm):
                image[i] = j
        if all(map_mask(p.fin[i], image) == q.fin[j] and map_mask(p.fout[i], image) == q.fout[j]
               for i, j in enumerate(image)):
            found.append(image)
    return found


def _gencp_pastings(catalog: Catalog):
    """Recognised generalised pastings: the canonical decomposition of every
    pasted catalog entry."""
    out = []
    for e in catalog.entries:
        g = e.molecule.provenance.get("gencp")
        if g is not None:
            out.append((e.expr, g))
    return out


def gencp_formula_instances(catalog: Catalog):
    """The factorisation lemma, plus transport of pastings through Gray
    products on both sides."""
    verdicts = {}
    pastings = _gencp_pastings(catalog)
    for expr, g in pastings:
        yield ({"pasting": expr},
               lambda: _recognised(g.ambient, g.left, g.right, g.level, verdicts))
    small = [m for m in catalog.molecules() if len(m) <= 9]
    for (expr, g), v in itertools.product(pastings, small):
        if len(g.ambient) * len(v) > GENCP_PRODUCT_CAP:
            continue
        for side in ("left", "right"):
            left, right, level = gray_split_of_generalised_pasting(g, v, side)

            def transported():
                prod = gray(g.ambient, v) if side == "left" else gray(v, g.ambient)
                return _recognised(prod, left, right, level, verdicts)

            yield ({"pasting": expr, "factor": catalog.expr_of(v), "side": side,
                    "level": level}, transported)


def gencp_boundary_instances(catalog: Catalog):
    """Boundaries of generalised pastings are generalised pastings of the
    piece boundaries, at the same level."""
    verdicts = {}
    for expr, g in _gencp_pastings(catalog):
        amb = g.ambient.poset
        k = g.level
        for n in range(k + 1, amb.dim + 1):
            for sign in SIGNS:
                def boundary():
                    bd_left = amb.boundary_mask(g.left, n, sign)
                    bd_right = amb.boundary_mask(g.right, n, sign)
                    direct = amb.boundary_mask(amb.full, n, sign)
                    if bd_left | bd_right != direct:
                        return _masks_differ(amb, direct, bd_left | bd_right)
                    # the boundary molecule's ids are the bits of direct in order
                    ids = bits(direct)
                    return _recognised(g.ambient.boundary_molecule(n, sign),
                                       preimage(bd_left, ids), preimage(bd_right, ids),
                                       k, verdicts)

                yield {"pasting": expr, "n": n, "sign": sign}, boundary


def _paste_at_instances(catalog: Catalog) -> list:
    """Pastings w cpsub u (w round, glued along its whole output boundary or
    into a facet of the input boundary of u) and the mirrored u subcp w.

    Each is a tuple (kind, w, u, whole, w_img, u_img, sign, vsign) with what
    both paste-at lemmas read off it: the images of w and u in whole, the
    sign of the product boundaries they compare (plus for cpsub, minus for
    subcp), and that sign twisted by the parity of dim w, at which the
    boundaries of the second Gray factor enter the w-piece.
    """
    instances = []

    def add(kind, w, u, whole):
        g = whole.provenance["gencp"]
        w_img, u_img = (g.left, g.right) if kind == "cpsub" else (g.right, g.left)
        sign = PLUS if kind == "cpsub" else MINUS
        instances.append((kind, w, u, whole, w_img, u_img, sign, twist(sign, w.dim)))

    rounds = [m for m in catalog.round_molecules() if 1 <= m.dim]
    others = catalog.molecules()
    for w in rounds:
        n = w.dim
        k = n - 1
        for u in others:
            if u.dim < 1 or len(w) + len(u) > PASTE_CAP:
                continue
            try:
                whole = paste(w, u, k)
                add("cpsub", w, u, whole)
            except ShapeError:
                pass
            try:
                whole = paste(u, w, k)
                add("subcp", w, u, whole)
            except ShapeError:
                pass
            # proper submolecule gluings: facet closures inside the boundary
            if u.dim >= n:
                pu = u.poset
                bd_in = pu.boundary_mask(pu.full, k, MINUS)
                for cell in sorted(bits(bd_in & pu.grade_masks()[k]),
                                   key=pu.sid_ranks().__getitem__):
                    hole = pu.closure_masks()[cell]
                    if hole == bd_in:
                        continue
                    try:
                        whole = paste_at(w, u, hole, k)
                    except ShapeError:
                        continue
                    add("cpsub", w, u, whole)
                    break
    return instances


def _pasted_products(catalog: Catalog, count: int):
    """Each paste-at instance times each of the first count factors v of at
    most 9 elements, as (kind, n, prod, hole, pieces, sign, names): prod is
    whole (x) v, n = dim w, hole the grid of u's image, spread(u_img) . v,
    and pieces[j] the w-piece spread(w_img) . bd_j^vsign v for j up to
    dim u + dim v - n; names holds the factors' expressions."""
    small = [m for m in catalog.molecules() if len(m) <= 9][:count]
    for kind, w, u, whole, w_img, u_img, sign, vsign in _paste_at_instances(catalog):
        n = w.dim
        for v in small:
            if len(whole) * len(v) > PRODUCT_CAP:
                continue
            pv = v.poset
            stride = len(pv)
            w_grid = spread(w_img, stride)
            pieces = [w_grid * pv.boundary_mask(pv.full, j, vsign)
                      for j in range(u.dim + v.dim - n + 1)]
            yield (kind, n, gray_poset(whole.poset, pv), spread(u_img, stride) * pv.full,
                   pieces, sign, {"w": catalog.expr_of(w), "u": catalog.expr_of(u),
                                  "v": catalog.expr_of(v)})


def dist_lower_instances(catalog: Catalog):
    """Distributivity of pastings at a submolecule over Gray products at
    boundaries above the pasting level."""
    verdicts = {}
    for kind, n, prod, u_grid, pieces, sign, names in _pasted_products(catalog,
                                                                        DIST_FACTOR_COUNT):
        for ell, w_piece in enumerate(pieces):
            def distributes():
                direct = prod.boundary_mask(prod.full, n + ell, sign)
                u_side = prod.boundary_mask(u_grid, n + ell, sign)
                formula = w_piece | u_side
                if direct != formula:
                    return _masks_differ(prod, direct, formula)
                if direct.bit_count() > RECOGNISE_CAP:
                    return None
                bd_mol = Molecule(prod.restrict_mask(direct),
                                  {"kind": "boundary", "of": "product"})
                # generalised pasting at n + ell - 1 with the w-piece
                # first for cpsub (it provides the input boundary),
                # second for subcp; bd_mol's ids are the bits of direct
                left, right = (w_piece, u_side) if kind == "cpsub" else (u_side, w_piece)
                ids = bits(direct)
                return _recognised(bd_mol, preimage(left, ids), preimage(right, ids),
                                   n + ell - 1, verdicts)

            yield {**names, "ell": ell, "kind": kind}, distributes


def _telescope(prod: OgPoset, hole: int, pieces: list, sign: str, n: int,
               inputs: dict):
    """bd(hole) u pieces covers the direct boundary at n + ell, where
    ell = len(pieces) - 1, and each stage j meets the pasting precondition
    at n + j - 1; every boundary of a closed subset is read from prod.
    hole and the pieces are masks of prod.  Returns None or the failure,
    naming the part that failed in inputs["detail"]."""
    bd = prod.boundary_mask
    ell = len(pieces) - 1
    direct = bd(prod.full, n + ell, sign)
    hole_bd = bd(hole, n + ell, sign)
    assembled = hole_bd
    for piece in pieces:
        assembled |= piece
    if assembled != direct:
        inputs["detail"] = str(("cover", ell))
        return _masks_differ(prod, direct, assembled)
    # a union of closed subsets is closed
    carrier = hole_bd
    for j, piece in enumerate(pieces):
        level = n + j - 1
        need = bd(piece, level, sign)
        have = bd(carrier, level, flip(sign))
        if need & ~have:
            inputs["detail"] = str(("stage", (ell, j)))
            return _masks_differ(prod, need, have)
        carrier |= piece
    return None


def _telescoping(prod: OgPoset, hole: int, pieces: list, sign: str, n: int,
                 names: dict):
    """One instance per ell of the telescoped recursion; a hole or piece
    that is not closed is one failing instance instead."""
    for where, part in (("hole", hole), *enumerate(pieces)):
        if not prod.is_closed_mask(part):
            yield ({**names, "detail": str(("not closed", where))},
                   _failed("closed subset", prod.sids(part)))
            return
    for ell in range(len(pieces)):
        inputs = dict(names)
        yield inputs, lambda: _telescope(prod, hole, pieces[:ell + 1], sign, n, inputs)


def ctx_recursion_instances(catalog: Catalog):
    """Telescoped context recursions for boundaries and pasted subdiagrams,
    plus transport of marking-restricted contexts through Gray products."""
    small = [m for m in catalog.molecules() if 1 <= len(m) <= 9]

    # boundary-determined contexts: u (x) v with holes along bd(u) (x) v;
    # the pair (x, y) of u (x) v has id x * |v| + y
    for u in catalog.molecules():
        if not 1 <= u.dim or not 1 <= len(u) <= 9:
            continue
        n = u.dim
        pu = u.poset
        for v in small:
            if len(u) * len(v) > PRODUCT_CAP:
                continue
            pv = v.poset
            prod = gray_poset(pu, pv)
            stride = len(pv)
            for side, sign in (("R", PLUS), ("L", MINUS)):
                hole = spread(pu.boundary_mask(pu.full, n - 1, sign), stride) * pv.full
                pieces = [spread(pu.full, stride) * pv.boundary_mask(pv.full, j, twist(sign, n))
                          for j in range(v.dim + 1)]
                yield from _telescoping(prod, hole, pieces, sign, n, {
                    "u": catalog.expr_of(u), "v": catalog.expr_of(v), "side": side})

    # pasted-subdiagram contexts, reusing the paste-at instances
    for kind, n, prod, hole, pieces, sign, names in _pasted_products(catalog, CTX_FACTOR_COUNT):
        yield from _telescoping(prod, hole, pieces, sign, n, {**names, "kind": kind})

    # transport of marking-restricted contexts through the product
    horn_contexts = []
    for uatom in catalog.atoms(max_dim=2, min_dim=1, max_elements=9):
        p = uatom.poset
        top = uatom.top_id()
        for faces in (p.fin, p.fout):
            h = atomic_horn(uatom, min(bits(faces[top]), key=p.sid_ranks().__getitem__))
            ctx = classified_context(h)
            # the horn's positive elements on the facet's side
            pa = ctx.ambient.poset
            marking = pa.full & ~pa.grade_masks()[0] & ~pa.maximal_mask(ctx.hole)
            if is_a_context(ctx, marking) is not None:
                horn_contexts.append((uatom, ctx, marking))
    for (uatom, ctx, marking), v in itertools.product(
            horn_contexts, catalog.atoms(max_dim=2, max_elements=9)):
        if len(ctx.ambient) * len(v) > PRODUCT_CAP:
            continue

        def transported():
            pv = v.poset
            grid = spread(ctx.hole, len(pv)) * pv.full
            prod_ctx = ContextShape(gray(ctx.ambient, v), grid)
            if is_a_context(prod_ctx, spread(marking, len(pv)) * pv.full) is None:
                return "derivation", "none"
            return None

        yield {"u": catalog.expr_of(uatom), "v": catalog.expr_of(v)}, transported


def horn_pp_instances(catalog: Catalog):
    us = catalog.atoms(max_dim=3, min_dim=1)
    vs = catalog.atoms(max_dim=2)
    for u in us:
        p = u.poset
        top = u.top_id()
        for x in sorted(bits(p.fin[top] | p.fout[top]), key=p.sid_ranks().__getitem__):
            h = atomic_horn(u, x)
            for v in vs:
                if len(u) * len(v) > PRODUCT_CAP:
                    continue
                for order in ("uv", "vu"):
                    yield ({"U": catalog.expr_of(u), "x": p.labels[x],
                            "V": catalog.expr_of(v), "order": order},
                           _raising(pp_horn, h, v, order))


def enumerate_marked_horns(u: Molecule):
    """All marked horns on the atom: every facet, every marking of the horn
    for which the context recognition succeeds.  Exhaustive over subsets of
    the positive-dimensional horn elements, facets and markings in label
    order.

    Returns (horns, exhausted): exhausted holds (facet, marking, message)
    for each marking whose recognition ran out of its search budget.
    """
    horns, exhausted = [], []
    p = u.poset
    rank = p.sid_ranks().__getitem__
    top = u.top_id()
    for faces in (p.fin, p.fout):
        for x in sorted(bits(faces[top]), key=rank):
            h = atomic_horn(u, x)
            positives = [1 << a for a in sorted(bits(h.horn & ~p.grade_masks()[0]), key=rank)]
            for r in range(len(positives) + 1):
                for combo in itertools.combinations(positives, r):
                    marking = sum(combo)
                    try:
                        horns.append(marked_horn(h, marking))
                    except NotAContext:
                        continue
                    except BoundExceeded as exc:
                        exhausted.append((x, marking, str(exc)))
    return horns, exhausted


def _horn_inputs(catalog: Catalog, u: Molecule, x: int, marking: int) -> dict:
    p = u.poset
    return {"U": catalog.expr_of(u), "x": p.labels[x], "A": p.sids(marking)}


def _marked_horns(catalog: Catalog, u: Molecule):
    """u's marked horns, and one failing instance for each marking whose
    recognition ran out of its search budget."""
    horns, exceeded = enumerate_marked_horns(u)
    exhausted = [(_horn_inputs(catalog, u, x, marking), _failed("marked horn", message))
                 for x, marking, message in exceeded]
    return horns, exhausted


def marked_horn_pp_instances(catalog: Catalog):
    us = catalog.atoms(max_dim=3, min_dim=1, max_elements=HORN_U_CAP)
    vs = catalog.atoms(max_dim=2, max_elements=HORN_V_CAP)
    gens = generators(vs)
    for u in us:
        # Gray products keyed by factor pair, and product horns keyed by
        # (u, facet, v, order); every key holds u, so a dict per u shares
        # each with every horn, marking, generator and order
        products, pp_horns = {}, {}
        horns, exhausted = _marked_horns(catalog, u)
        yield from exhausted
        for mh in horns:
            horn = _horn_inputs(catalog, u, mh.horn.facet, mh.marking)
            for gen in gens.Mprime:
                v = gen.meta["atom"]
                if len(u) * len(v) > MARKED_PRODUCT_CAP:
                    continue
                for order in ("uv", "vu"):
                    yield ({**horn, "V": catalog.expr_of(v),
                            "family": gen.meta["family"], "order": order},
                           _raising(pp_marked_horn, mh, gen, order, products, pp_horns))


def entire_residual_instances(catalog: Catalog):
    atoms = catalog.atoms(max_dim=2, max_elements=9)
    fams = generators(atoms)
    everything = fams.minbd + fams.t + fams.markbd
    for i in fams.t:
        for j in everything:
            if len(i.target.poset) * len(j.target.poset) > PRODUCT_CAP:
                continue

            def ij():
                pp = pushout_product(i, j)
                got, want = residual(pp), residual_formula(i, j)
                # past the upper bound, "extra" lists the elements beyond it
                return (_masks_differ(pp.target.poset, want, got)
                        or _masks_differ(pp.target.poset, got & residual_upper_bound(i, j), got))

            def ji():
                pp = pushout_product(j, i)
                got, want = residual(pp), residual_formula_swapped(j, i)
                return _masks_differ(pp.target.poset, want, got)

            names = {"i": catalog.expr_of(i.meta["atom"]),
                     "j": catalog.expr_of(j.meta["atom"]), "family": j.meta["family"]}
            yield {**names, "order": "ij"}, ij
            yield {**names, "order": "ji"}, ji


def op_swap_instances(catalog: Catalog):
    mols = catalog.molecules()
    for u, v in itertools.product(mols, mols):
        if len(u) * len(v) > PRODUCT_CAP:
            continue
        yield ({"U": catalog.expr_of(u), "V": catalog.expr_of(v)},
               _raising(op_swap_iso, u.poset, v.poset))


def op_pp_instances(catalog: Catalog):
    """opposite(i pp j) is the swap-image of opposite(j) pp opposite(i),
    inside an ambient whose swap is an iso."""
    atoms = catalog.atoms(max_dim=2, max_elements=9)
    fams = generators(atoms)
    gens = fams.minbd + fams.t + fams.markbd
    opposites = [g.op() for g in gens]
    # the ambient swap depends only on the two target posets, which the
    # generators over one atom share; a pair that failed is checked again
    swapping_ambients = set()
    for i, op_i in zip(gens, opposites):
        for j, op_j in zip(gens, opposites):
            if len(i.target.poset) * len(j.target.poset) > PRODUCT_CAP:
                continue

            def swapped():
                lhs = pushout_product(i, j).op()
                rhs = pushout_product(op_j, op_i)
                swap = swap_ids(len(i.target.poset), len(j.target.poset))
                if (map_mask(lhs.image, swap) != rhs.image
                        or map_mask(lhs.source_marking, swap) != rhs.source_marking):
                    return "swap-correspondence", "mismatch"
                ambient = id(i.target.poset), id(j.target.poset)
                if ambient not in swapping_ambients:
                    op_swap_iso(i.target.poset, j.target.poset)
                    swapping_ambients.add(ambient)
                return None

            yield ({"i": catalog.expr_of(i.meta["atom"]),
                    "j": catalog.expr_of(j.meta["atom"]),
                    "families": [i.meta["family"], j.meta["family"]]}, swapped)


def op_horn_instances(catalog: Catalog):
    """The opposite of a marked horn is again a marked horn."""
    for u in catalog.atoms(max_dim=3, min_dim=1, max_elements=HORN_U_CAP):
        horns, exhausted = _marked_horns(catalog, u)
        yield from exhausted
        # op(u) is an atom with the same top and facets
        opposite_u = op(u)
        opposite_horns = {x: atomic_horn(opposite_u, x) for x in {mh.horn.facet for mh in horns}}
        for mh in horns:
            def opposite():
                other = marked_horn(opposite_horns[mh.horn.facet], mh.marking)
                return _masks_differ(u.poset, mh.enlarged, other.enlarged)

            yield _horn_inputs(catalog, u, mh.horn.facet, mh.marking), opposite


def atom_closures_instances(catalog: Catalog):
    """Every element's closure reconstructs as an atom-certified molecule:
    the regularity spot check."""
    for e in catalog.entries:
        p = e.molecule.poset
        if len(p) > ATOM_CLOSURE_CAP:
            continue
        dims, rank, cl = p.dims, p.sid_ranks(), p.closure_masks()
        for x in sorted(range(len(p)), key=lambda i: (dims[i], rank[i])):
            def closure():
                sub = p.restrict_mask(cl[x])
                if reconstruct(sub) is None or sub.maximal_mask(sub.full).bit_count() != 1:
                    return "atom-certified closure", "reconstruction failed"
                return None

            yield {"shape": e.expr, "element": p.labels[x]}, closure


def globularity_holds(p: OgPoset) -> bool:
    """bd_k of bd_n agrees with bd_k below it, for all signs."""
    bd = p.boundary_mask
    for n in range(p.dim):
        for s_out in SIGNS:
            sub = bd(p.full, n, s_out)
            for k in range(n):
                for s_in in SIGNS:
                    if bd(sub, k, s_in) != bd(p.full, k, s_in):
                        return False
    return True


def cylinders_instances(catalog: Catalog):
    """Structural checks on cylinders and invertor shapes."""
    rounds = [m for m in catalog.round_molecules()
              if m.dim >= 1 and len(m) <= CYLINDER_CAP]
    for m in rounds:
        base = catalog.expr_of(m)
        for s in ("", "L", "R", "LL", "LR", "RL", "RR"):
            def invertor():
                q = invertor_shape(s, m)
                failures = []
                if not (q.dim == m.dim + len(s)
                        and is_round(q)
                        and (not m.is_atom() or q.is_atom())
                        and globularity_holds(q.poset)):
                    failures.append(("molecule of the right shape", "structure check failed"))
                defect = s and collapse_defect(q, len(s))
                if defect:
                    failures.append(("closure-preserving projection", defect))
                return failures

            yield {"base": base, "s": s}, invertor

        def unit():
            un = unit_shape(m)
            if un.dim != m.dim + 1 or not is_round(un) or not globularity_holds(un.poset):
                return "round unit shape", "failed"
            return None

        yield {"base": base}, unit


def mutate_one_face(p: OgPoset, seed: int) -> tuple:
    """Flip one randomly chosen face from one side of its coface to the
    other, keeping the poset valid (the donor side must stay nonempty).
    Falls back to swapping both sides of one element when no single face
    can move.  Returns (mutated poset, description); the mutated poset has
    p's ids and labels, and needs no validation, since a move leaves both
    sides nonempty and disjoint and a swap keeps them so."""
    rng = random.Random(seed)
    labels, rank = p.labels, p.sid_ranks().__getitem__
    fin, fout = list(p.fin), list(p.fout)
    # elements and faces are drawn in label order, signs in sorted order
    positive = [x for x in sorted(range(len(p)), key=rank) if p.dims[x] > 0]
    candidates = [(x, s) for x in positive for s in sorted(SIGNS)
                  if (fin if s == MINUS else fout)[x].bit_count() >= 2]
    if candidates:
        x, s = rng.choice(candidates)
        donor, receiver = (fin, fout) if s == MINUS else (fout, fin)
        y = rng.choice(sorted(bits(donor[x]), key=rank))
        donor[x] &= ~(1 << y)
        receiver[x] |= 1 << y
        info = {"element": labels[x], "face": labels[y], "from": s}
    else:
        x = rng.choice(positive)
        fin[x], fout[x] = fout[x], fin[x]
        info = {"element": labels[x], "face": "*", "from": "swap"}
    return OgPoset(list(p.dims), fin, fout, labels), info


def check_mutation(catalog: Catalog, config) -> LemmaReport:
    """Guard against vacuous comparators: a single flipped orientation in
    the square must trip the Gray boundary comparator."""
    rep = LemmaReport("MUTATION")
    u = v = arrow()
    product = gray_poset(u.poset, v.poset)
    mutated, info = mutate_one_face(product, config.seed)
    # mutated keeps the product's ids, so the masks compare
    rows = gray_union_rows(u, v)
    sides = [check_gray_boundary_sides(mutated, rows, v, n, sign)
             for n in range(u.dim + v.dim + 1) for sign in SIGNS]
    rep.instances = len(sides)
    detected = sum(direct != union for direct, union in sides)
    if detected:
        rep.warning = f"mutation detected with {detected} certificates"
    else:
        rep.record({"mutation": info}, "GRAY_BOUNDARY failure certificate",
                   "mutation went undetected")
    return rep


# -- suite -------------------------------------------------------------------


# lemma id -> (instance generator, the expected side of a failure whose
# thunk raised a ShapeError)
IDENTITIES = {
    "GRAY_BOUNDARY": (gray_boundary_instances, "boundary union"),
    "GENCP_FORMULA": (gencp_formula_instances, "recognised"),
    "GENCP_BOUNDARY": (gencp_boundary_instances, "recognised"),
    "DIST_LOWER": (dist_lower_instances, "recognised"),
    "CTX_RECURSION": (ctx_recursion_instances, "derivation"),
    "HORN_PP": (horn_pp_instances, "identity"),
    "MARKED_HORN_PP": (marked_horn_pp_instances, "recognised"),
    "ENTIRE_RESIDUAL": (entire_residual_instances, "residual"),
    "OP_SWAP": (op_swap_instances, "orientation-preserving swap"),
    "OP_PP": (op_pp_instances, "ambient swap iso"),
    "OP_HORN": (op_horn_instances, "marked horn"),
    "ISO_UNIQUE": (iso_unique_instances, "rigid"),
    "CYLINDERS": (cylinders_instances, "built"),
    "ATOM_CLOSURES": (atom_closures_instances, "atom-certified closure"),
}

LEMMAS = {lemma_id: functools.partial(run_instances, lemma_id, instances, label)
          for lemma_id, (instances, label) in IDENTITIES.items()}
LEMMAS["MUTATION"] = check_mutation


@dataclass
class SuiteConfig:
    bounds: Bounds = field(default_factory=Bounds)
    lemmas: tuple = tuple(LEMMAS)
    seed: int = 0


def check(lemma_id: str, catalog: Catalog, config: SuiteConfig) -> LemmaReport:
    if lemma_id not in LEMMAS:
        raise UnknownLemma(f"unknown lemma id {lemma_id!r}")
    return LEMMAS[lemma_id](catalog, config)


def run_suite(config: SuiteConfig) -> list:
    """Run the selected lemma checks over a shared catalog.  A check that
    passes on no instances gets a warning, not a failure: small bounds
    legitimately leave some lemmas without inputs (at depth 0 the catalog
    has no pastings for GENCP_FORMULA and GENCP_BOUNDARY)."""
    catalog = enumerate_catalog(config.bounds)
    reports = [check(lid, catalog, config) for lid in config.lemmas]
    for r in reports:
        if r.warning or r.failures:
            continue
        if not catalog.entries:
            r.warning = "catalog is empty; checks pass vacuously"
        elif not r.instances:
            r.warning = "no instances; the check passes vacuously"
    return reports
