"""Catalog enumeration and the lemma-checking suite.

Every checker computes both sides of its identity independently: boundary
rules are evaluated on product or pasted carriers directly, while the
formula side is assembled from the factors, so neither side reuses the
construction under test as its own oracle.  Reports are deterministic for
a fixed configuration; the random seed only drives the mutation checks.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .contexts import (
    atomic_horn,
    classified_context,
    is_a_context,
    marked_horn,
    pp_horn,
    pp_marked_horn,
)
from .cylinder import gray_cylinder, inverted_cylinder
from .errors import (
    BoundExceeded,
    IdentityFailed,
    NotAContext,
    RecognitionFailed,
    ShapeError,
    UnknownLemma,
)
from .gray import gray, gray_boundary_decomposition, gray_poset, op_swap_iso, twist
from .ids import sid
from .marked import (
    generators,
    pushout_product,
    residual,
    residual_formula,
    residual_formula_swapped,
    residual_upper_bound,
)
from .molecule import (
    Inclusion,
    Molecule,
    arrow,
    atom,
    dual,
    is_round,
    op,
    paste,
    paste_at,
    point,
    recognise_generalised_pasting,
)
from .poset import (
    MINUS,
    PLUS,
    SIGNS,
    OgPoset,
    all_isos,
    build,
    find_iso,
    flip,
    iso_invariant,
    spread,
)


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
        for e in self.entries:
            if e.molecule is m:
                return e.expr
        return "<anonymous>"


def enumerate_catalog(bounds: Bounds) -> Catalog:
    """Closure of {point, arrow} under paste, atom, gray, cylinders and
    inverted cylinders up to the bounds, with duals taken for free and
    deduplication up to isomorphism."""
    entries: list[CatalogEntry] = []
    buckets: dict = {}

    def known(m: Molecule):
        key = iso_invariant(m.poset)
        for other in buckets.get(key, ()):
            if find_iso(m.poset, other.poset) is not None:
                return True
        return False

    def add(expr: str, m: Molecule, depth: int) -> bool:
        if m.dim > bounds.max_dim or len(m) > bounds.max_elements or len(m) == 0:
            return False
        if known(m):
            return False
        entry = CatalogEntry(expr, m, depth)
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
                candidates = [("op", op(m))]
                for j in range(1, m.dim + 1):
                    candidates.append((f"dual({{{j}}},", dual(m, {j})))
                for tag, d in candidates:
                    expr = f"op({e.expr})" if tag == "op" else f"{tag}{e.expr})"
                    if add(expr, d, e.depth):
                        nxt.append(entries[-1])
            frontier = nxt

    add("point", point(), 0)
    add("arrow", arrow(), 0)
    close_under_duals(0)

    for depth in range(1, bounds.depth + 1):
        previous = list(entries)
        for e1 in previous:
            m1 = e1.molecule
            # unary constructors
            if m1.dim >= 1:
                bd = m1.poset.full_boundary_set()
                sets = [("unit", bd)]
                sets.append(("cylm", m1.poset.boundary_set(m1.dim - 1, MINUS)))
                sets.append(("cylp", m1.poset.boundary_set(m1.dim - 1, PLUS)))
                for tag, K in sets:
                    try:
                        c = gray_cylinder(m1, K)
                    except ShapeError:
                        continue
                    if tag == "unit":
                        add(f"unit({e1.expr})", c, depth)
                    else:
                        ids = ",".join(f'"{s}"' for s in sorted(map(sid, K)))
                        add(f"cyl({e1.expr},{{{ids}}})", c, depth)
            if is_round(m1) and m1.dim >= 1:
                for side, tag in (("L", "lcyl"), ("R", "rcyl")):
                    sign = PLUS if side == "L" else MINUS
                    try:
                        c = inverted_cylinder(
                            m1, m1.poset.boundary_set(m1.dim - 1, sign), side
                        )
                    except ShapeError:
                        continue
                    add(f"{tag}({e1.expr})", c, depth)
            for e2 in previous:
                m2 = e2.molecule
                if len(m1) * len(m2) <= bounds.max_elements * 4:
                    add(f"gray({e1.expr},{e2.expr})", gray(m1, m2), depth)
                for k in range(max(m1.dim, m2.dim)):
                    try:
                        p = paste(m1, m2, k)
                    except ShapeError:
                        continue
                    add(f"paste({e1.expr},{e2.expr},{k})", p, depth)
                try:
                    a = atom(m1, m2)
                except ShapeError:
                    continue
                add(f"atom({e1.expr},{e2.expr})", a, depth)
        close_under_duals(depth)
    return Catalog(bounds, entries)


# -- reports -----------------------------------------------------------------


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

    def record(self, inputs, expected, got):
        self.failures.append({
            "lemma": self.lemma,
            "inputs": inputs,
            "expected": expected,
            "got": got,
        })


def _ids(subset) -> list:
    return sorted(map(sid, subset))


def _mask_ids(p: OgPoset, m: int) -> list:
    return _ids(p.decode(m))


# -- individual checkers -------------------------------------------------------


def check_gray_boundary_sides(product: OgPoset, u: Molecule, v: Molecule,
                              n: int, sign: str):
    """Direct boundary of the (possibly tampered) product vs the union
    formula evaluated on the factors.  Returns (direct, union) as masks of
    product ids, (i, j) at i * |V| + j: the direct side reads the
    product's faces, the union side only the factors' boundaries."""
    p, q = u.poset, v.poset
    direct = product.boundary_mask(product.full, n, sign)
    union = 0
    for k in range(n + 1):
        left = p.boundary_mask(p.full, k, sign)
        right = q.boundary_mask(q.full, n - k, twist(sign, k))
        union |= spread(left, len(q)) * right
    return direct, union


def check_gray_boundary(catalog: Catalog, config) -> LemmaReport:
    rep = LemmaReport("GRAY_BOUNDARY")
    mols = catalog.molecules()
    for u, v in itertools.product(mols, mols):
        if len(u) * len(v) > config.product_cap:
            continue
        product = gray_poset(u.poset, v.poset)
        for n in range(u.dim + v.dim + 1):
            for sign in SIGNS:
                rep.instances += 1
                direct, union = check_gray_boundary_sides(product, u, v, n, sign)
                if direct != union:
                    rep.record(
                        {"U": catalog.expr_of(u), "V": catalog.expr_of(v),
                         "n": n, "sign": sign},
                        _mask_ids(product, union), _mask_ids(product, direct),
                    )
        # the two-piece splits must cover the boundary as well; these read
        # one sub-boundary per cut, so they run on the smaller pairs
        if len(u) * len(v) > config.split_cap:
            continue
        for n, sign, direct, splits in gray_boundary_decomposition(u.poset, v.poset):
            for j, left, right in splits:
                rep.instances += 1
                if left | right != direct:
                    rep.record(
                        {"U": catalog.expr_of(u), "V": catalog.expr_of(v),
                         "n": n, "sign": sign, "j": j},
                        _mask_ids(product, direct), _mask_ids(product, left | right),
                    )
    return rep


def check_iso_unique(catalog: Catalog, config) -> LemmaReport:
    rep = LemmaReport("ISO_UNIQUE")
    for e in catalog.entries:
        rep.instances += 1
        autos = all_isos(e.molecule.poset, e.molecule.poset)
        if len(autos) != 1:
            rep.record({"shape": e.expr}, 1, len(autos))
        if len(e.molecule) <= 12:
            rep.instances += 1
            oracle = brute_force_isos(e.molecule.poset, e.molecule.poset)
            if len(oracle) != len(autos):
                rep.record({"shape": e.expr, "check": "brute-force"},
                           len(oracle), len(autos))
    return rep


def brute_force_isos(p: OgPoset, q: OgPoset):
    """Oracle iso enumeration: all dimension-preserving bijections, filtered
    by the face-preservation condition."""
    if len(p) != len(q):
        return []
    dims = sorted(set(p.dim_of.values()) | set(q.dim_of.values()))
    per_dim = []
    for d in dims:
        xs = sorted(p.grade(d), key=sid)
        ys = sorted(q.grade(d), key=sid)
        if len(xs) != len(ys):
            return []
        per_dim.append((xs, ys))
    found = []
    for combo in itertools.product(*(itertools.permutations(ys) for _, ys in per_dim)):
        mapping = {}
        for (xs, _), perm in zip(per_dim, combo):
            mapping.update(zip(xs, perm))
        if all(
            {mapping[f] for f in p_faces[x]} == q_faces[mapping[x]]
            for p_faces, q_faces in ((p.faces_in, q.faces_in), (p.faces_out, q.faces_out))
            for x in p.dim_of
        ):
            found.append(mapping)
    return found


def _gencp_instances(catalog: Catalog, config):
    """Recognised generalised pastings: the canonical decomposition of every
    pasted catalog entry."""
    out = []
    for e in catalog.entries:
        g = e.molecule.provenance.get("gencp")
        if g is None:
            continue
        out.append((e.expr, g))
    return out


def check_gencp_formula(catalog: Catalog, config) -> LemmaReport:
    """The factorisation lemma, plus transport of pastings through Gray
    products on both sides."""
    rep = LemmaReport("GENCP_FORMULA")
    from .gray import gray_split_of_generalised_pasting

    instances = _gencp_instances(catalog, config)
    verdicts = {}
    for expr, g in instances:
        rep.instances += 1
        try:
            checked = recognise_generalised_pasting(
                g.ambient, g.left, g.right, g.level, verdicts=verdicts
            )
        except RecognitionFailed as exc:
            rep.record({"pasting": expr}, "recognised", str(exc))
            continue
        if checked is None:
            rep.record({"pasting": expr}, "recognised", "conditions failed")
    small = [m for m in catalog.molecules() if len(m) <= 9]
    for (expr, g), v in itertools.product(instances, small):
        if len(g.ambient) * len(v) > config.gencp_product_cap:
            continue
        for side in ("left", "right"):
            prod = gray(g.ambient, v) if side == "left" else gray(v, g.ambient)
            left, right, level = gray_split_of_generalised_pasting(g, v, side)
            rep.instances += 1
            try:
                got = recognise_generalised_pasting(prod, left, right, level,
                                                    verdicts=verdicts)
            except RecognitionFailed as exc:
                rep.record({"pasting": expr, "factor": catalog.expr_of(v),
                            "side": side}, "recognised", str(exc))
                continue
            if got is None:
                rep.record({"pasting": expr, "factor": catalog.expr_of(v),
                            "side": side, "level": level},
                           "recognised", "conditions failed")
    return rep


def check_gencp_boundary(catalog: Catalog, config) -> LemmaReport:
    """Boundaries of generalised pastings are generalised pastings of the
    piece boundaries, at the same level."""
    rep = LemmaReport("GENCP_BOUNDARY")
    verdicts = {}
    for expr, g in _gencp_instances(catalog, config):
        amb = g.ambient.poset
        k = g.level
        left, right = amb.encode(g.left), amb.encode(g.right)
        for n in range(k + 1, amb.dim + 1):
            for sign in SIGNS:
                rep.instances += 1
                bd_left = amb.boundary_mask(left, n, sign)
                bd_right = amb.boundary_mask(right, n, sign)
                direct = amb.boundary_mask(amb.full, n, sign)
                if bd_left | bd_right != direct:
                    rep.record(
                        {"pasting": expr, "n": n, "sign": sign},
                        _mask_ids(amb, direct), _mask_ids(amb, bd_left | bd_right),
                    )
                    continue
                bd_mol = g.ambient.boundary_molecule(n, sign)
                try:
                    got = recognise_generalised_pasting(bd_mol, amb.decode(bd_left),
                                                        amb.decode(bd_right), k,
                                                        verdicts=verdicts)
                except RecognitionFailed as exc:
                    rep.record({"pasting": expr, "n": n, "sign": sign},
                               "recognised", str(exc))
                    continue
                if got is None:
                    rep.record({"pasting": expr, "n": n, "sign": sign},
                               "recognised", "conditions failed")
    return rep


def _paste_at_instances(catalog: Catalog, config):
    """Pastings w cpsub u (w round, glued along its whole output boundary or
    into a facet of the input boundary of u) and the mirrored u subcp w."""
    instances = []
    rounds = [m for m in catalog.round_molecules() if 1 <= m.dim]
    others = catalog.molecules()
    for w in rounds:
        n = w.dim
        k = n - 1
        for u in others:
            if u.dim < 1 or len(w) + len(u) > config.paste_cap:
                continue
            try:
                whole = paste(w, u, k)
                instances.append(("cpsub", w, u, whole))
            except ShapeError:
                pass
            try:
                whole = paste(u, w, k)
                instances.append(("subcp", w, u, whole))
            except ShapeError:
                pass
            # proper submolecule gluings: facet closures inside the boundary
            if u.dim >= n:
                bd_in = u.poset.restrict(u.poset.boundary_set(k, MINUS))
                wout = w.boundary_molecule(k, PLUS)
                for cell in sorted(bd_in.grade(k), key=sid):
                    hole = bd_in.closure({cell})
                    if len(hole) == len(bd_in):
                        continue
                    iso = find_iso(wout.poset, bd_in.restrict(hole))
                    if iso is None:
                        continue
                    iota = Inclusion(wout, u, dict(iso.mapping))
                    try:
                        whole = paste_at(w, iota, u, side="left", k=k)
                    except ShapeError:
                        continue
                    instances.append(("cpsub", w, u, whole))
                    break
    return instances


def check_dist_lower(catalog: Catalog, config) -> LemmaReport:
    """Distributivity of pastings at a submolecule over Gray products at
    boundaries above the pasting level."""
    rep = LemmaReport("DIST_LOWER")
    small = [m for m in catalog.molecules() if len(m) <= 9][:config.dist_factor_count]
    verdicts = {}
    for kind, w, u, whole in _paste_at_instances(catalog, config):
        n = w.dim
        w_img = whole.provenance["left" if kind == "cpsub" else "right"].image
        u_img = whole.provenance["right" if kind == "cpsub" else "left"].image
        for v in small:
            if len(whole) * len(v) > config.product_cap:
                continue
            prod = gray_poset(whole.poset, v.poset)
            u_prod = prod.restrict(frozenset(
                (a, b) for a in u_img for b in v.poset.dim_of
            ))
            for ell in range(u.dim + v.dim - n + 1):
                rep.instances += 1
                if kind == "cpsub":
                    sign, vsign = PLUS, twist(PLUS, n)
                else:
                    sign, vsign = MINUS, twist(MINUS, n)
                direct = prod.boundary_set(n + ell, sign)
                w_piece = frozenset(
                    (a, b) for a in w_img
                    for b in v.poset.boundary_set(ell, vsign)
                )
                u_side = u_prod.boundary_set(n + ell, sign)
                formula = w_piece | u_side
                if direct != formula:
                    rep.record(
                        {"w": catalog.expr_of(w), "u": catalog.expr_of(u),
                         "v": catalog.expr_of(v), "ell": ell, "kind": kind},
                        _ids(direct), _ids(formula),
                    )
                    continue
                if len(direct) <= config.recognise_cap:
                    bd_mol = Molecule(prod.restrict(direct),
                                      {"kind": "boundary", "of": "product"})
                    # generalised pasting at n + ell - 1 with the w-piece
                    # first for cpsub (it provides the input boundary),
                    # second for subcp
                    left, right = (w_piece, u_side) if kind == "cpsub" else (u_side, w_piece)
                    try:
                        got = recognise_generalised_pasting(
                            bd_mol, left, right, n + ell - 1, verdicts=verdicts
                        )
                    except RecognitionFailed as exc:
                        rep.record(
                            {"w": catalog.expr_of(w), "u": catalog.expr_of(u),
                             "v": catalog.expr_of(v), "ell": ell, "kind": kind},
                            "recognised", str(exc),
                        )
                        continue
                    if got is None:
                        rep.record(
                            {"w": catalog.expr_of(w), "u": catalog.expr_of(u),
                             "v": catalog.expr_of(v), "ell": ell, "kind": kind},
                            "recognised", "conditions failed",
                        )
    return rep


def check_ctx_recursion(catalog: Catalog, config) -> LemmaReport:
    """Telescoped context recursions for boundaries and pasted subdiagrams,
    plus transport of marking-restricted contexts through Gray products."""
    rep = LemmaReport("CTX_RECURSION")
    small = [m for m in catalog.molecules() if 1 <= len(m) <= 9]

    def telescoping(prod: OgPoset, hole: int, piece_fn, sign, n, top_ell):
        """Check that bd(hole) u pieces(<=ell) equals the direct boundary
        for each ell, with each stage pasting precondition, reading every
        boundary of a closed subset from prod.  hole and the pieces are
        masks of prod.  Returns None, or the failure as (detail, expected,
        got)."""
        bd = prod.boundary_mask
        pieces = [piece_fn(j) for j in range(top_ell + 1)]
        for where, part in (("hole", hole), *enumerate(pieces)):
            if not prod.is_closed_mask(part):
                rep.instances += 1  # the first stage, which cannot be read
                return ("not closed", where), "closed subset", _mask_ids(prod, part)
        for ell in range(top_ell + 1):
            rep.instances += 1
            direct = bd(prod.full, n + ell, sign)
            hole_bd = bd(hole, n + ell, sign)
            assembled = hole_bd
            for piece in pieces[:ell + 1]:
                assembled |= piece
            if assembled != direct:
                return ("cover", ell), _mask_ids(prod, direct), _mask_ids(prod, assembled)
            # a union of closed subsets is closed
            carrier = hole_bd
            for j, piece in enumerate(pieces[:ell + 1]):
                level = n + j - 1
                need = bd(piece, level, sign)
                have = bd(carrier, level, flip(sign))
                if need & ~have:
                    return ("stage", (ell, j)), _mask_ids(prod, need), _mask_ids(prod, have)
                carrier |= piece
        return None

    def record(inputs, bad):
        detail, expected, got = bad
        rep.record({**inputs, "detail": str(detail)}, expected, got)

    # boundary-determined contexts: u (x) v with holes along bd(u) (x) v;
    # the pair (x, y) of u (x) v has id x * |v| + y
    for u in catalog.molecules():
        if not 1 <= u.dim or not 1 <= len(u) <= 9:
            continue
        n = u.dim
        pu = u.poset
        for v in small:
            if len(u) * len(v) > config.product_cap:
                continue
            pv = v.poset
            prod = gray_poset(pu, pv)
            stride = len(pv)
            for side, sign in (("R", PLUS), ("L", MINUS)):
                hole = spread(pu.boundary_mask(pu.full, n - 1, sign), stride) * pv.full

                def piece_fn(j):
                    return spread(pu.full, stride) * pv.boundary_mask(pv.full, j, twist(sign, n))

                bad = telescoping(prod, hole, piece_fn, sign, n, v.dim)
                if bad:
                    record({"u": catalog.expr_of(u), "v": catalog.expr_of(v),
                            "side": side}, bad)

    # pasted-subdiagram contexts, reusing the paste-at instances
    for kind, w, u, whole in _paste_at_instances(catalog, config):
        n = w.dim
        pw = whole.poset
        w_img = pw.encode(whole.provenance["left" if kind == "cpsub" else "right"].image)
        u_img = pw.encode(whole.provenance["right" if kind == "cpsub" else "left"].image)
        for v in small[:config.ctx_factor_count]:
            if len(whole) * len(v) > config.product_cap:
                continue
            pv = v.poset
            prod = gray_poset(pw, pv)
            stride = len(pv)
            sign = PLUS if kind == "cpsub" else MINUS
            vsign = twist(sign, n)
            hole = spread(u_img, stride) * pv.full

            def piece_fn(j):
                return spread(w_img, stride) * pv.boundary_mask(pv.full, j, vsign)

            bad = telescoping(prod, hole, piece_fn, sign, n, u.dim + v.dim - n)
            if bad:
                record({"w": catalog.expr_of(w), "u": catalog.expr_of(u),
                        "v": catalog.expr_of(v), "kind": kind}, bad)

    # transport of marking-restricted contexts through the product
    horn_contexts = []
    for uatom in catalog.atoms(max_dim=2, min_dim=1, max_elements=9):
        top = uatom.top()
        for s in SIGNS:
            for facet in sorted(uatom.poset.faces(top, s), key=sid):
                h = atomic_horn(uatom, facet)
                ctx = classified_context(h)
                marking = frozenset(
                    x for x in h.horn
                    if uatom.poset.dim_of[x] > 0
                )
                deriv = is_a_context(ctx, marking)
                if deriv is not None:
                    horn_contexts.append((uatom, ctx, marking))
                break
    for (uatom, ctx, marking), v in itertools.product(
            horn_contexts, catalog.atoms(max_dim=2, max_elements=9)):
        if len(ctx.ambient) * len(v) > config.product_cap:
            continue
        rep.instances += 1
        prod_mol = gray(ctx.ambient, v)
        hole = frozenset((x, y) for x in ctx.hole for y in v.poset.dim_of)
        from .contexts import ContextShape

        prod_ctx = ContextShape(prod_mol, hole, None)
        transported = frozenset(
            (x, y) for x in marking for y in v.poset.dim_of
        )
        if is_a_context(prod_ctx, transported) is None:
            rep.record({"u": catalog.expr_of(uatom), "v": catalog.expr_of(v)},
                       "derivation", "none")
    return rep


def check_horn_pp(catalog: Catalog, config) -> LemmaReport:
    rep = LemmaReport("HORN_PP")
    us = catalog.atoms(max_dim=3, min_dim=1)
    vs = catalog.atoms(max_dim=2)
    for u in us:
        top = u.top()
        facets = sorted(
            (x for s in SIGNS for x in u.poset.faces(top, s)), key=sid
        )
        for x in facets:
            h = atomic_horn(u, x)
            for v in vs:
                if len(u) * len(v) > config.product_cap:
                    continue
                for order in ("uv", "vu"):
                    rep.instances += 1
                    try:
                        pp_horn(h, v, order)
                    except IdentityFailed as exc:
                        rep.record(
                            {"U": catalog.expr_of(u), "x": sid(x),
                             "V": catalog.expr_of(v), "order": order},
                            "identity", exc.certificate,
                        )
    return rep


def enumerate_marked_horns(u: Molecule, exceeded: list | None = None):
    """All marked horns on the atom: every facet, every marking of the horn
    for which the context recognition succeeds.  Exhaustive over subsets of
    the positive-dimensional horn elements.

    A recognition that runs out of its search budget raises BoundExceeded;
    with exceeded given, (facet, marking, message) is appended to it
    instead and the enumeration goes on.
    """
    out = []
    top = u.top()
    for s in SIGNS:
        for x in sorted(u.poset.faces(top, s), key=sid):
            h = atomic_horn(u, x)
            positives = sorted(
                (a for a in h.horn if u.poset.dim_of[a] > 0), key=sid
            )
            for r in range(len(positives) + 1):
                for combo in itertools.combinations(positives, r):
                    try:
                        out.append(marked_horn(u, x, frozenset(combo)))
                    except NotAContext:
                        continue
                    except BoundExceeded as exc:
                        if exceeded is None:
                            raise
                        exceeded.append((x, frozenset(combo), str(exc)))
    return out


def _marked_horns_recording(rep: LemmaReport, catalog: Catalog, u: Molecule):
    """enumerate_marked_horns(u), recording each exhausted recognition as a
    failed instance of rep."""
    exceeded = []
    horns = enumerate_marked_horns(u, exceeded)
    for x, marking, message in exceeded:
        rep.instances += 1
        rep.record({"U": catalog.expr_of(u), "x": sid(x), "A": _ids(marking)},
                   "marked horn", message)
    return horns


def check_marked_horn_pp(catalog: Catalog, config) -> LemmaReport:
    rep = LemmaReport("MARKED_HORN_PP")
    us = catalog.atoms(max_dim=3, min_dim=1, max_elements=config.horn_u_cap)
    vs = catalog.atoms(max_dim=2, max_elements=config.horn_v_cap)
    gens = generators(vs)
    for u in us:
        # Gray products keyed by factor pair; every key holds u, so a dict
        # per u shares each product with every horn, generator and order
        products = {}
        for mh in _marked_horns_recording(rep, catalog, u):
            for gen in gens.Mprime:
                v = gen.meta["atom"]
                if len(u) * len(v) > config.marked_product_cap:
                    continue
                for order in ("uv", "vu"):
                    rep.instances += 1
                    try:
                        pp_marked_horn(mh, gen, order, products)
                    except (RecognitionFailed, NotAContext, IdentityFailed,
                            BoundExceeded) as exc:
                        cert = getattr(exc, "certificate", str(exc))
                        rep.record(
                            {"U": catalog.expr_of(u), "x": sid(mh.horn.facet),
                             "A": _ids(mh.marking), "V": catalog.expr_of(v),
                             "family": gen.meta["family"], "order": order},
                            "recognised", cert,
                        )
    return rep


def check_entire_residual(catalog: Catalog, config) -> LemmaReport:
    rep = LemmaReport("ENTIRE_RESIDUAL")
    atoms = catalog.atoms(max_dim=2, max_elements=9)
    fams = generators(atoms)
    entires = fams.t
    everything = fams.minbd + fams.t + fams.markbd
    for i in entires:
        for j in everything:
            if len(i.target.poset) * len(j.target.poset) > config.product_cap:
                continue
            rep.instances += 1
            pp = pushout_product(i, j)
            got = residual(pp)
            want = residual_formula(i, j)
            if got != want or not got <= residual_upper_bound(i, j):
                rep.record(
                    {"i": catalog.expr_of(i.meta["atom"]),
                     "j": catalog.expr_of(j.meta["atom"]),
                     "family": j.meta["family"], "order": "ij"},
                    _ids(want), _ids(got),
                )
            rep.instances += 1
            pp = pushout_product(j, i)
            got = residual(pp)
            want = residual_formula_swapped(j, i)
            if got != want:
                rep.record(
                    {"i": catalog.expr_of(i.meta["atom"]),
                     "j": catalog.expr_of(j.meta["atom"]),
                     "family": j.meta["family"], "order": "ji"},
                    _ids(want), _ids(got),
                )
    return rep


def check_op_swap(catalog: Catalog, config) -> LemmaReport:
    rep = LemmaReport("OP_SWAP")
    mols = catalog.molecules()
    for u, v in itertools.product(mols, mols):
        if len(u) * len(v) > config.product_cap:
            continue
        rep.instances += 1
        try:
            op_swap_iso(u.poset, v.poset)
        except IdentityFailed as exc:
            rep.record({"U": catalog.expr_of(u), "V": catalog.expr_of(v)},
                       "orientation-preserving swap", str(exc))
    return rep


def check_op_pp(catalog: Catalog, config) -> LemmaReport:
    """opposite(i pp j) is the swap-image of opposite(j) pp opposite(i)."""
    rep = LemmaReport("OP_PP")
    atoms = catalog.atoms(max_dim=2, max_elements=9)
    fams = generators(atoms)
    gens = fams.minbd + fams.t + fams.markbd
    # the ambient swap depends only on the two target posets, which the
    # generators over one atom share: (id P, id Q) -> failure message or None
    ambient_failures = {}
    for i in gens:
        for j in gens:
            if len(i.target.poset) * len(j.target.poset) > config.product_cap:
                continue
            rep.instances += 1
            lhs = pushout_product(i, j).op()
            rhs = pushout_product(j.op(), i.op())
            swapped_elements = frozenset((x, y) for (y, x) in rhs.image)
            swapped_marking = frozenset((x, y) for (y, x) in rhs.source.marking)
            if lhs.image != swapped_elements or lhs.source.marking != swapped_marking:
                rep.record(
                    {"i": catalog.expr_of(i.meta["atom"]),
                     "j": catalog.expr_of(j.meta["atom"]),
                     "families": [i.meta["family"], j.meta["family"]]},
                    "swap-correspondence", "mismatch",
                )
                continue
            key = (id(i.target.poset), id(j.target.poset))
            if key not in ambient_failures:
                try:
                    op_swap_iso(i.target.poset, j.target.poset)
                    ambient_failures[key] = None
                except IdentityFailed as exc:
                    ambient_failures[key] = str(exc)
            if ambient_failures[key] is not None:
                rep.record({"i": catalog.expr_of(i.meta["atom"]),
                            "j": catalog.expr_of(j.meta["atom"])},
                           "ambient swap iso", ambient_failures[key])
    return rep


def check_op_horn(catalog: Catalog, config) -> LemmaReport:
    """The opposite of a marked horn is again a marked horn."""
    rep = LemmaReport("OP_HORN")
    us = catalog.atoms(max_dim=3, min_dim=1, max_elements=config.horn_u_cap)
    for u in us:
        for mh in _marked_horns_recording(rep, catalog, u):
            rep.instances += 1
            try:
                other = marked_horn(op(u), mh.horn.facet, mh.marking)
            except (NotAContext, ShapeError) as exc:
                rep.record(
                    {"U": catalog.expr_of(u), "x": sid(mh.horn.facet),
                     "A": _ids(mh.marking)},
                    "marked horn", str(exc),
                )
                continue
            if other.enlarged != mh.enlarged:
                rep.record(
                    {"U": catalog.expr_of(u), "x": sid(mh.horn.facet),
                     "A": _ids(mh.marking)},
                    _ids(mh.enlarged), _ids(other.enlarged),
                )
    return rep


def check_atom_closures(catalog: Catalog, config) -> LemmaReport:
    """Every element's closure reconstructs as an atom-certified molecule:
    the regularity spot check."""
    from .molecule import reconstruct

    rep = LemmaReport("ATOM_CLOSURES")
    for e in catalog.entries:
        p = e.molecule.poset
        if len(p) > config.cylinder_cap + 7:
            continue
        for x in p.elements:
            rep.instances += 1
            sub = p.restrict(p.closure({x}))
            rebuilt = reconstruct(sub)
            if rebuilt is None or len(sub.maximal_elements()) != 1:
                rep.record({"shape": e.expr, "element": sid(x)},
                           "atom-certified closure", "reconstruction failed")
    return rep


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


def check_cylinders(catalog: Catalog, config) -> LemmaReport:
    """Structural checks on cylinders and invertor shapes."""
    from .cylinder import invertor_shape, projection, unit_shape

    rep = LemmaReport("CYLINDERS")
    rounds = [m for m in catalog.round_molecules()
              if m.dim >= 1 and len(m) <= config.cylinder_cap]
    for m in rounds:
        for s in ("", "L", "R", "LL", "LR", "RL", "RR"):
            rep.instances += 1
            try:
                q = invertor_shape(s, m)
            except ShapeError as exc:
                rep.record({"base": catalog.expr_of(m), "s": s}, "built", str(exc))
                continue
            ok = (
                q.dim == m.dim + len(s)
                and is_round(q)
                and (not m.is_atom() or q.is_atom())
                and globularity_holds(q.poset)
            )
            if not ok:
                rep.record({"base": catalog.expr_of(m), "s": s},
                           "molecule of the right shape", "structure check failed")
            if s:
                tau = projection(q)
                if not tau.preserves_closures():
                    rep.record({"base": catalog.expr_of(m), "s": s},
                               "closure-preserving projection", "failed")
        rep.instances += 1
        un = unit_shape(m)
        if un.dim != m.dim + 1 or not is_round(un) or not globularity_holds(un.poset):
            rep.record({"base": catalog.expr_of(m)}, "round unit shape", "failed")
    return rep


def mutate_one_face(p: OgPoset, seed: int) -> tuple:
    """Flip one randomly chosen face from one side of its coface to the
    other, keeping the poset valid (the donor side must stay nonempty).
    Falls back to swapping both sides of one element when no single face
    can move.  Returns (mutated poset, description)."""
    rng = random.Random(seed)
    fin = {e: set(p.faces_in[e]) for e in p.dim_of}
    fout = {e: set(p.faces_out[e]) for e in p.dim_of}
    candidates = sorted(
        ((x, s) for x in p.dim_of if p.dim_of[x] > 0 for s in SIGNS
         if len(p.faces(x, s)) >= 2),
        key=lambda t: (sid(t[0]), t[1]),
    )
    if candidates:
        x, s = rng.choice(candidates)
        y = rng.choice(sorted(p.faces(x, s), key=sid))
        if s == MINUS:
            fin[x].discard(y)
            fout[x].add(y)
        else:
            fout[x].discard(y)
            fin[x].add(y)
        info = {"element": sid(x), "face": sid(y), "from": s}
    else:
        swappable = sorted((x for x in p.dim_of if p.dim_of[x] > 0), key=sid)
        x = rng.choice(swappable)
        fin[x], fout[x] = fout[x], fin[x]
        info = {"element": sid(x), "face": "*", "from": "swap"}
    mutated = build(dict(p.dim_of), {e: (fin[e], fout[e])
                                     for e in p.dim_of if p.dim_of[e] > 0})
    return mutated, info


def check_mutation(catalog: Catalog, config) -> LemmaReport:
    """Guard against vacuous comparators: a single flipped orientation in
    the square must trip the Gray boundary comparator."""
    rep = LemmaReport("MUTATION")
    u = v = arrow()
    product = gray_poset(u.poset, v.poset)
    try:
        mutated, info = mutate_one_face(product, config.seed)
    except ShapeError as exc:
        # the flip happened to produce an invalid poset: also a detection
        rep.instances += 1
        rep.warning = f"mutation rejected by validation: {exc}"
        return rep
    detected = []
    for n in range(u.dim + v.dim + 1):
        for sign in SIGNS:
            rep.instances += 1
            # mutated keeps the product's ids, so the masks compare
            direct, union = check_gray_boundary_sides(mutated, u, v, n, sign)
            if direct != union:
                detected.append({"n": n, "sign": sign, "mutation": info,
                                 "expected": _mask_ids(mutated, union),
                                 "got": _mask_ids(mutated, direct)})
    if not detected:
        rep.record({"mutation": info}, "GRAY_BOUNDARY failure certificate",
                   "mutation went undetected")
    else:
        rep.warning = f"mutation detected with {len(detected)} certificates"
    return rep


# -- suite -------------------------------------------------------------------


LEMMAS = {
    "GRAY_BOUNDARY": check_gray_boundary,
    "GENCP_FORMULA": check_gencp_formula,
    "GENCP_BOUNDARY": check_gencp_boundary,
    "DIST_LOWER": check_dist_lower,
    "CTX_RECURSION": check_ctx_recursion,
    "HORN_PP": check_horn_pp,
    "MARKED_HORN_PP": check_marked_horn_pp,
    "ENTIRE_RESIDUAL": check_entire_residual,
    "OP_SWAP": check_op_swap,
    "OP_PP": check_op_pp,
    "OP_HORN": check_op_horn,
    "ISO_UNIQUE": check_iso_unique,
    "CYLINDERS": check_cylinders,
    "ATOM_CLOSURES": check_atom_closures,
    "MUTATION": check_mutation,
}


@dataclass
class SuiteConfig:
    bounds: Bounds = field(default_factory=Bounds)
    lemmas: tuple = tuple(LEMMAS)
    seed: int = 0
    product_cap: int = 140
    split_cap: int = 45
    gencp_product_cap: int = 60
    paste_cap: int = 14
    recognise_cap: int = 40
    cylinder_cap: int = 9
    horn_u_cap: int = 11
    horn_v_cap: int = 9
    marked_product_cap: int = 70
    ctx_factor_count: int = 4
    dist_factor_count: int = 8


def check(lemma_id: str, catalog: Catalog, config: SuiteConfig) -> LemmaReport:
    if lemma_id not in LEMMAS:
        raise UnknownLemma(f"unknown lemma id {lemma_id!r}")
    return LEMMAS[lemma_id](catalog, config)


def run_suite(config: SuiteConfig) -> list:
    """Run the selected lemma checks over a shared catalog."""
    catalog = enumerate_catalog(config.bounds)
    warning = "" if catalog.entries else "catalog is empty; checks pass vacuously"
    reports = [check(lid, catalog, config) for lid in config.lemmas]
    for r in reports:
        if warning and not r.warning:
            r.warning = warning
    return reports
