"""Catalog enumeration and harness plumbing."""

import ast
import dataclasses
import hashlib
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from ogpkit.cli import EXIT_VERIFY, main
from ogpkit.errors import BadHole, BoundExceeded, IdentityFailed, ShapeError, UnknownLemma
from ogpkit.harness import (
    Bounds,
    SuiteConfig,
    brute_force_isos,
    check,
    check_gray_boundary_sides,
    enumerate_catalog,
    gray_union_rows,
    mutate_one_face,
    run_suite,
)
from ogpkit.exprlang import eval_text
from ogpkit.gray import gray, gray_poset
from ogpkit.molecule import arrow, atom, globe, paste
from ogpkit.poset import MINUS, PLUS, SIGNS, OgPoset, all_isos, bits, find_iso, spread


contexts_mod = importlib.import_module("ogpkit.contexts")
cylinder_mod = importlib.import_module("ogpkit.cylinder")
gray_mod = importlib.import_module("ogpkit.gray")
harness_mod = importlib.import_module("ogpkit.harness")
marked_mod = importlib.import_module("ogpkit.marked")
molecule_mod = importlib.import_module("ogpkit.molecule")
poset_mod = importlib.import_module("ogpkit.poset")
ROOT = Path(__file__).resolve().parents[1]


# (depth, max_dim, max_elements) -> entry count and the sha256 of the
# expression list (the expressions joined by newlines), as
# scripts/build_catalog.py prints them
PINNED_CATALOGS = {
    (3, 4, 16): (996, "f2f6c593db23673a3a409ae9d580c74d252d390515bd95e1966254e5229ccf46"),
    (4, 4, 12): (221, "19c21e6b97ba7cfc7085f9fbd972022ab467733626e82f0253c652132474129a"),
}


def catalog_digest(bounds: tuple) -> tuple:
    """The entry count and expression-list sha256 of the catalog at bounds."""
    cat = enumerate_catalog(Bounds(*bounds))
    exprs = "\n".join(e.expr for e in cat.entries)
    return len(cat.entries), hashlib.sha256(exprs.encode()).hexdigest()


def small_config(**kw):
    defaults = dict(bounds=Bounds(depth=1, max_dim=2, max_elements=9),
                    lemmas=("ISO_UNIQUE",))
    defaults.update(kw)
    return SuiteConfig(**defaults)


class TestCatalog:
    def test_depth_zero(self):
        cat = enumerate_catalog(Bounds(depth=0, max_dim=0, max_elements=9))
        assert [e.expr for e in cat.entries] == ["point"]

    def test_depth_one_contains_basics(self):
        cat = enumerate_catalog(Bounds(depth=1, max_dim=2, max_elements=9))
        for expr in ("paste(arrow,arrow,0)", "gray(arrow,arrow)"):
            target = eval_text(expr)
            assert any(find_iso(e.molecule.poset, target.poset) is not None
                       for e in cat.entries), expr
        # the 2-globe is present up to isomorphism
        assert any(find_iso(e.molecule.poset, globe(2).poset) is not None
                   for e in cat.entries)

    def test_deduplication(self):
        cat = enumerate_catalog(Bounds(depth=1, max_dim=2, max_elements=9))
        mols = cat.molecules()
        for i, a in enumerate(mols):
            for b in mols[i + 1:]:
                assert find_iso(a.poset, b.poset) is None

    def test_deterministic(self):
        b = Bounds(depth=2, max_dim=3, max_elements=11)
        c1 = enumerate_catalog(b)
        c2 = enumerate_catalog(b)
        assert [e.expr for e in c1.entries] == [e.expr for e in c2.entries]

    def test_expressions_rebuild_entries(self):
        cat = enumerate_catalog(Bounds(depth=1, max_dim=2, max_elements=9))
        for e in cat.entries:
            assert eval_text(e.expr).poset == e.molecule.poset

    def test_candidate_predictions_match_what_the_constructors_build(self):
        # every ordered pair of the depth-2 catalog and every level k: what
        # paste, atom and gray build is listed by _binary_candidates with
        # its exact size and dimension, so the depth loop's skips (over the
        # bounds, or not listed) never drop a buildable candidate
        cat = enumerate_catalog(Bounds(depth=2, max_dim=4, max_elements=16))
        rows = harness_mod._boundary_rows(cat.entries, 4)
        built = {"gray": 0, "paste": 0, "atom": 0}
        for e1, r1 in zip(cat.entries, rows):
            m1 = e1.molecule
            for e2, r2 in zip(cat.entries, rows):
                m2 = e2.molecule
                listed = harness_mod._binary_candidates(r1, r2)
                attempts = [("gray", None, lambda: gray(m1, m2)),
                            ("atom", None, lambda: atom(m1, m2))]
                attempts += [("paste", k, lambda k=k: paste(m1, m2, k))
                             for k in range(max(m1.dim, m2.dim))]
                for kind, k, make in attempts:
                    try:
                        c = make()
                    except ShapeError:
                        continue
                    built[kind] += 1
                    assert (kind, k, len(c), c.dim) in listed, (e1.expr, e2.expr, kind, k)
        assert min(built.values()) > 0, built

    def test_depth3_catalog_at_16_elements_matches_recorded_digest(self):
        # recorded before enumeration skipped candidates: the exact Gray
        # size bound skips the most here against the former |m1| |m2| <=
        # 4 max_elements filter
        assert catalog_digest((3, 4, 16)) == PINNED_CATALOGS[3, 4, 16]

    def test_depth4_catalog_at_12_elements_matches_recorded_digest(self):
        # recorded before known() looked up exact structure keys
        assert catalog_digest((4, 4, 12)) == PINNED_CATALOGS[4, 4, 12]

    def test_lossy_structure_key_moves_the_pinned_digests(self, monkeypatch):
        # known() takes a candidate whose structure key it has seen for a
        # repeat, with no isomorphism check.  A key that forgets orientation
        # makes op(m) and every dual(m, {j}) a repeat of m, so the catalogs
        # lose those entries and neither pinned digest holds
        def unoriented(p):
            return tuple(p.dims), tuple([a | b for a, b in zip(p.fin, p.fout)])

        monkeypatch.setattr(harness_mod, "structure_key", unoriented)
        for bounds, (count, digest) in PINNED_CATALOGS.items():
            got_count, got_digest = catalog_digest(bounds)
            assert got_count < count and got_digest != digest, bounds


class TestCheck:
    def test_unknown_lemma(self):
        cat = enumerate_catalog(Bounds(depth=0, max_dim=1, max_elements=3))
        with pytest.raises(UnknownLemma):
            check("NOPE", cat, small_config())

    def test_single_report(self):
        cat = enumerate_catalog(Bounds(depth=1, max_dim=2, max_elements=9))
        rep = check("ISO_UNIQUE", cat, small_config())
        assert rep.status == "pass"
        assert rep.instances > 0

    def test_empty_catalog_vacuous(self):
        reports = run_suite(small_config(
            bounds=Bounds(depth=0, max_dim=-1, max_elements=0)))
        assert all(r.status == "pass" for r in reports)
        assert all("vacuous" in r.warning for r in reports)

    def test_zero_instances_warn_on_a_nonempty_catalog(self):
        # the depth-0 catalog has no pastings: GENCP_FORMULA passes on no
        # instances, with a warning that says so
        gencp, iso = run_suite(small_config(
            bounds=Bounds(depth=0, max_dim=4, max_elements=16),
            lemmas=("GENCP_FORMULA", "ISO_UNIQUE")))
        assert gencp.status == "pass" and gencp.instances == 0
        assert "vacuous" in gencp.warning
        assert iso.instances > 0 and not iso.warning

    def test_setup_failure_is_a_recorded_failure(self, monkeypatch):
        # a ShapeError in a generator's own setup, outside every thunk,
        # fails that lemma and ends its run; the other lemmas still report
        def planted(horn):
            raise BadHole("planted in setup")

        monkeypatch.setattr(harness_mod, "classified_context", planted)
        ctx, gray_boundary = run_suite(small_config(
            lemmas=("CTX_RECURSION", "GRAY_BOUNDARY")))
        assert ctx.status == "fail"
        assert [(f["inputs"], f["expected"], f["got"]) for f in ctx.failures] == [
            ({"stage": "setup"}, "derivation", "planted in setup")]
        assert gray_boundary.status == "pass" and gray_boundary.instances > 0

    def test_report_json_deterministic(self):
        cfg = small_config(lemmas=("ISO_UNIQUE", "OP_SWAP"))
        r1 = [r.to_dict() for r in run_suite(cfg)]
        r2 = [r.to_dict() for r in run_suite(cfg)]
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


class TestMutation:
    def test_flip_detected(self):
        # a corrupted square must trip the boundary comparator somewhere
        u = v = arrow()
        product = gray_poset(u.poset, v.poset)
        mutated, info = mutate_one_face(product, seed=0)
        rows = gray_union_rows(u, v)
        bad = []
        for n in range(3):
            for sign in SIGNS:
                direct, union = check_gray_boundary_sides(mutated, rows, v, n, sign)
                if direct != union:
                    bad.append((n, sign))
        assert bad, info

    def test_mutation_report(self):
        cat = enumerate_catalog(Bounds(depth=0, max_dim=1, max_elements=3))
        rep = check("MUTATION", cat, small_config(seed=1))
        assert rep.status == "pass"

    def test_seed_changes_mutation(self):
        product = gray_poset(arrow().poset, arrow().poset)
        infos = {json.dumps(mutate_one_face(product, seed)[1], sort_keys=True)
                 for seed in range(8)}
        assert len(infos) > 1


class TestBruteForce:
    def test_matches_backtracking_on_catalog(self):
        cat = enumerate_catalog(Bounds(depth=1, max_dim=2, max_elements=9))
        for e in cat.entries:
            if len(e.molecule) > 9:
                continue
            ours = all_isos(e.molecule.poset, e.molecule.poset)
            oracle = brute_force_isos(e.molecule.poset, e.molecule.poset)
            assert len(ours) == len(oracle), e.expr


class TestGlobularity:
    def test_catalog_molecules_are_globular(self):
        from ogpkit.harness import globularity_holds

        cat = enumerate_catalog(Bounds(depth=1, max_dim=3, max_elements=11))
        for e in cat.entries:
            assert globularity_holds(e.molecule.poset), e.expr


def flip_twist_parity(monkeypatch):
    """Planted fault: build every Gray product with the twist parity
    flipped, so the right factor's faces enter (x, y) at the sign
    (-)^(dim x + 1) . s.  Dualising the right factor in every dimension
    does exactly that."""
    real = gray_mod.gray_poset

    def flipped(p, q):
        return real(p, q.dual(range(q.dim + 1)))

    monkeypatch.setattr(gray_mod, "gray_poset", flipped)
    monkeypatch.setattr(harness_mod, "gray_poset", flipped)


def untwist_gray(monkeypatch):
    """Planted fault: build every Gray product, the catalog's included,
    with the right factor's faces read untwisted, so (x, y) takes y's
    faces of sign s whatever the dimension of x."""

    def untwisted(p, q):
        nq = len(q)
        dims, fin, fout = [], [], []
        for i, dx in enumerate(p.dims):
            dims += [dx + dy for dy in q.dims]
            fin += [spread(p.fin[i], nq) << j | m << i * nq for j, m in enumerate(q.fin)]
            fout += [spread(p.fout[i], nq) << j | m << i * nq for j, m in enumerate(q.fout)]
        return OgPoset(dims, fin, fout, tuple(f"({x},{y})" for x in p.labels for y in q.labels))

    for mod in (gray_mod, harness_mod, marked_mod, cylinder_mod):
        monkeypatch.setattr(mod, "gray_poset", untwisted)


OP_SWAP_UNDER_FAULT = """
import importlib, sys
from ogpkit.harness import Bounds, SuiteConfig, check, enumerate_catalog
gray = importlib.import_module("ogpkit.gray")
cat = enumerate_catalog(Bounds(depth=1, max_dim=2, max_elements=9))
real = gray.gray_poset
gray.gray_poset = lambda p, q: real(p, q.dual(range(q.dim + 1)))
rep = check("OP_SWAP", cat, SuiteConfig())
print(sys.flags.optimize, rep.instances, len(rep.failures))
"""


def assert_missing_and_extra(rep):
    """Every failure from a mask comparison lists what its got side misses
    and what it has besides, as sorted labels; returns those failures."""
    compared = [f for f in rep.failures if "missing" in f]
    assert compared, rep.lemma
    for f in compared:
        expected, got = set(f["expected"]), set(f["got"])
        assert f["missing"] == sorted(expected - got), rep.lemma
        assert f["extra"] == sorted(got - expected), rep.lemma
        assert f["missing"] or f["extra"], rep.lemma
    return compared


class TestPlantedFaults:
    """Each check must be able to fail: the catalog is built first, then
    the fault is planted in the construction under test."""

    def test_flipped_twist_fails_gray_boundary_both_halves(self, monkeypatch):
        cat = enumerate_catalog(Bounds(depth=1, max_dim=2, max_elements=9))
        flip_twist_parity(monkeypatch)
        rep = check("GRAY_BOUNDARY", cat, SuiteConfig())
        with_cut = [f for f in rep.failures if "j" in f["inputs"]]
        assert with_cut, "the split half never failed"
        assert len(with_cut) < len(rep.failures), "the union half never failed"

    def test_flipped_twist_fails_op_swap(self, monkeypatch):
        cat = enumerate_catalog(Bounds(depth=1, max_dim=2, max_elements=9))
        flip_twist_parity(monkeypatch)
        rep = check("OP_SWAP", cat, SuiteConfig())
        assert rep.failures
        assert all("sign" in f["got"] for f in rep.failures)

    def test_untwisted_products_fail_at_setup_instead_of_crashing(self, monkeypatch, capsys):
        # some catalog "atom" then has a top with no faces of one sign;
        # top_id refuses it, so each lemma that reads atoms' top faces in
        # its setup records one failure there instead of crashing the run
        untwist_gray(monkeypatch)
        assert main(["verify", "--depth", "1", "--max-dim", "4", "--max-elems", "8"]) == EXIT_VERIFY
        reports = json.loads(capsys.readouterr().out)["reports"]
        at_setup = {r["lemma"]: [f["got"] for f in r["failures"] if f["inputs"] == {"stage": "setup"}]
                    for r in reports}
        assert {lemma for lemma, got in at_setup.items() if got} == {
            "CTX_RECURSION", "HORN_PP", "MARKED_HORN_PP", "OP_HORN"}
        assert all(len(got) == 1 and "no input or no output faces" in got[0]
                   for got in at_setup.values() if got)

    def test_op_swap_fails_under_optimize(self, src_env):
        # assert statements vanish under -O; the check must not
        out = subprocess.run([sys.executable, "-O", "-c", OP_SWAP_UNDER_FAULT],
                             env=src_env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        optimize, instances, failures = map(int, out.stdout.split())
        assert optimize == 1
        assert 0 < failures <= instances

    def test_failed_reconstruct_fails_recognition_checks(self, monkeypatch):
        # The molecule verdicts of condition 2 are kept in a dict that each
        # check owns.  Unpatched runs fill such dicts with true verdicts
        # first; the patched runs after them must still fail, so no verdict
        # outlives its check.
        cat = enumerate_catalog(Bounds(depth=1, max_dim=4, max_elements=8))
        for lemma in ("DIST_LOWER", "GENCP_FORMULA", "GENCP_BOUNDARY"):
            assert check(lemma, cat, SuiteConfig()).status == "pass"
        monkeypatch.setattr(molecule_mod, "reconstruct", lambda *args, **kwargs: None)
        dist = check("DIST_LOWER", cat, SuiteConfig())
        assert 0 < len(dist.failures) < dist.instances
        assert all(f["got"] == "conditions failed" for f in dist.failures)
        for lemma in ("GENCP_FORMULA", "GENCP_BOUNDARY"):
            rep = check(lemma, cat, SuiteConfig())
            assert len(rep.failures) == rep.instances > 0

    def test_non_rigid_ambient_fails_recognition_checks(self, monkeypatch):
        # the automorphism search finds a second image, so every ambient
        # that passes the conditions fails the rigidity check; DIST_LOWER
        # recognises no boundary of more than RECOGNISE_CAP elements
        cat = enumerate_catalog(Bounds(depth=1, max_dim=4, max_elements=8))
        monkeypatch.setattr(molecule_mod, "all_isos", lambda p, q: [list(range(len(p)))] * 2)
        gencp = check("GENCP_FORMULA", cat, SuiteConfig())
        dist = check("DIST_LOWER", cat, SuiteConfig())
        assert len(gencp.failures) == gencp.instances > 0
        assert 0 < len(dist.failures) < dist.instances
        assert all(f["got"] == "ambient is not rigid" for f in gencp.failures + dist.failures)

    def test_residual_upper_bound_fails_entire_residual(self, monkeypatch):
        # the published bound lacks the marked-target exclusion
        cat = enumerate_catalog(Bounds(depth=1, max_dim=2, max_elements=9))
        monkeypatch.setattr(harness_mod, "residual_formula", marked_mod.residual_upper_bound)
        rep = check("ENTIRE_RESIDUAL", cat, SuiteConfig())
        assert 0 < len(rep.failures) < rep.instances
        # the bound holds the residual, so the residual only misses pairs
        assert all(not f["extra"] for f in assert_missing_and_extra(rep))

    def test_residual_outside_upper_bound_records_extra(self, monkeypatch):
        # a bound without the residual's own pairs: the formula still
        # agrees, so every residual lies wholly outside the bound, and
        # "extra" lists exactly its pairs
        cat = enumerate_catalog(Bounds(depth=1, max_dim=2, max_elements=9))
        real = harness_mod.residual_upper_bound
        monkeypatch.setattr(harness_mod, "residual_upper_bound",
                            lambda i, j: real(i, j) & ~marked_mod.residual_formula(i, j))
        rep = check("ENTIRE_RESIDUAL", cat, SuiteConfig())
        assert 0 < len(rep.failures) < rep.instances
        assert len(assert_missing_and_extra(rep)) == len(rep.failures)
        for f in rep.failures:
            assert f["inputs"]["order"] == "ij"
            assert f["expected"] == f["missing"] == []
            assert f["extra"] == f["got"] != []

    def test_swapped_inverted_sides_fail_cylinders(self, monkeypatch):
        cat = enumerate_catalog(Bounds(depth=1, max_dim=2, max_elements=9))
        real = cylinder_mod._cylinder_poset
        swap = {"L": "R", "R": "L"}

        def swapped(p, K, variant):
            return real(p, K, swap.get(variant, variant))

        monkeypatch.setattr(cylinder_mod, "_cylinder_poset", swapped)
        rep = check("CYLINDERS", cat, SuiteConfig())
        assert 0 < len(rep.failures) < rep.instances

    def test_dropped_marking_fails_op_pp(self, monkeypatch):
        # the pushout-product forgets the smallest marked element of its domain
        cat = enumerate_catalog(Bounds(depth=1, max_dim=2, max_elements=9))
        real = marked_mod.pushout_product

        def dropped(i, j):
            pp = real(i, j)
            if not pp.source_marking:
                return pp
            labels = pp.target.poset.labels
            smallest = min(bits(pp.source_marking), key=labels.__getitem__)
            return marked_mod.MarkedMap(pp.target, pp.image,
                                        pp.source_marking & ~(1 << smallest), meta=pp.meta)

        monkeypatch.setattr(harness_mod, "pushout_product", dropped)
        rep = check("OP_PP", cat, SuiteConfig())
        assert 0 < len(rep.failures) < rep.instances


    def test_inverted_two_case_rule_fails_marked_horn_pp(self, monkeypatch):
        # the product horn's enlarged marking adds the facet exactly when
        # the plain rule would not
        cat = enumerate_catalog(Bounds(depth=1, max_dim=2, max_elements=9))
        assert check("MARKED_HORN_PP", cat, SuiteConfig()).status == "pass"
        real = contexts_mod.marked_horn

        def inverted(h, marking):
            mh = real(h, marking)
            return dataclasses.replace(mh, enlarged=mh.enlarged ^ 1 << h.facet)

        monkeypatch.setattr(contexts_mod, "marked_horn", inverted)
        rep = check("MARKED_HORN_PP", cat, SuiteConfig())
        assert len(rep.failures) == rep.instances > 0
        assert all(f["got"]["lemma"] == "MARKED_HORN_PP" for f in rep.failures)

    def test_kept_facet_fails_horn_pp(self, monkeypatch):
        # the expected horn of the product keeps its missing facet
        cat = enumerate_catalog(Bounds(depth=1, max_dim=2, max_elements=9))
        assert check("HORN_PP", cat, SuiteConfig()).status == "pass"
        real = contexts_mod.atomic_horn

        def kept(u, x):
            h = real(u, x)
            return contexts_mod.AtomicHorn(h.shape, h.facet, h.sign, h.horn | 1 << x)

        monkeypatch.setattr(contexts_mod, "atomic_horn", kept)
        rep = check("HORN_PP", cat, SuiteConfig())
        assert len(rep.failures) == rep.instances > 0
        assert all(f["got"]["lemma"] == "HORN_PP" for f in rep.failures)

    def test_failing_product_horn_fails_every_marked_horn_pp_instance(self, monkeypatch):
        # MARKED_HORN_PP keeps the product horns pp_horn returns, but only
        # successes: a pp_horn that fails for one order fails each of that
        # order's instances, not only the first of each horn
        cat = enumerate_catalog(Bounds(depth=1, max_dim=2, max_elements=9))
        real = contexts_mod.pp_horn
        calls = []

        def fails_vu(h, v, order="uv", product=None):
            calls.append(order)
            if order == "vu":
                raise IdentityFailed("planted", certificate={"lemma": "HORN_PP"})
            return real(h, v, order, product)

        monkeypatch.setattr(contexts_mod, "pp_horn", fails_vu)
        rep = check("MARKED_HORN_PP", cat, SuiteConfig())
        vu = sum(1 for f in rep.failures if f["inputs"].get("order") == "vu")
        assert vu == len(rep.failures) == calls.count("vu") == rep.instances // 2 > 0
        # the passing order reuses each product horn across markings and families
        assert 0 < calls.count("uv") < vu

    def test_rejected_atoms_fail_atom_closures(self, monkeypatch):
        # the set-level atom test turns every carrier down: only points
        # can still be certified
        cat = enumerate_catalog(Bounds(depth=1, max_dim=2, max_elements=9))
        assert check("ATOM_CLOSURES", cat, SuiteConfig()).status == "pass"
        monkeypatch.setattr(molecule_mod, "glues_to_atom", lambda p, carrier: False)
        rep = check("ATOM_CLOSURES", cat, SuiteConfig())
        points = sum(1 for e in cat.entries for d in e.molecule.poset.dim_of.values()
                     if d == 0)
        assert len(rep.failures) == rep.instances - points > 0

    def test_maxima_without_output_faces_fail_atom_closures(self, monkeypatch):
        # maximal_mask forgets output faces, so an element that is only an
        # output face looks maximal: atoms no longer have one maximum, and
        # reconstruct's peel search meets its own carrier again, which
        # gets no certificate.  Catalog enumeration reads no maxima, so the
        # catalog does not move.
        bounds = Bounds(depth=1, max_dim=2, max_elements=9)
        cat = enumerate_catalog(bounds)
        assert check("ATOM_CLOSURES", cat, SuiteConfig()).status == "pass"

        def forgets_outputs(self, m):
            faces = 0
            for i in bits(m):
                faces |= self.fin[i]
            return m & ~faces

        monkeypatch.setattr(poset_mod.OgPoset, "maximal_mask", forgets_outputs)
        rep = check("ATOM_CLOSURES", cat, SuiteConfig())
        assert 0 < len(rep.failures) < rep.instances
        assert all(f["got"] == "reconstruction failed" for f in rep.failures)
        assert not cat.atoms(min_dim=1)
        assert [e.expr for e in enumerate_catalog(bounds).entries] == \
            [e.expr for e in cat.entries]

    def test_unsigned_iso_search_fails_iso_unique(self, monkeypatch):
        # the iso search forgets face signs: every face becomes both an
        # input and an output face, so reversible shapes gain automorphisms
        # that only the brute-force oracle, which reads the signed faces,
        # can dispute
        cat = enumerate_catalog(Bounds(depth=1, max_dim=2, max_elements=9))
        assert check("ISO_UNIQUE", cat, SuiteConfig()).status == "pass"
        real = poset_mod.all_isos

        def unsigned(p):
            faces = [a | b for a, b in zip(p.fin, p.fout)]
            return poset_mod.OgPoset(p.dims, faces, faces, p.labels)

        monkeypatch.setattr(harness_mod, "all_isos", lambda p, q: real(unsigned(p), unsigned(q)))
        rep = check("ISO_UNIQUE", cat, SuiteConfig())
        caught = [f for f in rep.failures if f["inputs"].get("check") == "brute-force"]
        assert caught and all(f["expected"] < f["got"] for f in caught)
        assert len(rep.failures) < rep.instances

    def test_dropped_seeds_record_missing_and_extra(self, monkeypatch):
        # the boundary rule keeps only its n-seeds, dropping the maximal
        # elements below n; a failing mask comparison records what its got
        # side misses and what it has besides, as sorted labels
        def dropped_seeds(self, m, n, sign):
            grades = self.grade_masks()
            cofaced = 0
            for i in bits(m & grades[n + 1]):
                cofaced |= (self.fout if sign == MINUS else self.fin)[i]
            return self.closure_mask(m & grades[n] & ~cofaced)

        cat = enumerate_catalog(Bounds(depth=2, max_dim=3, max_elements=8))
        monkeypatch.setattr(poset_mod.OgPoset, "_boundary_below_top", dropped_seeds)
        for lemma in ("GRAY_BOUNDARY", "DIST_LOWER", "CTX_RECURSION"):
            assert_missing_and_extra(check(lemma, cat, SuiteConfig()))

    def test_interface_only_left_piece_records_missing(self, monkeypatch):
        # pastings record their left piece as the glued interface alone,
        # so the piece boundaries miss part of the ambient's boundary
        real = molecule_mod.GeneralisedPasting
        monkeypatch.setattr(molecule_mod, "GeneralisedPasting",
                            lambda left, right, k: real(left & right, right, k))
        cat = enumerate_catalog(Bounds(depth=2, max_dim=3, max_elements=8))
        rep = check("GENCP_BOUNDARY", cat, SuiteConfig())
        compared = assert_missing_and_extra(rep)
        assert all(f["missing"] and not f["extra"] for f in compared)

    def test_sign_blind_facet_rule_records_missing_facet(self, monkeypatch):
        # the enlarged marking reads the top's output facets whatever the
        # horn's sign, so a horn at an output facet never marks its facet;
        # op flips the sign in odd dimensions, so where one side of OP_HORN
        # marks the facet the other does not
        cat = enumerate_catalog(Bounds(depth=2, max_dim=3, max_elements=8))
        real = harness_mod.marked_horn

        def sign_blind(h, marking):
            mh = real(h, marking)
            if h.sign == PLUS:
                return dataclasses.replace(mh, enlarged=mh.enlarged & ~(1 << h.facet))
            return mh

        monkeypatch.setattr(harness_mod, "marked_horn", sign_blind)
        rep = check("OP_HORN", cat, SuiteConfig())
        compared = assert_missing_and_extra(rep)
        assert all(f["missing"] + f["extra"] == [f["inputs"]["x"]] for f in compared)

    def test_wrong_stage_sign_fails_ctx_recursion(self, monkeypatch):
        # each telescoping stage reads the carrier's boundary at the
        # piece's own sign instead of the opposite one
        cat = enumerate_catalog(Bounds(depth=1, max_dim=2, max_elements=9))
        assert check("CTX_RECURSION", cat, SuiteConfig()).status == "pass"
        monkeypatch.setattr(harness_mod, "flip", lambda sign: sign)
        rep = check("CTX_RECURSION", cat, SuiteConfig())
        stages = [f for f in rep.failures if f["inputs"]["detail"].startswith("('stage'")]
        assert stages and len(stages) == len(rep.failures) < rep.instances

    def test_one_sided_peels_fail_op_horn(self, monkeypatch):
        # the context search pastes atoms on the right only; the opposite
        # turns right pastings into left ones, so a horn recognised on U
        # is lost on op(U)
        cat = enumerate_catalog(Bounds(depth=1, max_dim=2, max_elements=9))
        assert check("OP_HORN", cat, SuiteConfig()).status == "pass"
        real = molecule_mod._peel_candidates

        def right_only(p, carrier, protected):
            return [c for c in real(p, carrier, protected) if c["side"] == "right"]

        monkeypatch.setattr(molecule_mod, "_peel_candidates", right_only)
        rep = check("OP_HORN", cat, SuiteConfig())
        assert 0 < len(rep.failures) < rep.instances
        assert all(f["expected"] == "marked horn" for f in rep.failures)


class TestBoundExceeded:
    """An exhausted search budget is a recorded failure with its inputs,
    not an aborted run."""

    def test_recorded_in_marked_horn_checks(self, monkeypatch):
        cat = enumerate_catalog(Bounds(depth=1, max_dim=2, max_elements=9))
        real = contexts_mod.find_derivation
        calls = []

        def every_third(*args, **kwargs):
            calls.append(1)
            if len(calls) % 3 == 0:
                raise BoundExceeded("derivation search exceeded its state budget")
            return real(*args, **kwargs)

        monkeypatch.setattr(contexts_mod, "find_derivation", every_third)
        rep = check("MARKED_HORN_PP", cat, SuiteConfig())
        exhausted = [f for f in rep.failures if "budget" in str(f["got"])]
        keys = {tuple(sorted(f["inputs"])) for f in exhausted}
        # failures while enumerating the horns, and on products of horns
        assert keys == {("A", "U", "x"), ("A", "U", "V", "family", "order", "x")}
        assert 0 < len(rep.failures) < rep.instances
        rep = check("OP_HORN", cat, SuiteConfig())
        assert any("budget" in str(f["got"]) for f in rep.failures)
        assert 0 < len(rep.failures) < rep.instances

    def test_recorded_in_recognition_checks(self, monkeypatch):
        # reconstruct's size cap, met inside recognise_generalised_pasting
        cat = enumerate_catalog(Bounds(depth=1, max_dim=4, max_elements=8))
        real = molecule_mod.reconstruct
        calls = []

        def every_third(*args, **kwargs):
            # the first of every three calls, so that GENCP_BOUNDARY's
            # single call on this catalog raises too
            calls.append(1)
            if len(calls) % 3 == 1:
                raise BoundExceeded("reconstruct ran past its size cap")
            return real(*args, **kwargs)

        monkeypatch.setattr(molecule_mod, "reconstruct", every_third)
        for lemma in ("DIST_LOWER", "GENCP_FORMULA", "GENCP_BOUNDARY"):
            calls.clear()
            rep = check(lemma, cat, SuiteConfig())
            assert 0 < len(rep.failures) <= rep.instances, lemma
            assert all(f["expected"] == "recognised" for f in rep.failures), lemma
            assert all(f["got"] == "reconstruct ran past its size cap"
                       for f in rep.failures), lemma

    def test_derivation_budget_raises(self, monkeypatch):
        # the real state count against DERIVATION_BUDGET, read at call time
        p = globe(2).poset
        hole = p.boundary_mask(p.full, 1, MINUS)
        assert molecule_mod.find_derivation(p, p.full, hole) is not None
        monkeypatch.setattr(molecule_mod, "DERIVATION_BUDGET", 0)
        with pytest.raises(BoundExceeded, match="state budget"):
            molecule_mod.find_derivation(p, p.full, hole)
        # a carrier that is already the hole visits no state
        assert molecule_mod.find_derivation(p, hole, hole) == []

    def test_derivation_budget_recorded_in_marked_horn_checks(self, monkeypatch):
        cat = enumerate_catalog(Bounds(depth=1, max_dim=2, max_elements=9))
        monkeypatch.setattr(molecule_mod, "DERIVATION_BUDGET", 0)
        rep = check("MARKED_HORN_PP", cat, SuiteConfig())
        assert 0 < len(rep.failures) < rep.instances
        assert all(f["got"] == "derivation search exceeded its state budget"
                   for f in rep.failures)
        keys = {tuple(sorted(f["inputs"])) for f in rep.failures}
        # failures while enumerating the horns, and on products of horns
        assert keys == {("A", "U", "x"), ("A", "U", "V", "family", "order", "x")}

    def test_reconstruct_cap_raises(self, monkeypatch):
        # arrow taken five times under gray: 3^5 elements
        big = arrow()
        for _ in range(4):
            big = gray(arrow(), big)
        assert len(big) == 243 > molecule_mod.RECONSTRUCT_CAP
        with pytest.raises(BoundExceeded, match=r"243 elements \(cap 120\)"):
            molecule_mod.reconstruct(big.poset)
        # read at call time: the cap admits exactly its own size
        p = globe(2).poset
        monkeypatch.setattr(molecule_mod, "RECONSTRUCT_CAP", len(p))
        assert molecule_mod.reconstruct(p) is not None
        monkeypatch.setattr(molecule_mod, "RECONSTRUCT_CAP", len(p) - 1)
        with pytest.raises(BoundExceeded):
            molecule_mod.reconstruct(p)

    def test_programming_errors_propagate(self, monkeypatch):
        # only a ShapeError is an instance's failure; anything else is a bug
        cat = enumerate_catalog(Bounds(depth=0, max_dim=1, max_elements=3))

        def broken(p, q):
            raise TypeError("not a shape error")

        monkeypatch.setattr(harness_mod, "op_swap_iso", broken)
        with pytest.raises(TypeError, match="not a shape error"):
            check("OP_SWAP", cat, SuiteConfig())


def load_bench_module(name):
    path = ROOT / "perfbench" / f"{name}.py"
    loader = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


def load_bench_spec():
    return load_bench_module("spec")


def test_tracer_targets_resolve():
    # the benchmark's tracer wraps these by name, OgPoset's label wrappers
    # among them; resolve each without install(), which rebinds modules
    tracer = load_bench_module("tracer")
    for module, attr, name in tracer.TARGETS:
        owner = importlib.import_module(f"ogpkit.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name
    # its repeat key reads the label views
    a, g = arrow().poset, globe(2).poset
    key = tracer.poset_key(gray_poset(a, g))
    assert key == tracer.poset_key(gray_poset(a, g))
    assert key != tracer.poset_key(gray_poset(g, a))


def test_golden_recorder_names_resolve():
    # perfbench/make_goldens.py imports these names and calls faces and
    # top() on the catalog's atoms; resolve each, and check that sid is
    # the identity on labels
    tree = ast.parse((ROOT / "perfbench" / "make_goldens.py").read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module.startswith("ogpkit")
                for alias in node.names]
    assert ("ogpkit.ids", "sid") in imported
    assert ("ogpkit.harness", "enumerate_marked_horns") in imported
    for module, name in imported:
        owner = importlib.import_module(module)
        assert (hasattr(owner, name)
                or importlib.util.find_spec(f"{module}.{name}")), (module, name)
    from ogpkit.ids import sid

    u = gray(arrow(), arrow())
    faces = u.poset.faces(u.top(), MINUS)
    assert faces == {"(0-,1)", "(1,0+)"}
    assert all(sid(x) == x for x in faces)


def test_catalog_labels_are_strings():
    cat = enumerate_catalog(Bounds(depth=2, max_dim=4, max_elements=10))
    for e in cat.entries:
        labels = e.molecule.poset.labels
        assert all(type(x) is str for x in labels), e.expr
        assert len(set(labels)) == len(labels), e.expr


def check_verify_pass_against_goldens(src_env, workload, seed, golden_key, flags=()):
    """Run one verify pass of the benchmark as `ogpkit verify`, with the
    given interpreter flags, and compare its per-lemma hashes, computed as
    perfbench/run.py does, with the recorded goldens."""
    spec = load_bench_spec()
    golden = json.loads((spec.GOLDENS / "verify.json").read_text())[workload][golden_key]
    argv = spec.verify_argv(workload, seed)
    out = subprocess.run([sys.executable, *flags, "-m", "ogpkit", *argv], env=src_env,
                         capture_output=True, timeout=600)
    assert out.returncode == 0, out.stderr
    reports = {r["lemma"]: r for r in json.loads(out.stdout)["reports"]}
    assert set(reports) == set(golden["lemmas"])
    for lemma, want in golden["lemmas"].items():
        got = reports[lemma]
        assert got["instances"] == want["instances"], lemma
        digest = hashlib.sha256(json.dumps(got, sort_keys=True).encode()).hexdigest()
        assert digest == want["sha256"], lemma
    assert hashlib.sha256(out.stdout).hexdigest() == golden["report_sha256"]


def test_verify_search_reports_match_benchmark_goldens(src_env):
    check_verify_pass_against_goldens(src_env, "verify-search", 0, "default")


def test_verify_products_reports_match_benchmark_goldens(src_env):
    # MUTATION seed 0
    check_verify_pass_against_goldens(src_env, "verify-products", 0, "0")


def test_verify_search_reports_match_benchmark_goldens_under_optimize(src_env):
    # no lemma may rely on an assert statement to fail or to pass
    check_verify_pass_against_goldens(src_env, "verify-search", 0, "default", flags=("-O",))


def test_verify_products_reports_match_benchmark_goldens_under_optimize(src_env):
    # MUTATION seed 3
    check_verify_pass_against_goldens(src_env, "verify-products", 3, "3", flags=("-O",))


def test_horn_commands_match_shapes_goldens():
    # every horn, pp-horn and pp-marked-horn command of the shapes
    # workload, run through cli.main as the benchmark's child runs it
    from ogpkit import cli

    spec, child = load_bench_spec(), load_bench_module("child")
    pool = json.loads((spec.GOLDENS / "shapes.json").read_text())["pool"]
    entries = [e for e in pool if e["kind"] in ("horn", "pp-horn", "pp-marked-horn")]
    assert len(entries) == 144
    for entry in entries:
        code, data, _ = child.run_command(cli, entry["argv"])
        assert (code, hashlib.sha256(data).hexdigest()) == (entry["exit"], entry["sha256"]), \
            entry["argv"]


def test_shape_commands_match_shapes_goldens():
    # every build, check, boundary, iso and render command of the shapes
    # workload: these print iso maps and paste certificates
    from ogpkit import cli

    spec, child = load_bench_spec(), load_bench_module("child")
    pool = json.loads((spec.GOLDENS / "shapes.json").read_text())["pool"]
    entries = [e for e in pool if e["kind"] in ("build", "check", "boundary", "iso", "render")]
    assert len(entries) == 240
    for entry in entries:
        code, data, _ = child.run_command(cli, entry["argv"])
        assert (code, hashlib.sha256(data).hexdigest()) == (entry["exit"], entry["sha256"]), \
            entry["argv"]


SHAPES_REPLAY = """
import hashlib, importlib.util, json, sys
from ogpkit import cli
loader = importlib.util.spec_from_file_location("perfbench_child", sys.argv[1])
child = importlib.util.module_from_spec(loader)
loader.loader.exec_module(child)
pool = json.loads(open(sys.argv[2]).read())["pool"]
for entry in pool:
    code, data, _ = child.run_command(cli, entry["argv"])
    if (code, hashlib.sha256(data).hexdigest()) != (entry["exit"], entry["sha256"]):
        print("mismatch", json.dumps(entry["argv"]))
print(sys.flags.optimize, len(pool))
"""


def test_shapes_goldens_under_optimize(src_env):
    # all 384 commands of the shapes workload again under -O, where
    # assert statements vanish
    spec = load_bench_spec()
    out = subprocess.run([sys.executable, "-O", "-c", SHAPES_REPLAY,
                          str(ROOT / "perfbench" / "child.py"), str(spec.GOLDENS / "shapes.json")],
                         env=src_env, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["1 384"]


def test_depth3_catalog_matches_catalog_golden(d3_catalog):
    spec = load_bench_spec()
    assert spec.CATALOG["catalog-d3"] == (3, 4, 12)
    golden = json.loads((spec.GOLDENS / "catalog.json").read_text())["catalog-d3"]
    assert [e.expr for e in d3_catalog.entries] == golden
