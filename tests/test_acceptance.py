"""Acceptance criteria, one test per criterion.

The lemma suite runs once over the shared depth-2 catalog; each criterion
asserts on its reports plus criterion-specific structure, and prints one
pass/fail line (visible with pytest -s or in the captured output).
"""

import time

import pytest

from ogpkit.contexts import atomic_horn, classified_context, is_a_context, marked_horn
from ogpkit.cylinder import invertor_shape, unit_shape
from ogpkit.exprlang import eval_text
from ogpkit.harness import (
    LEMMAS,
    Bounds,
    SuiteConfig,
    check,
    enumerate_catalog,
    enumerate_marked_horns,
)
from ogpkit.molecule import arrow, globe, is_round
from ogpkit.poset import MINUS, PLUS, find_iso

REQUIRED_SHAPES = (
    "point",
    "arrow",
    "paste(arrow,arrow,0)",
    "globe(2)",
    "globe(3)",
    "paste(globe(2),arrow,0)",
    "paste(globe(2),globe(2),1)",
    "gray(arrow,arrow)",
)


@pytest.fixture(scope="module")
def suite():
    config = SuiteConfig(bounds=Bounds(depth=2, max_dim=4, max_elements=16))
    t0 = time.time()
    catalog = enumerate_catalog(config.bounds)
    reports = {}
    timings = {}
    for lemma in LEMMAS:
        t1 = time.time()
        reports[lemma] = check(lemma, catalog, config)
        timings[lemma] = time.time() - t1
    total = time.time() - t0
    return {"catalog": catalog, "reports": reports, "timings": timings,
            "total": total}


def announce(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_gray_boundary(suite):
    catalog = suite["catalog"]
    for expr in REQUIRED_SHAPES:
        target = eval_text(expr)
        present = any(
            find_iso(e.molecule.poset, target.poset) is not None
            for e in catalog.entries
        )
        assert present, f"required shape missing from catalog: {expr}"
        op_target = eval_text(f"op({expr})")
        present = any(
            find_iso(e.molecule.poset, op_target.poset) is not None
            for e in catalog.entries
        )
        assert present, f"dual of required shape missing from catalog: {expr}"
    rep = suite["reports"]["GRAY_BOUNDARY"]
    took = suite["timings"]["GRAY_BOUNDARY"]
    announce(
        "1 GRAY_BOUNDARY",
        rep.status == "pass" and rep.instances >= 500 and took < 60.0,
        f"{rep.instances} instances, {len(rep.failures)} failures, {took:.1f}s",
    )


def test_criterion_2_horn_pp(suite):
    rep = suite["reports"]["HORN_PP"]
    announce(
        "2 HORN_PP",
        rep.status == "pass" and rep.instances >= 100,
        f"{rep.instances} instances, {len(rep.failures)} failures",
    )


def test_criterion_3_marked_horn_pp(suite):
    rep = suite["reports"]["MARKED_HORN_PP"]
    # the two marking extremes are both exercised
    empty_seen = False
    full_seen = False
    for u in suite["catalog"].atoms(max_dim=3, min_dim=1, max_elements=11):
        p = u.poset
        # an exhausted marking is a failing MARKED_HORN_PP instance
        horns, _ = enumerate_marked_horns(u)
        for mh in horns:
            if mh.marking == 0:
                empty_seen = True
            positives = mh.horn.horn & ~p.grade_masks()[0]
            if mh.marking == positives and positives:
                full_seen = True
    announce(
        "3 MARKED_HORN_PP",
        rep.status == "pass" and rep.instances >= 100 and empty_seen and full_seen,
        f"{rep.instances} instances, {len(rep.failures)} failures, "
        f"extremes covered: empty={empty_seen} full={full_seen}",
    )


def test_criterion_4_op_swap_op_pp(suite):
    reps = [suite["reports"][l] for l in ("OP_SWAP", "OP_PP", "OP_HORN")]
    announce(
        "4 OP_SWAP+OP_PP+OP_HORN",
        all(r.status == "pass" for r in reps),
        ", ".join(f"{r.lemma}: {r.instances} instances" for r in reps),
    )


def test_criterion_5_entire_residual(suite):
    rep = suite["reports"]["ENTIRE_RESIDUAL"]
    announce(
        "5 ENTIRE_RESIDUAL",
        rep.status == "pass" and rep.instances > 0,
        f"{rep.instances} instances, {len(rep.failures)} failures",
    )


def test_criterion_6_cylinders(suite):
    a = arrow()
    unit = unit_shape(a)
    ok = len(unit) == 5
    top = "(1,1)"
    # type u => u: one input edge, one output edge, both copies of the base
    ok = ok and unit.poset.faces(top, MINUS) == {"(0-,1)"}
    ok = ok and unit.poset.faces(top, PLUS) == {"(0+,1)"}

    ql = invertor_shape("L", a)
    ok = ok and len(ql) == 7
    ok = ok and len(ql.poset.faces("(1,1)", MINUS)) == 2
    ok = ok and len(ql.poset.faces("(1,1)", PLUS)) == 1

    structural = suite["reports"]["CYLINDERS"]
    rounds = [m for m in suite["catalog"].round_molecules()
              if m.dim >= 1 and len(m) <= 9]
    checked = 0
    for m in rounds:
        for s in ("", "L", "R", "LL", "LR", "RL", "RR")[:7]:
            if len(s) > 2:
                continue
            q = invertor_shape(s, m)
            ok = ok and q.dim == m.dim + len(s) and is_round(q)
            ok = ok and (not m.is_atom() or q.is_atom())
            checked += 1
    announce(
        "6 CYLINDERS",
        ok and structural.status == "pass",
        f"unit(I)=5, invertor L(I)=7, {checked} invertor shapes checked",
    )


def test_criterion_7_rigidity_dedup(suite):
    rep = suite["reports"]["ISO_UNIQUE"]
    announce(
        "7 RIGIDITY+DEDUP",
        rep.status == "pass",
        f"{rep.instances} instances incl. brute-force cross-checks, "
        f"{len(rep.failures)} failures",
    )


def test_criterion_8_context_and_gencp_suite(suite):
    names = ("CTX_RECURSION", "DIST_LOWER", "GENCP_FORMULA", "GENCP_BOUNDARY")
    reps = [suite["reports"][l] for l in names]
    total = sum(r.instances for r in reps)
    announce(
        "8 CTX+DIST+GENCP",
        all(r.status == "pass" for r in reps) and total >= 100,
        ", ".join(f"{r.lemma}: {r.instances}" for r in reps),
    )


def test_criterion_9_mutation_and_wall_clock(suite):
    rep = suite["reports"]["MUTATION"]
    total = suite["total"]
    announce(
        "9 MUTATION+TIMING",
        rep.status == "pass" and total < 300.0,
        f"mutation {rep.warning or 'detected'}; suite wall clock {total:.1f}s",
    )


def test_square_horn_marking_examples():
    # spot checks pinning the two-case enlargement rule used throughout
    g = globe(2)
    p = g.poset
    h = atomic_horn(g, p.id_of("1-"))
    mh = marked_horn(h, 0)
    assert p.decode(mh.enlarged) == {"2"}
    mh = marked_horn(h, p.encode({"1+"}))
    assert p.decode(mh.enlarged) == {"1+", "1-", "2"}
    sq = eval_text("gray(arrow,arrow)")
    ctx = classified_context(atomic_horn(sq, sq.poset.id_of("(0-,1)")))
    assert is_a_context(ctx, 0) is None
    assert is_a_context(ctx, ctx.ambient.poset.encode({"(1,0+)"})) is not None
