"""Cylinders, inverted cylinders, invertor shapes, their recorded collapses
(the projections tau), units."""

import pytest

from ogpkit.cli import main
from ogpkit.cylinder import (
    _cylinder_poset,
    collapse_defect,
    gray_cylinder,
    inverted_cylinder,
    invertor_shape,
    unit_shape,
    unitor_shape,
)
from ogpkit.errors import (
    BadCollapseSet,
    KNotClosed,
    NotRewritable,
    NotRound,
    ShapeError,
    ZeroDimensional,
)
from ogpkit.gray import gray
from ogpkit.harness import Bounds, enumerate_catalog
from ogpkit.ids import pair
from ogpkit.molecule import Molecule, arrow, globe, is_round, paste, point
from ogpkit.poset import MINUS, PLUS, bits, build, find_iso, map_mask


class TestGrayCylinder:
    def test_empty_collapse_is_gray_product(self):
        cyl = gray_cylinder(arrow(), 0)
        prod = gray(arrow(), arrow())
        assert cyl.poset == prod.poset

    def test_total_collapse_is_base(self):
        a = arrow()
        assert gray_cylinder(a, a.poset.full) is a

    def test_unit_shape_of_arrow(self):
        u = unit_shape(arrow())
        assert len(u) == 5 and u.dim == 2
        top = "(1,1)"
        assert u.poset.faces(top, MINUS) == {"(0-,1)"}
        assert u.poset.faces(top, PLUS) == {"(0+,1)"}
        # both edges run between the two glued endpoints
        for e in ("(0-,1)", "(0+,1)"):
            assert u.poset.faces(e, MINUS) == {"0-"}
            assert u.poset.faces(e, PLUS) == {"0+"}

    def test_unit_shape_of_point_is_arrow(self):
        u = unit_shape(point())
        assert find_iso(u.poset, arrow().poset) is not None

    def test_not_closed_rejected(self):
        with pytest.raises(KNotClosed):
            gray_cylinder(arrow(), 0b100)  # {1} without its end points

    def test_ids_do_not_depend_on_the_hash_seed(self, src_env):
        # the expression's collapse set is a frozenset of labels, whose
        # iteration order changes with PYTHONHASHSEED; the cylinder's ids
        # must not
        import json
        import subprocess
        import sys

        outs = []
        for seed in ("1", "2"):
            out = subprocess.run([sys.executable, "-c", CYLINDER_IDS],
                                 env={**src_env, "PYTHONHASHSEED": seed},
                                 capture_output=True, text=True, timeout=120)
            assert out.returncode == 0, out.stderr
            outs.append(json.loads(out.stdout))
        assert outs[0] == outs[1]


CYLINDER_IDS = """
import json
from ogpkit.exprlang import eval_text
p = eval_text('cyl(globe(2), {"1+", "0-", "1-", "0+"})').poset
print(json.dumps({"dims": p.dims, "fin": p.fin, "fout": p.fout, "labels": p.labels}))
"""


class TestInvertedCylinder:
    def test_left_inverted_arrow(self):
        c = inverted_cylinder(arrow(), 0b010, "L")  # {0+}
        assert len(c) == 7 and c.dim == 2
        assert c.is_atom()
        top = "(1,1)"
        assert c.poset.faces(top, MINUS) == {"(0-,1)", "(0+,1)"}
        assert c.poset.faces(top, PLUS) == {"(1,0-)"}
        # input side is the 2-path around the glued point
        assert c.poset.faces("(0-,1)", MINUS) == {"(0-,0-)"}
        assert c.poset.faces("(0-,1)", PLUS) == {"0+"}
        assert c.poset.faces("(0+,1)", MINUS) == {"0+"}
        assert c.poset.faces("(0+,1)", PLUS) == {"(0+,0-)"}

    def test_left_inverted_globe(self):
        g = globe(2)
        c = inverted_cylinder(g, g.poset.boundary_mask(g.poset.full, 1, PLUS), "L")
        assert len(c) == 9 and c.dim == 3
        assert c.is_atom()
        assert is_round(c)

    def test_right_inverted_arrow(self):
        c = inverted_cylinder(arrow(), 0b001, "R")  # {0-}
        assert len(c) == 7 and c.dim == 2
        assert c.is_atom()
        top = "(1,1)"
        assert c.poset.faces(top, MINUS) == {"(1,0+)"}
        assert c.poset.faces(top, PLUS) == {"(0-,1)", "(0+,1)"}

    def test_bad_collapse_set(self):
        with pytest.raises(BadCollapseSet):
            inverted_cylinder(arrow(), 0b001, "L")  # 0- is not in bd+

    def test_nonexceptional_part_matches_plain(self):
        g = globe(2)
        K = g.poset.boundary_mask(g.poset.full, 1, PLUS)
        inv = inverted_cylinder(g, K, "L")
        plain = gray_cylinder(g, K)
        n = g.dim
        tops = g.poset.decode(g.poset.grade_masks()[n])
        exceptional = {pair(a, t) for a in ("1", "0+") for t in tops}
        for e in inv.poset.dim_of:
            if e in exceptional or inv.poset.dim_of[e] == 0:
                continue
            for s in (MINUS, PLUS):
                assert inv.poset.faces(e, s) == plain.poset.faces(e, s), (e, s)


class TestInvertorShapes:
    def test_empty_string(self):
        a = arrow()
        assert invertor_shape("", a) is a

    def test_single_left(self):
        c = invertor_shape("L", arrow())
        assert len(c) == 7 and c.dim == 2

    def test_dimension_growth(self):
        a = arrow()
        for s in ("", "L", "R", "LL", "LR", "RL", "RR"):
            q = invertor_shape(s, a)
            assert q.dim == a.dim + len(s), s

    def test_atoms_and_roundness_preserved(self):
        for base in (arrow(), globe(2)):
            for s in ("L", "R", "LR", "RL"):
                q = invertor_shape(s, base)
                assert q.is_atom()
                assert is_round(q)

    def test_not_round_rejected(self):
        whisk = paste(globe(2), arrow(), 0)
        with pytest.raises(NotRound):
            invertor_shape("L", whisk)

    def test_zero_dimensional_base_rejected(self, capsys):
        for side in ("L", "R"):
            with pytest.raises(ZeroDimensional):
                inverted_cylinder(point(), 0, side)
        with pytest.raises(ZeroDimensional):
            invertor_shape("L", point())
        assert main(["build", "lcyl(point)"]) == 1
        assert "dimension" in capsys.readouterr().err


# -- a label-level oracle ------------------------------------------------------

I_SRC, I_MID, I_TGT = "0-", "1", "0+"


def reference_cylinder(p, K, variant):
    """The cylinder on p collapsing the closed label set K, written out
    face by face on labels and validated by build(); it shares no code
    with gray_poset.  Returns the poset and the collapse map onto p as an
    id image."""
    n = p.dim
    elements, faces = {}, {}
    collapse = []
    for y in sorted(K, key=p.index.__getitem__):
        elements[y] = p.dim_of[y]
        collapse.append(p.index[y])
        if p.dim_of[y] > 0:
            faces[y] = (set(p.faces(y, MINUS)), set(p.faces(y, PLUS)))

    def side_copy(i, x, sign):
        """Faces of (i, x) for i an endpoint, the plain rule."""
        return {pair(i, y) for y in p.faces(x, sign) - K} | (p.faces(x, sign) & K)

    for x_id, (x, dx) in enumerate(p.dim_of.items()):
        if x in K:
            continue
        top = dx == n and variant != "plain"
        for i in (I_SRC, I_TGT):
            e = pair(i, x)
            elements[e] = dx
            collapse.append(x_id)
            if dx == 0:
                continue
            reversed_copy = i == (I_TGT if variant == "L" else I_SRC)
            if top and reversed_copy:
                faces[e] = (side_copy(i, x, PLUS), side_copy(i, x, MINUS))
            else:
                faces[e] = (side_copy(i, x, MINUS), side_copy(i, x, PLUS))
        e = pair(I_MID, x)
        elements[e] = dx + 1
        collapse.append(x_id)
        if top and variant == "L":
            fin = {pair(I_SRC, x), pair(I_TGT, x)} | {pair(I_MID, y) for y in p.faces(x, PLUS) - K}
            fout = {pair(I_MID, y) for y in p.faces(x, MINUS)}
        elif top and variant == "R":
            fin = {pair(I_MID, y) for y in p.faces(x, PLUS)}
            fout = ({pair(I_SRC, x), pair(I_TGT, x)}
                    | {pair(I_MID, y) for y in p.faces(x, MINUS) - K})
        else:
            fin = {pair(I_SRC, x)} | {pair(I_MID, y) for y in p.faces(x, PLUS) - K}
            fout = {pair(I_TGT, x)} | {pair(I_MID, y) for y in p.faces(x, MINUS) - K}
        faces[e] = (fin, fout)
    return build(elements, faces), collapse


def closed_submasks(p, within):
    """Every closed mask of p inside the mask within."""
    ids = bits(within)
    for r in range(1 << len(ids)):
        m = 0
        for k, i in enumerate(ids):
            if r >> k & 1:
                m |= 1 << i
        if p.is_closed_mask(m):
            yield m


class TestOracle:
    def test_quotient_matches_the_label_rules(self):
        # every shape of at most 9 elements, with every collapse set
        cat = enumerate_catalog(Bounds(depth=2, max_dim=4, max_elements=9))
        cases = 0
        for e in cat.entries:
            p = e.molecule.poset
            runs = [("plain", K) for K in closed_submasks(p, p.full)]
            if p.dim >= 1:
                for variant, sign in (("L", PLUS), ("R", MINUS)):
                    bound = p.boundary_mask(p.full, p.dim - 1, sign)
                    runs += [(variant, K) for K in closed_submasks(p, bound)]
            for variant, K in runs:
                got, got_collapse = _cylinder_poset(p, K, variant)
                want, want_collapse = reference_cylinder(p, p.decode(K), variant)
                where = (e.expr, p.sids(K), variant)
                assert got.labels == want.labels, where
                assert got.faces_in == want.faces_in, where
                assert got.faces_out == want.faces_out, where
                assert (got.dims, got.fin, got.fout) == (want.dims, want.fin, want.fout), where
                assert got_collapse == want_collapse, where
                cases += 1
        assert cases == 1551


def collapse_of(c, steps):
    """The base steps cylinders below c and the composite of the recorded
    collapses onto it, as an id image."""
    base, image = c, list(range(len(c)))
    for _ in range(steps):
        base, ids = base.provenance["collapse"]
        image = [ids[j] for j in image]
    return base, image


def image_of(c, steps, x):
    """The label that the composite collapse sends the label x of c to."""
    base, image = collapse_of(c, steps)
    return base.poset.labels[image[c.poset.id_of(x)]]


class TestProjection:
    def test_unit_shape_projection(self):
        u = unit_shape(arrow())
        assert image_of(u, 1, "(1,1)") == "1"
        assert image_of(u, 1, "0-") == "0-"
        assert collapse_defect(u, 1) is None

    def test_invertor_projection_composite(self):
        a = arrow()
        q = invertor_shape("L", a)
        assert collapse_of(q, 1)[0] is a
        # both input edges collapse onto the base edge
        assert image_of(q, 1, "(0-,1)") == "1"
        assert image_of(q, 1, "(0+,1)") == "1"
        assert collapse_defect(q, 1) is None

    def test_projection_drops_dim_by_string_length(self):
        a = arrow()
        for s in ("L", "LR", "RL"):
            q = invertor_shape(s, a)
            assert collapse_of(q, len(s))[0] is a
            assert q.dim - a.dim == len(s)
            assert collapse_defect(q, len(s)) is None


class TestUnitor:
    def test_identity_hole_collapses_other_side(self):
        g = globe(2)
        shape = unitor_shape(g, "left")
        p = g.poset
        assert shape.certificate["K"] == p.sids(p.boundary_mask(p.full, 1, PLUS))

    def test_unitor_on_arrow(self):
        a = arrow()
        shape = unitor_shape(a, "left")
        assert len(shape) == 7 and shape.dim == 2

    def test_right_unitor(self):
        a = arrow()
        shape = unitor_shape(a, "right")
        assert len(shape) == 7 and shape.dim == 2

    def test_agrees_with_identity_inclusion_construction(self):
        # the collapse set as it was built from the identity inclusion of
        # the whole boundary: the hole's interior carried into u
        cases = {"built": 0, "raised": 0}
        for u in enumerate_catalog(Bounds(depth=2, max_dim=4, max_elements=12)).molecules():
            for side in ("left", "right"):
                try:
                    want = identity_inclusion_collapse_set(u, side)
                except ShapeError as err:
                    with pytest.raises(type(err)):
                        unitor_shape(u, side)
                    cases["raised"] += 1
                    continue
                assert unitor_shape(u, side).certificate["K"] == u.poset.sids(want)
                cases["built"] += 1
        assert cases["built"] and cases["raised"]


def identity_inclusion_collapse_set(u, side):
    """Oracle for unitor_shape's K: u must be round; the hole is the
    boundary molecule B on bd_(n-1)^sign u, its ids the bits of its mask;
    its interior, B less B's own full boundary, is carried into u, and K
    is u's full boundary less that interior."""
    if not is_round(u):
        raise NotRound("unitor shapes are defined on round molecules")
    p = u.poset
    hole = p.boundary_mask(p.full, u.dim - 1, MINUS if side == "left" else PLUS)
    b = p.restrict_mask(hole)
    if not is_round(b):
        raise NotRewritable("unitor hole must be rewritable")
    K = p.full_boundary_mask() & ~map_mask(b.full & ~b.full_boundary_mask(), bits(hole))
    if not p.is_closed_mask(K):
        raise KNotClosed("unitor collapse set is not closed")
    return K


COLLAPSE_FAULT = """
import sys
from ogpkit import cylinder
from ogpkit.harness import Bounds, SuiteConfig, check, enumerate_catalog

quotient = cylinder._cylinder_poset


def planted(p, K, variant):
    # the last element's collapse image moved onto the first element's
    poset, image = quotient(p, K, variant)
    return poset, image[:-1] + image[:1]


cylinder._cylinder_poset = planted
bounds = Bounds(1, 2, 9)
rep = check("CYLINDERS", enumerate_catalog(bounds), SuiteConfig(bounds))
failing = {(f["inputs"]["base"], f["inputs"].get("s")) for f in rep.failures}
named = {(f["inputs"]["base"], f["inputs"].get("s")) for f in rep.failures
         if "projection must respect closures" in str(f["got"])}
print(sys.flags.optimize, rep.instances, len(failing), len(named))
"""


CYLINDER_FAULTS = """
import sys
from ogpkit.cylinder import _cylinder_poset, gray_cylinder, inverted_cylinder, invertor_shape
from ogpkit.errors import ShapeError
from ogpkit.molecule import arrow, globe, point
from ogpkit.poset import MINUS

a, g = arrow(), globe(2)  # the arrow has ids 0-, 0+, 1 = 0, 1, 2
tries = [
    lambda: gray_cylinder(a, 0b1000),  # a bit outside the base
    lambda: inverted_cylinder(a, 0b1010, "L"),
    lambda: gray_cylinder(a, 0b100),  # {1} without its end points
    lambda: inverted_cylinder(a, 0b001, "L"),  # 0- is not in bd+
    lambda: inverted_cylinder(point(), 0, "R"),
    lambda: invertor_shape("L", point()),
    # L reverses the top cell's far copy, reading its input faces, here in K
    lambda: _cylinder_poset(g.poset, g.poset.boundary_mask(g.poset.full, 1, MINUS), "L"),
]
raised = []
for attempt in tries:
    try:
        attempt()
    except ShapeError as exc:
        raised.append(type(exc).__name__)
print(sys.flags.optimize, *raised)
"""


class TestCollapseSetValidation:
    """Collapse sets are checked by ShapeError subclasses, which survive
    python -O."""

    def test_bad_collapse_sets_raise_under_optimize(self, src_env):
        import subprocess
        import sys

        for flags in ((), ("-O",)):
            out = subprocess.run([sys.executable, *flags, "-c", CYLINDER_FAULTS],
                                 env=src_env, capture_output=True, text=True, timeout=120)
            assert out.returncode == 0, out.stderr
            assert out.stdout.split() == [str(len(flags)), "BadCollapseSet", "BadCollapseSet",
                                          "KNotClosed", "BadCollapseSet", "ZeroDimensional",
                                          "ZeroDimensional", "BadCollapseSet"]


class TestProjectionValidation:
    """Recorded collapses are checked on masks by collapse_defect, which
    returns its defect as a string, also under python -O."""

    def test_planted_collapse_fault_fails_cylinders(self, src_env):
        import subprocess
        import sys

        for flags in ((), ("-O",)):
            out = subprocess.run([sys.executable, *flags, "-c", COLLAPSE_FAULT],
                                 env=src_env, capture_output=True, text=True, timeout=120)
            assert out.returncode == 0, out.stderr
            assert out.stdout.split() == [str(len(flags)), "48", "36", "36"]

    def test_messages_name_the_defect(self):
        a = arrow()  # ids 0-, 0+, 1 = 0, 1, 2
        for ids, defect in (([0, 2], "projection must be total"),
                            ([0, 0, 2], "projection must be surjective"),
                            ([2, 1, 0], "projection must not raise the dimension of 0-")):
            c = Molecule(a.poset, {})
            c.provenance["collapse"] = (a, ids)
            assert collapse_defect(c, 1) == defect
            assert collapse_defect(c, 0) is None
        # a pinched copy of the arrow: its edge's faces land on one end point
        pinched = Molecule(build(
            {"(0-,0-)": 0, "(0+,0-)": 0, "(0+,0+)": 0, "(0-,1)": 1},
            {"(0-,1)": ({"(0-,0-)"}, {"(0+,0-)"})}), {})
        pinched.provenance["collapse"] = (a, [0, 0, 1, 2])
        assert collapse_defect(pinched, 1) == "projection must respect closures"
