"""Molecule construction, boundaries, roundness, pastings, mergers."""

import importlib
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ogpkit.errors import (
    BadEmbedding,
    BoundaryMismatch,
    DimMismatch,
    NotRewritable,
    NotRound,
    ShapeError,
    ZeroDimensional,
)
from ogpkit.harness import Bounds, enumerate_catalog
from ogpkit.molecule import (
    Inclusion,
    Molecule,
    arrow,
    atom,
    find_derivation,
    globe,
    glues_to_atom,
    is_round,
    merger,
    op,
    paste,
    paste_along,
    paste_at,
    point,
    recognise_generalised_pasting,
    reconstruct,
)
from ogpkit.poset import MINUS, PLUS, SIGNS, bits, build, canonical_key, find_iso

from derivation_oracle import replay_derivation

molecule_mod = importlib.import_module("ogpkit.molecule")


def path2():
    """I #0 I, the 2-edge path."""
    return paste(arrow(), arrow(), 0)


class TestBaseShapes:
    def test_point(self):
        p = point()
        assert len(p) == 1 and p.dim == 0

    def test_arrow(self):
        a = arrow()
        assert len(a) == 3 and a.dim == 1
        assert a.is_atom()

    def test_globe2(self):
        g = globe(2)
        assert len(g) == 5 and g.dim == 2
        assert g.poset.faces("2", MINUS) == {"1-"}
        assert g.poset.faces("2", PLUS) == {"1+"}

    def test_globe_is_iterated_atom(self):
        # globe(n) is uniquely isomorphic to atom(globe(n-1), globe(n-1))
        for n in (1, 2, 3):
            built = atom(globe(n - 1), globe(n - 1))
            assert find_iso(built.poset, globe(n).poset) is not None

    def test_globe_element_count(self):
        # 2n + 1 elements
        for n in range(4):
            assert len(globe(n)) == 2 * n + 1


class TestBoundary:
    def test_arrow_input(self):
        a = arrow()
        p = a.poset
        mask = p.boundary_mask(p.full, 0, MINUS)
        assert p.decode(mask) == {"0-"}
        # the boundary molecule's ids are the bits of the mask in order
        b = a.boundary_molecule(0, MINUS)
        assert list(b.poset.labels) == [p.labels[i] for i in bits(mask)]
        assert b.certificate["kind"] == "boundary"

    def test_saturation_is_identity(self):
        a = arrow()
        assert a.boundary_molecule(5, MINUS) is a

    def test_globularity_on_samples(self):
        for m in (globe(3), paste(globe(2), globe(2), 1), paste(globe(2), arrow(), 0)):
            p = m.poset
            n = p.dim
            for inner in range(n):
                for outer in range(inner + 1, n):
                    for s_in in (MINUS, PLUS):
                        for s_out in (MINUS, PLUS):
                            sub = p.restrict(p.boundary_set(outer, s_out))
                            assert sub.boundary_set(inner, s_in) == p.boundary_set(inner, s_in)


class TestRound:
    def test_point_round(self):
        assert is_round(point())

    def test_path_round(self):
        assert is_round(path2())

    def test_whiskered_globe_not_round(self):
        assert not is_round(paste(globe(2), arrow(), 0))

    def test_globes_round(self):
        for n in range(4):
            assert is_round(globe(n))


class TestPaste:
    def test_path(self):
        p = path2()
        assert len(p) == 5
        maxima = p.poset.decode(p.poset.maximal_mask(p.poset.full))
        assert len(maxima) == 2
        assert all(p.poset.dim_of[m] == 1 for m in maxima)

    def test_degenerate_point_pasting(self):
        q = paste(point(), point(), 0)
        assert find_iso(q.poset, point().poset) is not None

    def test_vertical_composite(self):
        # two 2-globes glued along a shared arrow: 5 + 5 - 3 elements
        v = paste(globe(2), globe(2), 1)
        assert len(v) == 7
        assert v.dim == 2

    def test_boundary_mismatch(self):
        two_to_one = atom(arrow(), path2())
        with pytest.raises(BoundaryMismatch):
            paste(two_to_one, globe(2), 1)

    def test_canonical_inclusions_recorded(self):
        p = path2()
        g = p.provenance["gencp"]
        assert g.left | g.right == p.poset.full


class TestAtom:
    def test_two_globe(self):
        g = atom(arrow(), arrow())
        assert len(g) == 5 and g.dim == 2
        assert g.is_atom()

    def test_one_to_two(self):
        a = atom(arrow(), path2())
        assert len(a) == 7 and a.dim == 2
        top = a.top()
        assert len(a.poset.faces(top, MINUS)) == 1
        assert len(a.poset.faces(top, PLUS)) == 2

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            atom(arrow(), globe(2))

    def test_not_round(self):
        with pytest.raises(NotRound):
            atom(paste(globe(2), arrow(), 0), paste(globe(2), arrow(), 0))


class TestMerger:
    def test_merger_of_path_is_arrow(self):
        m = merger(path2())
        assert find_iso(m.poset, arrow().poset) is not None

    def test_merger_of_globe_is_globe(self):
        m = merger(globe(2))
        assert find_iso(m.poset, globe(2).poset) is not None

    def test_merger_point_undefined(self):
        with pytest.raises(ZeroDimensional):
            merger(point())

    def test_merger_not_round(self):
        with pytest.raises(NotRound):
            merger(paste(globe(2), arrow(), 0))


class TestPasteAt:
    def test_iso_inclusion_reduces_to_paste(self):
        m1, m2 = arrow(), arrow()
        b1 = m1.boundary_molecule(0, PLUS)
        b2 = m2.boundary_molecule(0, MINUS)
        iso = find_iso(b1.poset, b2.poset)
        # an iso onto the boundary, carried into m2 along its mask's bits
        b2_ids = bits(m2.poset.boundary_mask(m2.poset.full, 0, MINUS))
        iota = Inclusion(b1, m2, [b2_ids[j] for j in iso])
        glued = paste_at(m1, iota, m2, side="left", k=0)
        assert find_iso(glued.poset, path2().poset) is not None

    def test_whiskering(self):
        # glue the 2-globe's output edge onto the first edge of a 2-path
        g, p = globe(2), path2()
        gout = g.boundary_molecule(1, PLUS)
        # locate the edge whose input endpoint is the path's source
        q = p.poset
        src = next(iter(q.boundary_set(0, MINUS)))
        edge = next(e for e in q.decode(q.grade_masks()[1]) if q.faces(e, MINUS) == {src})
        hole = q.closure_mask(q.encode({edge}))
        iso = find_iso(gout.poset, q.restrict_mask(hole))
        hole_ids = bits(hole)
        iota = Inclusion(gout, p, [hole_ids[j] for j in iso])
        out = paste_at(g, iota, p, side="left", k=1)
        assert len(out) == 7
        assert out.dim == 2
        assert not is_round(out)

    def test_not_rewritable(self):
        g, p = globe(2), path2()
        gout = g.boundary_molecule(0, PLUS)  # a point: dimension drops
        tgt = p.boundary_molecule(1, MINUS)
        some = min(tgt.poset.decode(tgt.poset.grade_masks()[0]))
        iota = Inclusion(gout, p, [p.poset.id_of(some)])
        with pytest.raises(NotRewritable):
            paste_at(g, iota, p, side="left", k=1)


class TestGeneralisedPasting:
    def test_plain_pasting_recognised(self):
        p = path2()
        left, right = p.provenance["gencp"].left, p.provenance["gencp"].right
        g = recognise_generalised_pasting(p, left, right, 0)
        assert g is not None
        assert (g.left, g.right, g.level) == (left, right, 0)

    def test_bad_shared_rejected(self):
        p = path2()
        q = p.poset
        left = p.provenance["gencp"].left
        # not a decomposition: right misses the far endpoint
        right = q.full & ~q.boundary_mask(q.full, 0, PLUS)
        assert recognise_generalised_pasting(p, left, right, 0) is None

    def test_vertical_composite_recognised(self):
        v = paste(globe(2), globe(2), 1)
        g = recognise_generalised_pasting(
            v, v.provenance["gencp"].left, v.provenance["gencp"].right, 1
        )
        assert g is not None


class TestDual:
    def test_op_arrow(self):
        a = op(arrow())
        assert a.poset.faces("1", MINUS) == {"0+"}

    def test_op_involution_peephole(self):
        a = arrow()
        assert op(op(a)) is a

    def test_op_globe2_only_dim1_reversed(self):
        g = op(globe(2))
        assert g.poset.faces("1-", MINUS) == {"0+"}
        assert g.poset.faces("2", MINUS) == {"1-"}


class TestReconstruct:
    def test_point(self):
        m = reconstruct(point().poset)
        assert m is not None and m.certificate["kind"] == "point"

    def test_arrow(self):
        m = reconstruct(arrow().poset)
        assert m is not None and m.certificate["kind"] == "atom"

    def test_catalog_shapes(self):
        for mol in (globe(2), globe(3), path2(), paste(globe(2), globe(2), 1),
                    paste(globe(2), arrow(), 0), atom(arrow(), path2())):
            rebuilt = reconstruct(mol.poset)
            assert rebuilt is not None
            assert rebuilt.poset == mol.poset

    def test_non_molecule_rejected(self):
        # two disjoint points: not a molecule
        from ogpkit.poset import build

        p = build({"a": 0, "b": 0}, {})
        assert reconstruct(p) is None

    def test_boundaries_reconstructible(self):
        for mol in (globe(3), paste(globe(2), globe(2), 1), atom(arrow(), path2())):
            for s in (MINUS, PLUS):
                sub = mol.poset.restrict(mol.poset.boundary_set(mol.dim - 1, s))
                assert reconstruct(sub) is not None


def top_sides(p, carrier):
    """The sub-posets on the input and output top boundaries of a closed
    set of labels."""
    m = p.encode(carrier)
    n = p.dim_mask(m)
    return [p.restrict_mask(p.boundary_mask(m, n - 1, s)) for s in (MINUS, PLUS)]


def atom_by_construction(p, carrier):
    """Reference for glues_to_atom: build the atom of the carrier's two top
    boundaries with atom() and look for an isomorphism onto the carrier."""
    sides = top_sides(p, carrier)
    try:
        built = atom(Molecule(sides[0], {}), Molecule(sides[1], {}))
    except ShapeError:
        return False
    return find_iso(built.poset, p.restrict(carrier)) is not None


def with_new_top(m, split):
    """m with one new top element over elements of m's top dimension, in
    label order: an input face where split is True, an output face where it
    is False, and not a face where it is None."""
    n = m.dim
    cells = sorted(m.poset.decode(m.poset.grade_masks()[n]))
    elements = dict(m.poset.dim_of)
    faces = {x: (m.poset.faces_in[x], m.poset.faces_out[x])
             for x in elements if elements[x] > 0}
    elements["new"] = n + 1
    faces["new"] = ({x for x, b in zip(cells, split) if b is True},
                    {x for x, b in zip(cells, split) if b is False})
    p = build(elements, faces)
    return p, p.closure({"new"})


def certified_sides(p, carrier):
    return all(reconstruct(side) is not None for side in top_sides(p, carrier))


@pytest.fixture(scope="module")
def depth2_catalog():
    return enumerate_catalog(Bounds(depth=2, max_dim=4, max_elements=16))


@pytest.fixture(scope="module")
def top_bases(depth2_catalog):
    """Catalog shapes with at least two cells of top dimension to put a new
    top over, each catalog atom with its top taken away among them, so
    that its original split gives an atom again."""
    bases = []
    for e in depth2_catalog.entries:
        m = e.molecule
        if m.is_atom() and m.dim >= 1:
            m = Molecule(m.poset.restrict_mask(m.poset.full & ~(1 << m.top_id())), {})
        if m.poset.grade_masks()[m.dim].bit_count() >= 2:
            bases.append(m)
    return bases


class TestAtomOnSets:
    def test_agrees_with_construction_on_catalog_carriers(self, depth2_catalog, monkeypatch):
        # every single-maximum carrier that reconstruct tests on the catalog
        seen = []
        real = molecule_mod.glues_to_atom

        def recording(p, carrier):
            seen.append((p, carrier))
            return real(p, carrier)

        monkeypatch.setattr(molecule_mod, "glues_to_atom", recording)
        for e in depth2_catalog.entries:
            assert reconstruct(e.molecule.poset) is not None, e.expr
        assert len(seen) > 100
        for p, carrier in seen:
            assert real(p, carrier) == atom_by_construction(p, p.decode(carrier))

    @pytest.mark.parametrize("elements, faces", [
        # parallel paths x -> y -> z through one shared middle point: the
        # sides meet in more than their boundaries
        ({"x": 0, "y": 0, "z": 0, "a": 1, "b": 1, "c": 1, "d": 1, "t": 2},
         {"a": ({"x"}, {"y"}), "b": ({"y"}, {"z"}), "c": ({"x"}, {"y"}),
          "d": ({"y"}, {"z"}), "t": ({"a", "b"}, {"c", "d"})}),
        # an edge and its reverse: the sides meet in their boundaries, but
        # the boundaries are swapped
        ({"x": 0, "z": 0, "a": 1, "c": 1, "t": 2},
         {"a": ({"x"}, {"z"}), "c": ({"z"}, {"x"}), "t": ({"a"}, {"c"})}),
        # two side-by-side pairs of 2-globes with the same boundaries: the
        # sides are not round
        ({"x": 0, "y": 0, "z": 0, "f1": 1, "g1": 1, "f2": 1, "g2": 1,
          "al": 2, "be": 2, "de": 2, "ep": 2, "t": 3},
         {"f1": ({"x"}, {"y"}), "g1": ({"x"}, {"y"}), "f2": ({"y"}, {"z"}),
          "g2": ({"y"}, {"z"}), "al": ({"f1"}, {"g1"}), "be": ({"f2"}, {"g2"}),
          "de": ({"f1"}, {"g1"}), "ep": ({"f2"}, {"g2"}),
          "t": ({"al", "be"}, {"de", "ep"})}),
    ])
    def test_negative_cases_one_condition_each(self, elements, faces):
        p = build(elements, faces)
        carrier = p.closure({"t"})
        assert certified_sides(p, carrier)
        assert not glues_to_atom(p, p.encode(carrier))
        assert not atom_by_construction(p, carrier)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_construction_on_random_tops(self, top_bases, data):
        # a new top over some of the top cells, each drawn as an input
        # face, an output face or not a face, with at least one of each
        # of the first two: two distinct cells are made one input and one
        # output face, rather than filtering the draws
        m = data.draw(st.sampled_from(top_bases))
        k = m.poset.grade_masks()[m.dim].bit_count()
        split = data.draw(st.lists(st.sampled_from((True, False, None)),
                                   min_size=k, max_size=k))
        first, second = data.draw(st.permutations(range(k)))[:2]
        split[first], split[second] = True, False
        p, carrier = with_new_top(m, split)
        assume(certified_sides(p, carrier))
        assert glues_to_atom(p, p.encode(carrier)) == atom_by_construction(p, carrier)

    def test_every_split_agrees(self, top_bases):
        # a new top over all top cells of each base, in every split
        verdicts = []
        for m in top_bases:
            k = m.poset.grade_masks()[m.dim].bit_count()
            for bits in range(1, 2 ** k - 1):
                split = [(bits >> i) & 1 == 1 for i in range(k)]
                p, carrier = with_new_top(m, split)
                if not certified_sides(p, carrier):
                    continue
                got = glues_to_atom(p, p.encode(carrier))
                assert got == atom_by_construction(p, carrier), (m.certificate, split)
                verdicts.append(got)
        assert True in verdicts and False in verdicts


class TestDerivationSearch:
    def test_peel_to_hole(self):
        p = paste(globe(2), arrow(), 0)
        q = p.poset
        hole = p.provenance["gencp"].left  # the 2-globe copy
        steps = find_derivation(q, q.full, hole)
        assert steps is not None and len(steps) == 1
        assert replay_derivation(q, hole, steps, q.full)
        # a step with bits outside the poset does not replay
        foreign = [{**steps[0], "piece": steps[0]["piece"] | 1 << len(q)}]
        assert not replay_derivation(q, hole, foreign, q.full)

    def test_restriction_blocks(self):
        p = paste(globe(2), arrow(), 0)
        q = p.poset
        hole = p.provenance["gencp"].left
        steps = find_derivation(q, q.full, hole, allowed=0)
        assert steps is None


class TestPasteLaws:
    def test_associative_up_to_unique_iso(self):
        a, b, c = arrow(), arrow(), arrow()
        left = paste(paste(a, b, 0), c, 0)
        right = paste(a, paste(b, c, 0), 0)
        from ogpkit.poset import all_isos

        isos = all_isos(left.poset, right.poset)
        assert len(isos) == 1

    def test_associative_2d(self):
        g = globe(2)
        left = paste(paste(g, g, 1), g, 1)
        right = paste(g, paste(g, g, 1), 1)
        assert find_iso(left.poset, right.poset) is not None

    def test_unital_up_to_iso(self):
        # pasting the output boundary back on is a no-op up to iso
        for m in (arrow(), globe(2), paste(globe(2), globe(2), 1)):
            bd = m.boundary_molecule(m.dim - 1, PLUS)
            assert find_iso(paste(m, bd, m.dim - 1).poset, m.poset) is not None
            bd = m.boundary_molecule(m.dim - 1, MINUS)
            assert find_iso(paste(bd, m, m.dim - 1).poset, m.poset) is not None


BAD_EMBEDDINGS = """
import sys
from ogpkit.errors import BadEmbedding
from ogpkit.marked import MarkedMap, MarkedShape
from ogpkit.molecule import Inclusion, arrow, globe
raised = 0
try:  # dimension not preserved: the edge onto the 2-cell
    Inclusion(arrow(), globe(2), [1, 2, 0])
except BadEmbedding:
    raised += 1
a = arrow()
try:  # marking not preserved
    MarkedMap(MarkedShape(a, 0), a.poset.full, a.poset.encode({"1"}))
except BadEmbedding:
    raised += 1
try:  # image not closed
    MarkedMap(MarkedShape(a, 0), a.poset.encode({"1"}), 0)
except BadEmbedding:
    raised += 1
g = globe(2)
try:  # source marking outside the image
    MarkedMap(MarkedShape(g, g.poset.encode({"2"})), g.poset.full_boundary_mask(),
              g.poset.encode({"2"}))
except BadEmbedding:
    raised += 1
print(sys.flags.optimize, raised)
"""


class TestEmbeddingValidation:
    """Id images: arrow has ids 0-, 0+, 1 = 0, 1, 2 and globe(2) has
    2, 0-, 0+, 1-, 1+ = 0 .. 4."""

    def test_dimension_breaking_inclusion(self):
        with pytest.raises(BadEmbedding, match="dimension at 1"):
            Inclusion(arrow(), globe(2), [1, 2, 0])

    def test_partial_and_non_injective_inclusions(self):
        with pytest.raises(BadEmbedding, match="total"):
            Inclusion(arrow(), globe(2), [1, 2])
        two_points = Molecule(build({"a": 0, "b": 0}, {}), {"kind": "test"})
        with pytest.raises(BadEmbedding, match="injective"):
            Inclusion(two_points, arrow(), [0, 0])

    def test_face_breaking_inclusion(self):
        with pytest.raises(BadEmbedding, match="faces at 1"):
            Inclusion(arrow(), arrow(), [1, 0, 2])

    def test_raises_under_optimize(self, src_env):
        # assert statements vanish under -O; the validation must not
        out = subprocess.run([sys.executable, "-O", "-c", BAD_EMBEDDINGS],
                             env=src_env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["1", "4"]


BAD_GLUES = """
import sys
from ogpkit.errors import BadEmbedding
from ogpkit.molecule import arrow, globe, paste_along
raised = 0
# arrow ids 0-, 0+, 1 = 0, 1, 2; globe(2) ids 2, 0-, 0+, 1-, 1+ = 0 .. 4
for glue in ([1, -1, 3], [2, 1, 5]):
    try:
        paste_along(arrow().poset, globe(2).poset, glue)
    except BadEmbedding:
        raised += 1
print(sys.flags.optimize, raised)
"""


class TestGlueValidation:
    # glues are id images on arrow (0-, 0+, 1 = 0, 1, 2), -1 where unglued;
    # globe(2) has ids 2, 0-, 0+, 1-, 1+ = 0 .. 4
    def test_glue_must_preserve_dimension(self):
        with pytest.raises(BadEmbedding, match="dimension"):
            paste_along(arrow().poset, globe(2).poset, [1, -1, 0])

    def test_glue_must_preserve_faces(self):
        with pytest.raises(BadEmbedding, match="faces"):
            paste_along(arrow().poset, arrow().poset, [1, 0, 2])

    def test_valid_glue_pastes(self):
        poset, inj_a, inj_b = paste_along(arrow().poset, arrow().poset, [-1, 0, -1])
        assert len(poset) == 5 and inj_a[1] == inj_b[0]

    def test_raises_under_optimize(self, src_env):
        out = subprocess.run([sys.executable, "-O", "-c", BAD_GLUES],
                             env=src_env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["1", "2"]


class TestMoleculeVerdicts:
    def test_shared_verdicts_give_the_same_recognitions(self):
        shapes = [paste(globe(2), globe(2), 1), paste(globe(2), arrow(), 0),
                  paste(arrow(), arrow(), 0), paste(globe(3), globe(3), 2)]
        verdicts = {}
        for m in shapes + shapes:
            g = m.provenance["gencp"]
            alone = recognise_generalised_pasting(m, g.left, g.right, g.level)
            shared = recognise_generalised_pasting(m, g.left, g.right, g.level,
                                                   verdicts=verdicts)
            assert (alone is None) == (shared is None) and shared is not None
        # both k-boundaries of each pasting are certified once per class
        assert verdicts and all(verdicts.values())
        assert all(key is not None for key in verdicts)

    def test_verdict_is_read_by_key(self):
        m = paste(globe(2), globe(2), 1)
        g = m.provenance["gencp"]
        bd = m.poset.restrict(m.poset.boundary_set(g.level, MINUS))
        # a planted false verdict for the input boundary's class is obeyed:
        # the dict is the only source of the answer once it has the key
        verdicts = {canonical_key(bd): False}
        assert recognise_generalised_pasting(m, g.left, g.right, g.level,
                                             verdicts=verdicts) is None
