"""Marked shapes, Gray markings, pushout-products, residuals, generators."""

import itertools

import pytest

from ogpkit.contexts import atomic_horn, pp_horn, pp_marked_horn
from ogpkit.errors import BadEmbedding, NotEntire, ShapeError
from ogpkit.gray import gray
from ogpkit.harness import Bounds, enumerate_catalog, enumerate_marked_horns
from ogpkit.marked import (
    MarkedMap,
    MarkedShape,
    boundary_inclusion_marked,
    boundary_inclusion_min,
    generators,
    gray_marked,
    markmol,
    marking_inclusion,
    pushout_product,
    residual,
    residual_formula,
    residual_formula_swapped,
    residual_upper_bound,
)
from ogpkit.molecule import arrow, atom, globe, paste, point
from ogpkit.poset import bits


def marked(shape, labels) -> MarkedShape:
    return MarkedShape(shape, shape.poset.encode(labels))


def labels(shape, mask) -> frozenset:
    return shape.poset.decode(mask)


class TestMarkedShape:
    def test_marking_must_be_positive_dimensional(self):
        with pytest.raises(ShapeError):
            marked(arrow(), {"0-"})

    def test_marking_must_lie_in_the_poset(self):
        with pytest.raises(ShapeError):
            MarkedShape(arrow(), 1 << 3)

    def test_valid(self):
        m = marked(arrow(), {"1"})
        assert labels(m, m.marking) == {"1"}


class TestMarkedMap:
    def test_image_must_be_closed(self):
        a = arrow()
        with pytest.raises(BadEmbedding, match="closed"):
            MarkedMap(MarkedShape(a, 0), a.poset.encode({"1"}), 0)
        with pytest.raises(BadEmbedding, match="closed"):
            MarkedMap(MarkedShape(a, 0), 1 << 3, 0)

    def test_source_marking_must_lie_in_the_image(self):
        g = globe(2)
        with pytest.raises(BadEmbedding, match="image"):
            MarkedMap(marked(g, {"2"}), g.poset.full_boundary_mask(), g.poset.encode({"2"}))

    def test_marking_must_be_preserved(self):
        a = arrow()
        with pytest.raises(BadEmbedding, match="preserved"):
            MarkedMap(MarkedShape(a, 0), a.poset.full, a.poset.encode({"1"}))


class TestGrayMarked:
    def test_marked_arrow_times_plain_arrow(self):
        a = marked(arrow(), {"1"})
        b = MarkedShape(arrow(), 0)
        prod = gray_marked(a, b)
        assert labels(prod, prod.marking) == {("1", "0-"), ("1", "0+"), ("1", "1")}

    def test_two_plain(self):
        a = MarkedShape(arrow(), 0)
        assert gray_marked(a, a).marking == 0

    def test_fully_marked_left(self):
        a = marked(arrow(), {"1"})  # every positive-dim element
        b = marked(arrow(), {"1"})
        prod = gray_marked(a, b)
        for x in ("0-", "0+", "1"):
            assert ("1", x) in labels(prod, prod.marking)
            assert (x, "1") in labels(prod, prod.marking)


class TestResidual:
    def test_basic(self):
        i = marking_inclusion(arrow())
        assert labels(i.target, residual(i)) == {"1"}

    def test_identity_empty(self):
        a = marked(arrow(), {"1"})
        ident = MarkedMap(a, a.poset.full, a.marking)
        assert residual(ident) == 0

    def test_point_times_arrow(self):
        prod = gray(point(), arrow())
        i = MarkedMap(marked(prod, {("*", "1")}), prod.poset.full, 0)
        assert labels(prod, residual(i)) == {("*", "1")}

    def test_not_entire(self):
        with pytest.raises(NotEntire):
            residual(boundary_inclusion_min(arrow()))


class TestPushoutProduct:
    def test_boundary_pp_boundary_is_product_boundary(self):
        a = arrow()
        i = boundary_inclusion_min(a)
        pp = pushout_product(i, i)
        prod = gray(a, a)
        assert pp.image.bit_count() == 8
        assert len(pp.target.poset) == 9
        assert (labels(prod, pp.image)
                == prod.poset.boundary_set(1, "-") | prod.poset.boundary_set(1, "+"))

    def test_entire_pp_entire_is_iso(self):
        t = marking_inclusion(arrow())
        pp = pushout_product(t, t)
        assert pp.entire
        assert residual(pp) == 0

    def test_entire_pp_minbd_residual(self):
        # residual of t_U pp (bd V -> V) is {top} x {top}
        t = marking_inclusion(arrow())
        j = boundary_inclusion_min(globe(2))
        pp = pushout_product(t, j)
        assert pp.entire
        assert labels(pp.target, residual(pp)) == {("1", "2")}
        assert residual(pp) == residual_formula(t, j)

    def test_entire_pp_markbd_residual_empty(self):
        # the marked-target boundary generator marks top in the target, so
        # the would-be residual pair is already marked in the domain
        t = marking_inclusion(arrow())
        j = boundary_inclusion_marked(globe(2))
        pp = pushout_product(t, j)
        assert pp.entire
        assert residual(pp) == 0
        assert residual(pp) == residual_formula(t, j)
        assert not residual(pp) & ~residual_upper_bound(t, j)


class TestGenerators:
    def test_t_generator(self):
        t = marking_inclusion(arrow())
        assert t.entire
        assert labels(t.target, t.target.marking) == {"1"}

    def test_markbd_generator(self):
        g = boundary_inclusion_marked(arrow())
        assert not g.entire
        assert labels(g.target, g.target.marking) == {"1"}
        assert g.source_marking == 0
        assert len(generators([point(), arrow(), globe(2)]).Mprime) == 6

    def test_point_generators(self):
        # markmol of the point has empty marking
        assert markmol(point()).marking == 0

    def test_markmol_of_molecule_marks_maxima(self):
        p = paste(arrow(), arrow(), 0)
        mm = markmol(p)
        assert mm.marking.bit_count() == 2


class TestLabelOracle:
    """The grid masks against the label-set formulas, written with plain
    (x, y) pairs, on every pair of depth-1 generators in both orders and on
    every horn of a depth-1 atom."""

    @pytest.fixture(scope="class")
    def atoms(self):
        return enumerate_catalog(Bounds(depth=1, max_dim=2, max_elements=9)).atoms()

    @staticmethod
    def pairs(xs, ys):
        return frozenset(itertools.product(xs, ys))

    def test_products_and_residuals(self, atoms):
        fams = generators(atoms)
        gens = fams.minbd + fams.t + fams.markbd
        for i, j in itertools.product(gens, gens):
            X, Y = i.target.poset, j.target.poset
            A, B = X.decode(i.target.marking), Y.decode(j.target.marking)
            img_i, img_j = X.decode(i.image), Y.decode(j.image)
            src_i, src_j = X.decode(i.source_marking), Y.decode(j.source_marking)
            pp = pushout_product(i, j)
            P = pp.target.poset
            want_target = self.pairs(A, Y.element_set) | self.pairs(X.element_set, B)
            assert P.decode(gray_marked(i.target, j.target).marking) == want_target
            assert P.decode(pp.target.marking) == want_target
            assert P.decode(pp.image) == frozenset(
                (x, y) for x in X.element_set for y in Y.element_set
                if x in img_i or y in img_j)
            assert P.decode(pp.source_marking) == (
                self.pairs(A, img_j) | self.pairs(X.element_set, src_j)
                | self.pairs(src_i, Y.element_set) | self.pairs(img_i, B))
            if i.entire:
                new = A - src_i
                outside = Y.element_set - img_j - B
                assert P.decode(residual_formula(i, j)) == self.pairs(new, outside)
                assert (P.decode(residual_upper_bound(i, j))
                        == self.pairs(new, Y.element_set - img_j))
                swapped = pushout_product(j, i).target.poset
                assert (swapped.decode(residual_formula_swapped(j, i))
                        == self.pairs(outside, new))

    def test_pp_horn_domains(self, atoms):
        for u, v in itertools.product(atoms, atoms):
            if u.dim < 1:
                continue
            U, V = u.poset, v.poset
            bd_v = V.full_boundary_set()
            for x in bits(U.fin[u.top_id()] | U.fout[u.top_id()]):
                h = atomic_horn(u, x)
                horn = U.decode(h.horn)
                domain = frozenset(
                    (a, b) for a in U.element_set for b in V.element_set
                    if a in horn or b in bd_v)
                out = pp_horn(h, v, "uv")
                assert out.shape.poset.decode(out.horn) == domain
                out = pp_horn(h, v, "vu")
                assert out.shape.poset.decode(out.horn) == frozenset((b, a) for a, b in domain)

    def test_pp_marked_horn_closed_form(self, atoms):
        gens = generators(atoms).Mprime
        for u in atoms:
            if u.dim < 1:
                continue
            U = u.poset
            horns, exhausted = enumerate_marked_horns(u)
            assert horns and not exhausted
            for mh, gen in itertools.product(horns, gens):
                V = gen.target.poset
                A, Ap = U.decode(mh.marking), U.decode(mh.enlarged)
                horn, B = U.decode(mh.horn.horn), V.decode(gen.target.marking)
                domain = (self.pairs(Ap, V.full_boundary_set()) | self.pairs(A, V.element_set)
                          | self.pairs(horn, B))
                out = pp_marked_horn(mh, gen, "uv")
                assert out.horn.shape.poset.decode(out.marking) == domain
                out = pp_marked_horn(mh, gen, "vu")
                assert (out.horn.shape.poset.decode(out.marking)
                        == frozenset((b, a) for a, b in domain))
