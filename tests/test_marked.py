"""Marked shapes, Gray markings, pushout-products, residuals, generators."""

import pytest

from ogpkit.errors import NotEntire, ShapeError
from ogpkit.gray import gray
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
    residual_upper_bound,
)
from ogpkit.molecule import arrow, atom, globe, paste, point


class TestMarkedShape:
    def test_marking_must_be_positive_dimensional(self):
        with pytest.raises(ShapeError):
            MarkedShape(arrow(), {"0-"})

    def test_valid(self):
        m = MarkedShape(arrow(), {"1"})
        assert m.marking == {"1"}


class TestGrayMarked:
    def test_marked_arrow_times_plain_arrow(self):
        a = MarkedShape(arrow(), {"1"})
        b = MarkedShape(arrow(), frozenset())
        prod = gray_marked(a, b)
        assert prod.marking == {("1", "0-"), ("1", "0+"), ("1", "1")}

    def test_two_plain(self):
        a = MarkedShape(arrow(), frozenset())
        assert gray_marked(a, a).marking == frozenset()

    def test_fully_marked_left(self):
        a = MarkedShape(arrow(), {"1"})  # every positive-dim element
        b = MarkedShape(arrow(), {"1"})
        prod = gray_marked(a, b)
        for x in ("0-", "0+", "1"):
            assert ("1", x) in prod.marking
            assert (x, "1") in prod.marking


class TestResidual:
    def test_basic(self):
        i = marking_inclusion(arrow())
        assert residual(i) == {"1"}

    def test_identity_empty(self):
        a = MarkedShape(arrow(), {"1"})
        ident = MarkedMap(a, a, {x: x for x in a.poset.dim_of})
        assert residual(ident) == frozenset()

    def test_point_times_arrow(self):
        prod = gray(point(), arrow())
        plain = MarkedShape(prod, frozenset())
        marked = MarkedShape(prod, {("*", "1")})
        i = MarkedMap(plain, marked, {x: x for x in prod.poset.dim_of})
        assert residual(i) == {("*", "1")}

    def test_not_entire(self):
        with pytest.raises(NotEntire):
            residual(boundary_inclusion_min(arrow()))


class TestPushoutProduct:
    def test_boundary_pp_boundary_is_product_boundary(self):
        a = arrow()
        i = boundary_inclusion_min(a)
        pp = pushout_product(i, i)
        prod = gray(a, a)
        assert len(pp.source.poset) == 8
        assert len(pp.target.poset) == 9
        assert pp.image == prod.poset.boundary_set(1, "-") | prod.poset.boundary_set(1, "+")

    def test_entire_pp_entire_is_iso(self):
        t = marking_inclusion(arrow())
        pp = pushout_product(t, t)
        assert pp.entire
        assert residual(pp) == frozenset()

    def test_entire_pp_minbd_residual(self):
        # residual of t_U pp (bd V -> V) is {top} x {top}
        t = marking_inclusion(arrow())
        j = boundary_inclusion_min(globe(2))
        pp = pushout_product(t, j)
        assert pp.entire
        assert residual(pp) == {("1", "2")}
        assert residual(pp) == residual_formula(t, j)

    def test_entire_pp_markbd_residual_empty(self):
        # the marked-target boundary generator marks top in the target, so
        # the would-be residual pair is already marked in the domain
        t = marking_inclusion(arrow())
        j = boundary_inclusion_marked(globe(2))
        pp = pushout_product(t, j)
        assert pp.entire
        assert residual(pp) == frozenset()
        assert residual(pp) == residual_formula(t, j)
        assert residual(pp) <= residual_upper_bound(t, j)


class TestGenerators:
    def test_t_generator(self):
        t = marking_inclusion(arrow())
        assert t.entire
        assert t.target.marking == {"1"}

    def test_markbd_generator(self):
        g = boundary_inclusion_marked(arrow())
        assert not g.entire
        assert g.target.marking == {"1"}
        assert g.source.marking == frozenset()
        assert len(generators([point(), arrow(), globe(2)]).Mprime) == 6

    def test_point_generators(self):
        # markmol of the point has empty marking
        assert markmol(point()).marking == frozenset()

    def test_markmol_of_molecule_marks_maxima(self):
        p = paste(arrow(), arrow(), 0)
        mm = markmol(p)
        assert len(mm.marking) == 2
