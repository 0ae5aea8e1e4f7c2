"""Horns, context shapes, restricted recognition, marked horns, and the
horn pushout-product identities."""

import subprocess
import sys

import pytest

from ogpkit.contexts import (
    AtomicHorn,
    ContextShape,
    atomic_horn,
    classified_context,
    is_a_context,
    marked_horn,
    pp_horn,
    pp_marked_horn,
)
from ogpkit.errors import BadHole, BadMarking, NotAContext, NotAFacet
from ogpkit.gray import gray
from ogpkit.harness import HORN_U_CAP, Bounds, enumerate_catalog
from ogpkit.ids import pair
from ogpkit.marked import boundary_inclusion_marked, boundary_inclusion_min
from ogpkit.molecule import arrow, globe, paste, point
from ogpkit.poset import MINUS, PLUS, bits, find_iso, map_mask

from derivation_oracle import replay_derivation


def square():
    return gray(arrow(), arrow())


def horn(u, x):
    """The horn of u at the facet labelled x."""
    return atomic_horn(u, u.poset.id_of(x))


def labelled_marked_horn(u, x, marking):
    """The marked horn of u at the facet labelled x, with the marking
    given by labels."""
    return marked_horn(horn(u, x), u.poset.encode(marking))


def labels(shape, mask):
    return shape.poset.decode(mask)


def marked(ctx, marking):
    """A marking given by labels, as a mask of the context's ambient."""
    return ctx.ambient.poset.encode(marking)


def tops(ctx):
    """The mask of the ambient's maximal elements outside the hole: the
    tops of the atoms pasted around it."""
    p = ctx.ambient.poset
    return p.maximal_mask(p.full) & ~ctx.hole


def recognised(ctx, marking):
    """is_a_context's derivation, or None.  A derivation found must replay
    from the hole onto the whole ambient, pasting only marked tops."""
    deriv = is_a_context(ctx, marking)
    if deriv is not None:
        p = ctx.ambient.poset
        assert replay_derivation(p, ctx.hole, deriv, p.full)
        assert all(marking >> step["top"] & 1 for step in deriv)
    return deriv


def pasted(left, right, k, hole_side):
    """The context on paste(left, right, k) whose hole is the image of
    the factor on hole_side, "left" or "right"."""
    m = paste(left, right, k)
    g = m.provenance["gencp"]
    return ContextShape(m, g.left if hole_side == "left" else g.right)


class TestAtomicHorn:
    def test_arrow_horn(self):
        a = arrow()
        h = horn(a, "0+")
        assert labels(a, h.horn) == {"0-"}
        assert h.sign == PLUS

    def test_globe_horn(self):
        g = globe(2)
        h = horn(g, "1-")
        assert labels(g, h.horn) == {"1+", "0-", "0+"}
        assert h.sign == MINUS

    def test_square_horn(self):
        sq = square()
        h = horn(sq, "(0-,1)")
        assert h.horn.bit_count() == 7
        assert h.sign == MINUS

    def test_horn_is_closed(self):
        sq = square()
        for s in (MINUS, PLUS):
            for x in sq.poset.faces(sq.top(), s):
                h = horn(sq, x)
                assert sq.poset.is_closed_mask(h.horn)
                assert sq.poset.closure(labels(sq, h.horn)) == labels(sq, h.horn)

    def test_not_a_facet(self):
        with pytest.raises(NotAFacet):
            horn(globe(2), "0-")
        with pytest.raises(NotAFacet):
            horn(paste(arrow(), arrow(), 0), "in0:1")
        with pytest.raises(NotAFacet):
            atomic_horn(globe(2), len(globe(2)))


class TestClassifiedContext:
    def test_arrow_horn_is_identity_context(self):
        ctx = classified_context(horn(arrow(), "0+"))
        assert ctx.hole == ctx.ambient.poset.full

    def test_globe_horn_is_identity_context(self):
        ctx = classified_context(horn(globe(2), "1-"))
        assert ctx.hole == ctx.ambient.poset.full

    def test_square_horn_context(self):
        sq = square()
        ctx = classified_context(horn(sq, "(0-,1)"))
        assert ctx.ambient.poset.dim_of == {
            e: sq.poset.dim_of[e] for e in sq.poset.boundary_set(1, MINUS)
        }
        assert labels(ctx.ambient, ctx.hole) == sq.poset.closure({"(0-,1)"})
        assert ctx.hole != ctx.ambient.poset.full


class TestIsAContext:
    def test_identity_for_empty_marking(self):
        ctx = classified_context(horn(globe(2), "1-"))
        assert recognised(ctx, 0) == []

    def test_square_horn_needs_the_other_edge(self):
        sq = square()
        ctx = classified_context(horn(sq, "(0-,1)"))
        deriv = recognised(ctx, marked(ctx, {"(1,0+)"}))
        assert deriv is not None and len(deriv) == 1
        assert ctx.ambient.poset.labels[deriv[0]["top"]] == "(1,0+)"
        assert recognised(ctx, 0) is None

    def test_monotone_in_marking(self):
        sq = square()
        ctx = classified_context(horn(sq, "(0-,1)"))
        small = marked(ctx, {"(1,0+)"})
        big = small | marked(ctx, {"(0-,1)"})
        assert recognised(ctx, small) is not None
        assert recognised(ctx, big) is not None


def contexts_equal(c1, c2) -> bool:
    """Equality of contexts: an ambient iso carrying one hole to the other."""
    if c1.ambient.poset == c2.ambient.poset and c1.hole == c2.hole:
        return True
    iso = find_iso(c1.ambient.poset, c2.ambient.poset)
    if iso is None:
        return False
    return map_mask(c1.hole, iso) == c2.hole


class TestContextOps:
    """Contexts built by paste: an atom pasted on the left or the right of
    a hole, at the hole's dimension or below."""

    def test_identity_context(self):
        ctx = ContextShape(arrow(), arrow().poset.full)
        assert ctx.hole == ctx.ambient.poset.full
        assert ctx.ambient.dim == 1

    def test_right_paste_builds_square_horn_context(self):
        # pasting an edge on the right of an edge hole gives the same
        # context as the square horn classifies
        sq_ctx = classified_context(horn(square(), "(0-,1)"))
        assert contexts_equal(pasted(arrow(), arrow(), 0, "left"), sq_ctx)

    def test_left_paste(self):
        # a 2-globe pasted on the input side of a 2-globe hole
        ctx = pasted(globe(2), globe(2), 1, "right")
        assert ctx.ambient.dim == 2
        assert len(ctx.ambient.poset) == len(globe(2)) + 2

    def test_promote_whisker_context(self):
        # the whisker context one dimension up: a 2-globe hole with a
        # trailing whisker edge
        ctx = pasted(globe(2), arrow(), 0, "left")
        assert ctx.ambient.dim == 2
        assert len(ctx.ambient.poset) == 7


class TestMarkedHorn:
    def test_globe_case_otherwise(self):
        g = globe(2)
        mh = labelled_marked_horn(g, "1-", frozenset())
        assert labels(g, mh.enlarged) == {"2"}

    def test_globe_case_marked(self):
        g = globe(2)
        mh = labelled_marked_horn(g, "1-", {"1+"})
        assert labels(g, mh.enlarged) == {"1+", "1-", "2"}

    def test_arrow_horn(self):
        a = arrow()
        mh = labelled_marked_horn(a, "0+", frozenset())
        assert labels(a, mh.enlarged) == {"1"}
        assert labels(a, mh.horn.horn) == {"0-"}

    def test_square_horn_requires_marking(self):
        sq = square()
        with pytest.raises(NotAContext):
            labelled_marked_horn(sq, "(0-,1)", frozenset())
        mh = labelled_marked_horn(sq, "(0-,1)", {"(1,0+)"})
        assert labels(sq, mh.enlarged) == {"(1,0+)", "(1,1)"}

    def test_marking_must_lie_on_the_horn(self):
        g = globe(2)
        for marking in ({"1-"}, {"2"}, {"0-"}):
            with pytest.raises(NotAContext, match="not on the horn"):
                labelled_marked_horn(g, "1-", marking)
        with pytest.raises(NotAContext, match="not on the horn"):
            marked_horn(horn(g, "1-"), 1 << len(g))

    def test_fully_marked_always_recognised(self):
        sq = square()
        marking = frozenset(
            x for x in labels(sq, sq.poset.full_boundary_mask())
            if sq.poset.dim_of[x] > 0 and x != "(0-,1)"
        )
        mh = labelled_marked_horn(sq, "(0-,1)", marking)
        assert sq.top() in labels(sq, mh.enlarged)


class TestPPHorn:
    def test_arrow_arrow_uv(self):
        h = horn(arrow(), "0-")
        out = pp_horn(h, arrow(), "uv")
        assert out.shape.poset.labels[out.facet] == "(0-,1)"
        assert out.shape.poset == square().poset

    def test_arrow_arrow_vu(self):
        h = horn(arrow(), "0-")
        out = pp_horn(h, arrow(), "vu")
        assert out.shape.poset.labels[out.facet] == "(1,0-)"

    def test_point_factor_reduces_to_horn(self):
        a = arrow()
        h = horn(a, "0+")
        out = pp_horn(h, point(), "uv")
        assert out.shape.poset.labels[out.facet] == "(0+,*)"
        assert labels(out.shape, out.horn) == {pair(x, "*") for x in labels(a, h.horn)}

    def test_globe_horns_all_facets(self):
        g = globe(2)
        for facet in ("1-", "1+"):
            h = horn(g, facet)
            for order in ("uv", "vu"):
                out = pp_horn(h, arrow(), order)
                assert out.shape.dim == 3


class TestPPMarkedHornProducts:
    def test_one_product_per_factor_pair(self):
        g, a = globe(2), arrow()
        products = {}
        outs = []
        for marking in (frozenset(), {"1+"}):
            mh = labelled_marked_horn(g, "1-", marking)
            for gen in (boundary_inclusion_min(a), boundary_inclusion_marked(a)):
                for order in ("uv", "vu"):
                    outs.append((order, pp_marked_horn(mh, gen, order, products)))
        assert set(products) == {(g, a), (a, g)}
        for order, out in outs:
            assert out.horn.shape is products[(g, a) if order == "uv" else (a, g)]
        # a shared product gives the same marked horns as fresh ones
        mh = labelled_marked_horn(g, "1-", {"1+"})
        gen = boundary_inclusion_marked(a)
        for order in ("uv", "vu"):
            shared = pp_marked_horn(mh, gen, order, products)
            fresh = pp_marked_horn(mh, gen, order)
            assert shared.enlarged == fresh.enlarged
            assert shared.marking == fresh.marking
            assert shared.horn.horn == fresh.horn.horn


class TestPPMarkedHorn:
    def test_arrow_horn_with_minbd(self):
        mh = labelled_marked_horn(arrow(), "0+", frozenset())
        gen = boundary_inclusion_min(arrow())
        out = pp_marked_horn(mh, gen, "uv")
        assert out.horn.shape.poset.labels[out.horn.facet] == "(0+,1)"
        # case "otherwise": only the product top is newly marked beyond B
        assert labels(out.horn.shape, out.enlarged & ~out.marking) == {"(1,1)"}

    def test_globe_horn_with_markbd(self):
        mh = labelled_marked_horn(globe(2), "1-", {"1+"})
        gen = boundary_inclusion_marked(arrow())
        out = pp_marked_horn(mh, gen, "uv")
        assert labels(out.horn.shape, out.enlarged & ~out.marking) == {"(1-,1)", "(2,1)"}

    def test_both_orders(self):
        mh = labelled_marked_horn(globe(2), "1-", frozenset())
        for gen in (boundary_inclusion_min(arrow()), boundary_inclusion_marked(arrow())):
            for order in ("uv", "vu"):
                out = pp_marked_horn(mh, gen, order)
                assert out.horn.shape.dim == 3


class TestPeelSearchCompleteness:
    """Contexts built by paste, which shares no code with the peel search,
    are recognised with exactly the tops pasted around the hole as the
    marking."""

    def test_single_step(self):
        ctx = pasted(arrow(), arrow(), 0, "left")
        assert tops(ctx).bit_count() == 1
        assert recognised(ctx, tops(ctx)) is not None
        assert recognised(ctx, 0) is None

    def test_two_steps(self):
        inner = paste(arrow(), arrow(), 0)
        outer = paste(arrow(), inner, 0)
        # the middle arrow: inner's left arrow, carried into outer
        p = outer.poset
        hole = p.closure_mask(p.encode({"in1:in0:1"}))
        assert labels(outer, hole) == {"in0:0+", "in1:in0:0+", "in1:in0:1"}
        ctx = ContextShape(outer, hole)
        assert not hole & (p.boundary_mask(p.full, 0, MINUS) | p.boundary_mask(p.full, 0, PLUS))
        around = tops(ctx)
        assert around.bit_count() == 2
        assert recognised(ctx, around) is not None
        # dropping either pasted atom from the marking blocks recognition
        for t in bits(around):
            assert recognised(ctx, around & ~(1 << t)) is None

    def test_hole_at_one_end(self):
        # the far arrow meets only the near one, so a derivation that
        # pastes them in the wrong order does not replay
        outer = paste(arrow(), paste(arrow(), arrow(), 0), 0)
        ctx = ContextShape(outer, outer.provenance["gencp"].left)
        around = tops(ctx)
        assert around.bit_count() == 2
        assert len(recognised(ctx, around)) == 2
        for t in bits(around):
            assert recognised(ctx, around & ~(1 << t)) is None

    def test_promoted_context_rerecognised(self):
        # the whisker context one dimension up
        ctx = pasted(globe(2), arrow(), 0, "left")
        assert len(ctx.ambient.poset) == 7
        assert recognised(ctx, tops(ctx)) is not None

    def test_globe_on_a_globe(self):
        ctx = pasted(globe(2), globe(2), 1, "right")
        assert tops(ctx).bit_count() == 1
        assert recognised(ctx, tops(ctx)) is not None
        assert recognised(ctx, 0) is None


class TestOnAtomSearch:
    """marked_horn searches the classified context on the atom's own
    poset; is_a_context searches it on the boundary molecule.  Both must
    accept the same markings."""

    def test_agrees_with_the_classified_context(self):
        cat = enumerate_catalog(Bounds(depth=1))
        verdicts = []
        for u in cat.atoms(min_dim=1, max_elements=HORN_U_CAP):
            p = u.poset
            top = u.top_id()
            for x in bits(p.fin[top] | p.fout[top]):
                h = atomic_horn(u, x)
                ctx = classified_context(h)
                carrier = p.boundary_mask(p.full, u.dim - 1, h.sign)
                positives = bits(h.horn & ~p.grade_masks()[0])
                for choice in range(1 << len(positives)):
                    marking = 0
                    for k, a in enumerate(positives):
                        if choice >> k & 1:
                            marking |= 1 << a
                    # the marking on the facet's side, in the ambient's ids
                    in_ambient = 0
                    for a in bits(marking & carrier):
                        in_ambient |= 1 << (carrier & ((1 << a) - 1)).bit_count()
                    expected = recognised(ctx, in_ambient) is not None
                    try:
                        marked_horn(h, marking)
                        got = True
                    except NotAContext:
                        got = False
                    assert got == expected, (cat.expr_of(u), x, marking)
                    verdicts.append(got)
        # five atoms, 62 markings: 38 marked horns and 24 rejections
        assert (verdicts.count(True), verdicts.count(False)) == (38, 24)


BAD_CONTEXTS = """
import sys
from ogpkit.contexts import AtomicHorn, ContextShape, is_a_context
from ogpkit.errors import BadHole, BadMarking
from ogpkit.molecule import arrow, globe, paste
from ogpkit.poset import MINUS
g = globe(2)
p = g.poset
whiskered = paste(g, arrow(), 0)
cases = [
    (BadHole, lambda: ContextShape(g, p.encode({"2"}))),
    (BadHole, lambda: ContextShape(g, p.encode({"0-", "0+", "1-"}))),
    (BadHole, lambda: ContextShape(whiskered, whiskered.poset.full)),
    (BadHole, lambda: AtomicHorn(g, p.id_of("1-"), MINUS, p.encode({"1+"}))),
    (BadMarking, lambda: is_a_context(ContextShape(g, p.full), p.encode({"0-"}))),
    (BadHole, lambda: ContextShape(g, p.full | 1 << len(p))),
    (BadMarking, lambda: is_a_context(ContextShape(g, p.full), 1 << len(p))),
]
raised = 0
for error, make in cases:
    try:
        make()
    except error:
        raised += 1
print(sys.flags.optimize, raised)
"""


class TestValidation:
    def test_hole_must_be_closed_full_and_round(self):
        g = globe(2)
        p = g.poset
        with pytest.raises(BadHole, match="closed"):
            ContextShape(g, p.encode({"2"}))
        with pytest.raises(BadHole, match="full dimension"):
            ContextShape(g, p.encode({"0-", "0+", "1-"}))
        whiskered = paste(g, arrow(), 0)
        with pytest.raises(BadHole, match="round"):
            ContextShape(whiskered, whiskered.poset.full)
        with pytest.raises(BadHole, match="outside"):
            ContextShape(g, p.full | 1 << len(p))
        composite = paste(globe(2), globe(2), 1)
        hole = composite.provenance["gencp"].left
        assert ContextShape(composite, hole).hole == hole

    def test_horn_must_be_closed(self):
        g = globe(2)
        with pytest.raises(BadHole):
            AtomicHorn(g, g.poset.id_of("1-"), MINUS, g.poset.encode({"1+"}))
        with pytest.raises(BadHole):
            AtomicHorn(g, g.poset.id_of("1-"), MINUS, 1 << len(g))

    def test_marking_must_be_positive(self):
        g = globe(2)
        ctx = ContextShape(g, g.poset.full)
        with pytest.raises(BadMarking):
            is_a_context(ctx, g.poset.encode({"0-"}))
        with pytest.raises(BadMarking):
            is_a_context(ctx, 1 << len(g))

    def test_raises_under_optimize(self, src_env):
        # assert statements vanish under -O; the validation must not
        out = subprocess.run([sys.executable, "-O", "-c", BAD_CONTEXTS],
                             env=src_env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["1", "7"]
