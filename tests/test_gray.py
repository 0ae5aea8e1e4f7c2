"""Gray products: orientation formula, boundary identities, opposites."""

import importlib

import pytest

from ogpkit.errors import IdentityFailed
from ogpkit.gray import gray, gray_boundary_decomposition, gray_poset, op_swap_iso, twist
from ogpkit.harness import (PRODUCT_CAP, SPLIT_CAP, Bounds, check_gray_boundary_sides,
                            enumerate_catalog, gray_union_rows)
from ogpkit.ids import pair
from ogpkit.molecule import arrow, globe, is_round, op, point
from ogpkit.poset import MINUS, PLUS, find_iso, flip, map_mask

gray_mod = importlib.import_module("ogpkit.gray")


def square():
    return gray(arrow(), arrow())


class TestProduct:
    def test_unit_left(self):
        p = gray(point(), arrow())
        assert find_iso(p.poset, arrow().poset) is not None

    def test_unit_right(self):
        p = gray(arrow(), point())
        assert find_iso(p.poset, arrow().poset) is not None

    def test_square_shape(self):
        sq = square()
        assert len(sq) == 9 and sq.dim == 2
        top = "(1,1)"
        assert sq.poset.faces(top, MINUS) == {"(0-,1)", "(1,0+)"}
        assert sq.poset.faces(top, PLUS) == {"(0+,1)", "(1,0-)"}

    def test_square_is_atom_and_round(self):
        sq = square()
        assert sq.is_atom()
        assert is_round(sq)

    def test_globe_times_arrow(self):
        p = gray(globe(2), arrow())
        assert len(p) == 15 and p.dim == 3

    def test_closure_in_square(self):
        sq = square().poset
        assert sq.closure({"(0-,1)"}) == {"(0-,1)", "(0-,0-)", "(0-,0+)"}

    def test_cofaces_in_square(self):
        sq = square().poset
        cin, cout = sq.coface_masks()
        assert sq.decode(cout[sq.id_of("(0-,1)")]) == frozenset()
        assert sq.decode(cin[sq.id_of("(0-,1)")]) == {"(1,1)"}

    def test_associativity_after_flattening(self):
        a = arrow()
        # ((x,y),z) -> (x,(y,z)), built from the factor labels
        names = a.poset.labels
        flatten = {pair(pair(x, y), z): pair(x, pair(y, z))
                   for x in names for y in names for z in names}
        flatten_triple_left = flatten.__getitem__
        left = gray_poset(gray_poset(a.poset, a.poset), a.poset)
        right = gray_poset(a.poset, gray_poset(a.poset, a.poset))
        relabeled_dims = {flatten_triple_left(x): d for x, d in left.dim_of.items()}
        assert relabeled_dims == dict(right.dim_of)
        for x in left.dim_of:
            for s in (MINUS, PLUS):
                mapped = {flatten_triple_left(f) for f in left.faces(x, s)}
                assert mapped == set(right.faces(flatten_triple_left(x), s))


class TestBoundaryFormula:
    def test_square_input_boundary(self):
        # bd_1^- (I (x) I) = {0-} x I  u  I x {0+}: the left-then-top path
        sq, rows = square(), gray_union_rows(arrow(), arrow())
        direct, union = map(sq.poset.decode,
                            check_gray_boundary_sides(sq.poset, rows, arrow(), 1, MINUS))
        expected = ({pair("0-", x) for x in ("0-", "0+", "1")}
                    | {pair(x, "0+") for x in ("0-", "0+", "1")})
        assert direct == expected
        assert union == expected

    def test_saturation(self):
        sq, rows = square().poset, gray_union_rows(arrow(), arrow())
        direct, union = map(sq.decode, check_gray_boundary_sides(sq, rows, arrow(), 2, MINUS))
        assert direct == union == frozenset(sq.dim_of)

    def test_globe_product_all_levels(self):
        u, v = globe(2), arrow()
        product = gray_poset(u.poset, v.poset)
        rows = gray_union_rows(u, v)
        for n in range(u.dim + v.dim + 1):
            for s in (MINUS, PLUS):
                direct, union = check_gray_boundary_sides(product, rows, v, n, s)
                assert direct == union, (n, s)

    def test_item1_splits_cover_boundary(self):
        u, v = globe(2), arrow()
        levels = gray_boundary_decomposition(u.poset, v.poset, gray_poset(u.poset, v.poset))
        assert [(n, s) for n, s, _, _ in levels] == [
            (n, s) for n in range(1, u.dim + v.dim + 1) for s in (MINUS, PLUS)]
        for n, s, direct, splits in levels:
            assert [j for j, _, _ in splits] == list(range(n))
            for j, left, right in splits:
                assert left | right == direct, (n, s, j)

    def test_splits_match_per_cut_subproducts(self):
        # every piece equals the boundary of a subproduct built for its own
        # cut, as the split formula reads: no sharing between cuts
        cat = enumerate_catalog(Bounds(depth=1, max_dim=2, max_elements=9))
        pairs = [(u.poset, v.poset) for u in cat.molecules() for v in cat.molecules()
                 if len(u) * len(v) <= SPLIT_CAP]
        assert len(pairs) > 20
        for p, q in pairs:
            want = []
            for n in range(1, p.dim + q.dim + 1):
                for s in (MINUS, PLUS):
                    splits = []
                    for j in range(n):
                        pp = p.restrict(p.boundary_set(j, s))
                        qq = q.restrict(q.boundary_set(n - j - 1, twist(flip(s), j)))
                        p_piece = gray_poset(pp, q).boundary_set(n, s)
                        q_piece = gray_poset(p, qq).boundary_set(n, s)
                        splits.append((j, p_piece, q_piece) if s == MINUS
                                      else (j, q_piece, p_piece))
                    want.append((n, s, gray_poset(p, q).boundary_set(n, s), splits))
            product = gray_poset(p, q)
            decode = product.decode
            got = [(n, s, decode(direct), [(j, decode(a), decode(b)) for j, a, b in splits])
                   for n, s, direct, splits in gray_boundary_decomposition(p, q, product)]
            assert got == want


def reference_op_swap(p, q) -> list:
    """Oracle for op_swap_iso: build both sides with gray_poset, the right
    one as op Q (x) op P in its own id order, and carry every face mask of
    the left side through the swap."""
    lhs = gray_mod.gray_poset(p, q).op()
    rhs = gray_mod.gray_poset(q.op(), p.op())
    if len(lhs) != len(rhs):
        raise IdentityFailed("op-swap is not a bijection of the carriers")
    swap = gray_mod.swap_ids(len(p), len(q))
    for e, d in enumerate(lhs.dims):
        t = swap[e]
        if rhs.dims[t] != d:
            raise IdentityFailed(f"op-swap changes the dimension of {lhs.labels[e]}")
        for s, lhs_faces, rhs_faces in ((MINUS, lhs.fin, rhs.fin), (PLUS, lhs.fout, rhs.fout)):
            if map_mask(lhs_faces[e], swap) != rhs_faces[t]:
                raise IdentityFailed(f"op-swap failed at {lhs.labels[e]} sign {s}")
    return swap


def flipped_twist(monkeypatch):
    """Planted fault: gray_poset with the twist parity flipped."""
    real = gray_mod.gray_poset
    monkeypatch.setattr(gray_mod, "gray_poset", lambda p, q: real(p, q.dual(range(q.dim + 1))))


def op_swap_failures(check_pair, pairs) -> set:
    failed = set()
    for k, (u, v) in enumerate(pairs):
        try:
            check_pair(u.poset, v.poset)
        except IdentityFailed:
            failed.add(k)
    return failed


def swap_labels(p, q) -> dict:
    """swap_ids decoded, once op_swap_iso and the reference accept it: the
    label in op(Q) (x) op(P) of each label of op(P (x) Q)."""
    assert op_swap_iso(p, q) is None
    swap = reference_op_swap(p, q)
    assert swap == gray_mod.swap_ids(len(p), len(q))
    lhs, rhs = gray_poset(p, q).op().labels, gray_poset(q.op(), p.op()).labels
    assert sorted(swap) == list(range(len(rhs)))
    return {lhs[e]: rhs[t] for e, t in enumerate(swap)}


def swapped_names(p, q) -> dict:
    """(x,y) -> (y,x) for every x of p and y of q, built from the factor
    labels."""
    return {pair(x, y): pair(y, x) for x in p.labels for y in q.labels}


class TestOpSwap:
    def test_square(self):
        mapping = swap_labels(arrow().poset, arrow().poset)
        assert len(mapping) == 9
        assert mapping == swapped_names(arrow().poset, arrow().poset)

    def test_point_factor(self):
        mapping = swap_labels(point().poset, arrow().poset)
        assert mapping == swapped_names(point().poset, arrow().poset)

    def test_globe_times_arrow(self):
        assert len(swap_labels(globe(2).poset, arrow().poset)) == 15

    def test_double_swap_is_identity(self):
        p, q = globe(2).poset, arrow().poset
        fwd = swap_labels(p, q)
        back = swap_labels(q.op().op(), p.op().op())  # = swap_labels(q, p)
        assert all(back[v] == k for k, v in fwd.items())

    def test_failure_raises_with_element_and_sign(self, monkeypatch):
        # a product built with the twist parity flipped is not op-swappable;
        # the failure must survive python -O, so it is no assert
        flipped_twist(monkeypatch)
        with pytest.raises(IdentityFailed) as info:
            op_swap_iso(arrow().poset, arrow().poset)
        cert = info.value.certificate
        assert cert["sign"] in (MINUS, PLUS)
        assert f"at {cert['element']} sign {cert['sign']}" in str(info.value)
        assert cert["got"] != cert["want"]
        # faces are named as elements of op Q (x) op P
        p, q = globe(2).poset, arrow().poset
        with pytest.raises(IdentityFailed) as info:
            op_swap_iso(p, q)
        cert = info.value.certificate
        assert cert["element"] in swapped_names(p, q)
        names = set(swapped_names(p, q).values())
        assert cert["got"] and set(cert["got"]) | set(cert["want"]) <= names

    def test_builds_one_product(self, monkeypatch):
        real, calls = gray_mod.gray_poset, []
        monkeypatch.setattr(gray_mod, "gray_poset", lambda p, q: calls.append(1) or real(p, q))
        op_swap_iso(globe(2).poset, arrow().poset)
        assert len(calls) == 1

    def test_agrees_with_reference_on_catalog_pairs(self, monkeypatch):
        cat = enumerate_catalog(Bounds(depth=2, max_dim=4, max_elements=10))
        pairs = [(u, v) for u in cat.molecules() for v in cat.molecules()
                 if len(u) * len(v) <= PRODUCT_CAP]
        assert len(pairs) == 729
        for u, v in pairs:
            assert op_swap_iso(u.poset, v.poset) is None
            assert reference_op_swap(u.poset, v.poset) == gray_mod.swap_ids(len(u), len(v))
        # The fault changes P (x) Q exactly when Q has a cell of positive
        # dimension.  The second face formula does not call gray_poset, so
        # op_swap_iso fails on exactly those pairs.  The reference builds
        # its right side with the faulty gray_poset too, and fails on
        # (P, point) as well, since op(point) (x) op P is then faulty.
        flipped_twist(monkeypatch)
        got = op_swap_failures(op_swap_iso, pairs)
        ref = op_swap_failures(reference_op_swap, pairs)
        assert got == {k for k, (u, v) in enumerate(pairs) if v.dim > 0}
        assert got <= ref
        assert (len(got), len(ref)) == (702, 728)

    def test_op_of_product_vs_swapped_product(self):
        # op(gray(I, I)) evaluates to gray(op I, op I) after the swap
        sq_op = op(gray(arrow(), arrow()))
        swapped = gray(op(arrow()), op(arrow()))
        iso = find_iso(sq_op.poset, swapped.poset)
        assert iso is not None


class TestTwist:
    def test_even_keeps_sign(self):
        assert twist(MINUS, 0) == MINUS and twist(PLUS, 2) == PLUS

    def test_odd_flips(self):
        assert twist(MINUS, 1) == PLUS and twist(PLUS, 3) == MINUS
