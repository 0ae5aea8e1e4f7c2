"""Poset storage, validation, order queries, duals, and iso search."""

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ogpkit.errors import (
    BadGrading,
    DanglingFace,
    DuplicateLabel,
    EmptySide,
    Overlap,
    UnknownElement,
)
from ogpkit.gray import gray_poset
from ogpkit.harness import PRODUCT_CAP, Bounds, enumerate_catalog
from ogpkit.poset import MINUS, PLUS, OgPoset, all_isos, build, find_iso, structure_key


def the_arrow():
    return build({"0-": 0, "0+": 0, "1": 1}, {"1": ({"0-"}, {"0+"})})


def labelled(p, q, ids):
    """An id image from p to q as a label dict."""
    return {p.labels[i]: q.labels[j] for i, j in enumerate(ids)}


def brute_force_isos(p, q):
    """Oracle: enumerate every dimension-preserving bijection and filter."""
    if len(p) != len(q):
        return []
    dims = sorted({d for d in p.dim_of.values()} | {d for d in q.dim_of.values()})
    per_dim = []
    for d in dims:
        xs = sorted([x for x, e in p.dim_of.items() if e == d], key=str)
        ys = sorted([y for y, e in q.dim_of.items() if e == d], key=str)
        if len(xs) != len(ys):
            return []
        per_dim.append((xs, ys))
    found = []
    pools = [itertools.permutations(ys) for _, ys in per_dim]
    for combo in itertools.product(*pools):
        mapping = {}
        for (xs, _), perm in zip(per_dim, combo):
            mapping.update(zip(xs, perm))
        ok = True
        for x in p.dim_of:
            for s in (MINUS, PLUS):
                if {mapping[f] for f in p.faces(x, s)} != set(q.faces(mapping[x], s)):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(mapping)
    return found


class TestBuild:
    def test_arrow_is_valid(self):
        p = the_arrow()
        assert len(p) == 3
        assert p.dim == 1
        assert p.faces("1", MINUS) == {"0-"}
        assert p.faces("1", PLUS) == {"0+"}

    def test_point(self):
        p = build({"x": 0}, {})
        assert p.dim == 0
        assert p.decode(p.maximal_mask(p.full)) == {"x"}

    def test_empty_input_side_rejected(self):
        with pytest.raises(EmptySide):
            build({"a": 0, "e": 1}, {"e": (set(), {"a"})})

    def test_missing_faces_rejected(self):
        with pytest.raises(EmptySide):
            build({"a": 0, "e": 1}, {})

    def test_dangling_face(self):
        with pytest.raises(DanglingFace):
            build({"a": 0, "e": 1}, {"e": ({"a"}, {"ghost"})})

    def test_bad_grading(self):
        with pytest.raises(BadGrading):
            build({"a": 0, "b": 0, "e": 2}, {"e": ({"a"}, {"b"})})

    def test_overlap(self):
        with pytest.raises(Overlap):
            build({"a": 0, "e": 1}, {"e": ({"a"}, {"a"})})


class TestQueries:
    def test_closure_of_top(self):
        p = the_arrow()
        assert p.closure({"1"}) == {"1", "0-", "0+"}

    def test_closure_of_minimal(self):
        assert the_arrow().closure({"0-"}) == {"0-"}

    def test_closure_unknown(self):
        with pytest.raises(UnknownElement):
            the_arrow().closure({"nope"})

    def test_unknown_rejected_by_is_closed_and_restrict(self):
        p = the_arrow()
        with pytest.raises(UnknownElement):
            p.is_closed_mask(p.encode({"1", "nope"}))
        with pytest.raises(UnknownElement):
            p.restrict({"0-", "nope"})

    def test_elements_in_dim_then_sid_order(self):
        # the order ATOM_CLOSURES visits: ids by dimension, then label rank
        def in_order(p):
            rank = p.sid_ranks()
            return tuple(p.labels[i] for i in sorted(range(len(p)),
                                                     key=lambda i: (p.dims[i], rank[i])))

        assert in_order(the_arrow()) == ("0+", "0-", "1")
        p = gray_poset(the_arrow(), the_arrow())
        first = in_order(p)
        assert first == tuple(sorted(p.dim_of, key=lambda x: (p.dim_of[x], x)))
        assert [p.dim_of[x] for x in first] == [0] * 4 + [1] * 4 + [2]
        assert p.sid_ranks() is p.sid_ranks()

    def test_cofaces(self):
        p = the_arrow()
        cin, cout = p.coface_masks()
        assert p.decode(cin[p.id_of("0-")]) == {"1"}
        assert p.decode(cout[p.id_of("0-")]) == frozenset()

    def test_maximal(self):
        p = the_arrow()
        assert p.decode(p.maximal_mask(p.full)) == {"1"}

    def test_cofaces_and_maxima_invert_the_faces(self):
        # cofaces are derived on first read; check them on every depth-1
        # shape and product, their opposites and their boundaries
        shapes = [e.molecule.poset
                  for e in enumerate_catalog(Bounds(depth=1, max_dim=2, max_elements=9)).entries]
        checked = 0
        for p in shapes + [gray_poset(a, b) for a in shapes for b in shapes]:
            boundaries = [p.restrict(p.boundary_set(n, s))
                          for n in range(p.dim) for s in (MINUS, PLUS)]
            for q in [p, p.op(), *boundaries]:
                cofaces = {(x, s): set() for x in q.dim_of for s in (MINUS, PLUS)}
                for x in q.dim_of:
                    for f in q.faces_in[x]:
                        cofaces[f, MINUS].add(x)
                    for f in q.faces_out[x]:
                        cofaces[f, PLUS].add(x)
                cin, cout = q.coface_masks()
                for (x, s), want in cofaces.items():
                    assert q.decode((cin if s == MINUS else cout)[q.id_of(x)]) == want
                assert q.decode(q.maximal_mask(q.full)) == {
                    x for x in q.dim_of if not cofaces[x, MINUS] and not cofaces[x, PLUS]}
                checked += 1
        assert checked > 100

    def test_face_closure_invariant(self):
        # closure({x}) minus {x} is the union of the face closures
        p = the_arrow()
        for x in p.dim_of:
            if p.dim_of[x] > 0:
                assert p.closure({x}) - {x} == p.closure(p.faces_in[x] | p.faces_out[x])


class TestBoundary:
    def test_arrow_boundaries(self):
        p = the_arrow()
        assert p.boundary_set(0, MINUS) == {"0-"}
        assert p.boundary_set(0, PLUS) == {"0+"}

    def test_saturation(self):
        p = the_arrow()
        assert p.boundary_set(1, MINUS) == frozenset(p.dim_of)
        assert p.boundary_set(5, PLUS) == frozenset(p.dim_of)

    def test_negative_is_empty(self):
        assert the_arrow().boundary_set(-1, MINUS) == frozenset()


class TestDual:
    def test_op_arrow(self):
        p = the_arrow().op()
        assert p.faces("1", MINUS) == {"0+"}
        assert p.faces("1", PLUS) == {"0-"}

    def test_empty_dual_is_identity(self):
        p = the_arrow()
        assert p.dual(()) == p

    def test_involution(self):
        p = the_arrow()
        assert p.dual({1}).dual({1}) == p


class TestIso:
    def test_arrow_to_op_arrow(self):
        p = the_arrow()
        iso = find_iso(p, p.op())
        assert iso is not None
        assert labelled(p, p.op(), iso) == {"0-": "0+", "0+": "0-", "1": "1"}

    def test_profile_mismatch(self):
        p = the_arrow()
        q = build({"x": 0}, {})
        assert find_iso(p, q) is None

    def test_symmetry_and_inverse(self):
        p = the_arrow()
        fwd = find_iso(p, p.op())
        back = find_iso(p.op(), p)
        assert back is not None
        assert [back[j] for j in fwd] == list(range(len(p)))

    def test_agrees_with_brute_force(self):
        p = the_arrow()
        for q in (p, p.op()):
            ours = {tuple(sorted(labelled(p, q, i).items())) for i in all_isos(p, q)}
            oracle = {tuple(sorted(m.items())) for m in brute_force_isos(p, q)}
            assert ours == oracle


# -- randomised properties ---------------------------------------------------


@st.composite
def small_posets(draw):
    """Random layered posets with up to three dimensions, honoring the
    invariants (nonempty disjoint face sides one dimension below)."""
    n0 = draw(st.integers(min_value=1, max_value=4))
    elements = {f"p{i}": 0 for i in range(n0)}
    faces = {}
    prev = list(elements)
    for dim in (1, 2):
        count = draw(st.integers(min_value=0, max_value=3))
        layer = []
        for i in range(count):
            if len(prev) < 2:
                break
            lo = draw(st.sampled_from(prev))
            hi = draw(st.sampled_from([x for x in prev if x != lo]))
            extra = draw(st.sets(st.sampled_from(prev), max_size=2))
            name = f"c{dim}_{i}"
            fin = {lo} | {e for e in extra if e != hi}
            fout = {hi}
            elements[name] = dim
            faces[name] = (fin, fout)
            layer.append(name)
        if not layer:
            break
        prev = layer
    return build(elements, faces)


@given(small_posets())
@settings(max_examples=60, deadline=None)
def test_dual_involution_random(p):
    for dims in ({1}, {2}, {1, 2}):
        assert p.dual(dims).dual(dims) == p


@given(small_posets())
@settings(max_examples=60, deadline=None)
def test_closure_idempotent_random(p):
    xs = sorted(p.dim_of, key=str)[: max(1, len(p) // 2)]
    c = p.closure(xs)
    assert p.closure(c) == c
    assert p.is_closed_mask(p.encode(c))


@given(small_posets())
@settings(max_examples=40, deadline=None)
def test_iso_search_matches_brute_force_random(p):
    q = p.op()
    ours = {tuple(sorted((str(k), str(v)) for k, v in labelled(p, q, i).items()))
            for i in all_isos(p, q)}
    oracle = {tuple(sorted((str(k), str(v)) for k, v in m.items()))
              for m in brute_force_isos(p, q)}
    assert ours == oracle


@given(small_posets())
@settings(max_examples=60, deadline=None)
def test_sub_boundaries_match_restriction_random(p):
    from ogpkit.molecule import is_round

    xs = sorted(p.dim_of, key=str)
    subsets = {p.closure(pair) for pair in itertools.combinations_with_replacement(xs, 2)}
    subsets.add(frozenset(p.labels))
    for subset in subsets:
        sub = p.restrict(subset)
        m = p.encode(subset)
        assert p.dim_mask(m) == sub.dim
        assert is_round(p, m) == is_round(sub)
        for n in range(-1, sub.dim + 1):
            for s in (MINUS, PLUS):
                assert p.decode(p.boundary_mask(m, n, s)) == sub.boundary_set(n, s)


# -- the mask core against label-level oracles --------------------------------


def set_cofaces(p):
    """(x, sign) -> the elements having x among their faces of that sign,
    inverted from the label views."""
    cofaces = {(x, s): set() for x in p.dim_of for s in (MINUS, PLUS)}
    for x in p.dim_of:
        for f in p.faces_in[x]:
            cofaces[f, MINUS].add(x)
        for f in p.faces_out[x]:
            cofaces[f, PLUS].add(x)
    return cofaces


def set_closure(p, subset):
    seen, stack = set(subset), list(subset)
    while stack:
        for y in p.faces_in[stack[-1]] | p.faces_out[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def set_boundary(p, cofaces, n, sign):
    """bd_n^sign of the whole poset by its definition, on plain sets."""
    if n < 0:
        return set()
    if n >= p.dim:
        return set(p.dim_of)
    opposite = PLUS if sign == MINUS else MINUS
    generators = [x for x, d in p.dim_of.items()
                  if (d == n and not cofaces[x, opposite])
                  or (d < n and not cofaces[x, MINUS] and not cofaces[x, PLUS])]
    return set_closure(p, generators)


def core_shapes():
    """Every shape of the depth-2, 10-element catalog and its opposite, and
    every Gray product under PRODUCT_CAP of the depth-1 catalog."""
    shapes = [e.molecule.poset
              for e in enumerate_catalog(Bounds(depth=2, max_dim=4, max_elements=10)).entries]
    small = [m.poset for m in enumerate_catalog(Bounds(depth=1)).molecules()]
    products = [gray_poset(a, b) for a in small for b in small if len(a) * len(b) <= PRODUCT_CAP]
    return shapes + [p.op() for p in shapes] + products


class TestStructureKey:
    def test_keys_are_equal_exactly_for_equal_structures(self):
        # the core shapes and their duals at each dimension, of 1 to 140
        # elements: array packs the key widths of 1, 2, 4 and 8 bytes a
        # number, to_bytes the others
        shapes = core_shapes()
        shapes += [p.dual({d}) for p in shapes for d in range(1, p.dim + 1)]
        structures = {}
        for p in shapes:
            structures.setdefault(structure_key(p), set()).add(
                (tuple(p.dims), tuple(p.fin), tuple(p.fout)))
        assert all(len(same) == 1 for same in structures.values())
        assert len(structures) == len(set().union(*structures.values()))
        widths = {len(p) + 7 >> 3 for p in shapes}
        assert widths >= {1, 2, 3, 4, 8} and max(widths) > 8


class TestMaskCore:
    def test_gray_products_pass_build_validation(self):
        # gray_poset builds on ids without build(); rebuilding every
        # depth-1 product from its label views runs build's checks on it
        # and must give the same poset, ids and masks included
        small = [m.poset for m in enumerate_catalog(Bounds(depth=1)).molecules()]
        checked = 0
        for a in small:
            for b in small:
                p = gray_poset(a, b)
                rebuilt = build(p.dim_of, {x: (p.faces_in[x], p.faces_out[x])
                                           for x, d in p.dim_of.items() if d > 0})
                assert rebuilt == p
                assert (rebuilt.labels, rebuilt.dims, rebuilt.fin, rebuilt.fout) == \
                    (p.labels, p.dims, p.fin, p.fout)
                checked += 1
        assert checked == len(small) ** 2 > 40

    def test_queries_match_set_oracle(self):
        shapes = core_shapes()
        assert len(shapes) > 100
        for p in shapes:
            cofaces = set_cofaces(p)
            cin, cout = p.coface_masks()
            for x in p.dim_of:
                for s in (MINUS, PLUS):
                    assert p.decode((cin if s == MINUS else cout)[p.id_of(x)]) == cofaces[x, s]
                closed = set_closure(p, {x})
                assert p.closure({x}) == closed
                assert p.is_closed_mask(p.encode(closed))
                for faces in (p.faces_in[x], p.faces_out[x]):
                    if faces:
                        assert not p.is_closed_mask(p.encode(closed - {min(faces)}))
            assert p.decode(p.maximal_mask(p.full)) == {
                x for x in p.dim_of if not cofaces[x, MINUS] and not cofaces[x, PLUS]}
            assert p.is_closed_mask(p.full) and p.is_closed_mask(0)
            for n in range(-1, p.dim + 2):
                for s in (MINUS, PLUS):
                    assert p.boundary_set(n, s) == set_boundary(p, cofaces, n, s)

    @given(small_posets())
    @settings(max_examples=80, deadline=None)
    def test_boundaries_match_set_oracle_random(self, p):
        # random layered posets often have maximal elements below the top
        # dimension, which catalog molecules rarely have
        cofaces = set_cofaces(p)
        for n in range(-1, p.dim + 2):
            for s in (MINUS, PLUS):
                assert p.boundary_set(n, s) == set_boundary(p, cofaces, n, s)
        # closed sub-masks, the closures of element pairs: each boundary
        # read on the mask equals the oracle on the restricted sub-poset
        for pair in itertools.combinations_with_replacement(p.labels, 2):
            closed = set_closure(p, pair)
            sub = p.restrict(closed)
            sub_cofaces = set_cofaces(sub)
            m = p.encode(closed)
            for n in range(-1, sub.dim + 2):
                for s in (MINUS, PLUS):
                    assert p.decode(p.boundary_mask(m, n, s)) == \
                        set_boundary(sub, sub_cofaces, n, s)

    def test_label_views_follow_the_ids(self):
        for p in core_shapes():
            assert list(p.dim_of) == list(p.labels)
            assert list(p.dim_of.values()) == list(p.dims)
            for i, x in enumerate(p.labels):
                assert p.index[x] == i
                assert p.encode(p.faces_in[x]) == p.fin[i]
                assert p.encode(p.faces_out[x]) == p.fout[i]
                assert p.decode(p.fin[i]) == p.faces_in[x]

    def test_repeated_product_labels_raise(self):
        # "(x,y)" paired with "z" and "x" paired with "y,z" both print as
        # "(x,y,z)"; the product would index 3 labels for 4 ids
        p = gray_poset(build({"x,y": 0, "x": 0}, {}), build({"z": 0, "y,z": 0}, {}))
        with pytest.raises(DuplicateLabel, match=r"\(x,y,z\)"):
            p.labels
        q = gray_poset(build({"x": 0, "w": 0}, {}), build({"z": 0, "y,z": 0}, {}))
        assert len(q.index) == len(q) == 4


# -- maxima against their coface definition ------------------------------------


def coface_maxima(p, m):
    """maximal_mask's definition: the elements of m with no coface in m,
    read from coface_masks()."""
    cin, cout = p.coface_masks()
    return sum(1 << i for i in range(len(p)) if m >> i & 1 and not (cin[i] | cout[i]) & m)


def maxima_masks(p):
    """The masks the maxima oracle reads on p: the full mask, each of its
    boundaries, each element's closure, and masks that are not closed:
    each closure less one face of its element, and the full mask less
    each element."""
    cl = p.closure_masks()
    masks = [p.full]
    masks += [p.boundary_mask(p.full, n, s) for n in range(p.dim) for s in (MINUS, PLUS)]
    masks += cl
    masks += [c & ~(a & -a) for c, a in zip(cl, p.fin) if a]
    masks += [p.full & ~(1 << i) for i in range(len(p))]
    return masks


def maxima_mismatches(posets) -> dict:
    """maximal_mask against coface_maxima on the maxima_masks of each
    poset, read on the poset as given and on a fresh copy that derives
    nothing before its maxima.  Counts the masks read, those not closed,
    those that disagree, and the fresh copies whose maxima built a coface
    table."""
    out = {"masks": 0, "open": 0, "wrong": 0, "inverted": 0}
    for p in posets:
        fresh = OgPoset(p.dims, p.fin, p.fout, p.labels)
        masks = maxima_masks(p)
        for q in (fresh, p):
            for m in masks:
                out["masks"] += 1
                out["open"] += not p.is_closed_mask(m)
                out["wrong"] += q.maximal_mask(m) != coface_maxima(p, m)
        out["inverted"] += fresh._cofaces is not None
    return out


MAXIMA_UNDER_OPTIMIZE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from ogpkit.harness import Bounds, enumerate_catalog
from test_poset import maxima_mismatches
cat = enumerate_catalog(Bounds(depth=3, max_dim=4, max_elements=12))
print(sys.flags.optimize, json.dumps(maxima_mismatches([e.molecule.poset for e in cat.entries])))
"""


class TestMaxima:
    """maximal_mask(m) is m less the faces of its elements, which is its
    definition, the elements of m with no coface in m, on every mask."""

    def test_catalog_masks_match_coface_definition(self, d3_catalog):
        got = maxima_mismatches([e.molecule.poset for e in d3_catalog.entries])
        assert got["wrong"] == got["inverted"] == 0
        assert got["open"] > 1000 and got["masks"] > 10000

    def test_catalog_masks_under_optimize(self, src_env):
        out = subprocess.run([sys.executable, "-O", "-c", MAXIMA_UNDER_OPTIMIZE,
                              str(Path(__file__).parent)],
                             env=src_env, capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        optimize, counts = out.stdout.split(" ", 1)
        got = json.loads(counts)
        assert optimize == "1"
        assert got["wrong"] == got["inverted"] == 0
        assert got["open"] > 1000 and got["masks"] > 10000

    @given(small_posets(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_masks_match_coface_definition(self, p, data):
        # random layered posets have maxima below the top dimension, and
        # any mask of them, closed or not, is read
        masks = maxima_masks(p) + data.draw(st.lists(st.integers(0, p.full), max_size=8))
        for m in masks:
            assert p.maximal_mask(m) == coface_maxima(p, m)
        assert OgPoset(p.dims, p.fin, p.fout, p.labels).maximal_mask(p.full) == \
            coface_maxima(p, p.full)
