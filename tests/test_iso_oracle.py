"""Isomorphism search, canonical keys and pushout maps against
independent oracles.

networkx's DiGraphMatcher sees a poset as a directed graph with an edge
from each element to each of its faces, nodes matched on dimension and
edges on sign; it shares no code with ogpkit's colour refinement.  Maps
are id images; both sides are compared as label dicts.  A pushout's
labels are checked against those it is defined to give its inputs.
"""

import random

import pytest

from ogpkit.exprlang import parse, print_expr
from ogpkit.gray import gray_poset
from ogpkit.harness import PRODUCT_CAP, Bounds, _paste_at_instances, enumerate_catalog
from ogpkit.ids import inl, inr
from ogpkit.molecule import atom, paste
from ogpkit.poset import all_isos, build, canonical_key, find_iso

nx = pytest.importorskip("networkx")
from networkx.algorithms.isomorphism import DiGraphMatcher  # noqa: E402

PRODUCT_SAMPLE = 24


def graph(p):
    g = nx.DiGraph()
    for x, d in p.dim_of.items():
        g.add_node(x, dim=d)
    for x in p.dim_of:
        for f in p.faces_in[x]:
            g.add_edge(x, f, sign="-")
        for f in p.faces_out[x]:
            g.add_edge(x, f, sign="+")
    return g


def oracle_isos(p, q):
    matcher = DiGraphMatcher(
        graph(p), graph(q),
        node_match=lambda a, b: a["dim"] == b["dim"],
        edge_match=lambda a, b: a["sign"] == b["sign"],
    )
    return list(matcher.isomorphisms_iter())


def labelled(p, q, ids):
    """An id image from p to q as a label dict, as the oracle gives maps."""
    return {p.labels[i]: q.labels[j] for i, j in enumerate(ids)}


def relabelled(p, rng):
    """A copy of p under a random renaming of its ids, with its elements
    inserted in a random order; returns (copy, renaming)."""
    xs = list(p.dim_of)
    names = [f"r{i}" for i in range(len(xs))]
    rng.shuffle(names)
    rename = dict(zip(xs, names))
    rng.shuffle(xs)
    elements = {rename[x]: p.dim_of[x] for x in xs}
    faces = {rename[x]: ({rename[f] for f in p.faces_in[x]},
                         {rename[f] for f in p.faces_out[x]})
             for x in xs if p.dim_of[x] > 0}
    return build(elements, faces), rename


def check_against_oracle(p, rng):
    q, rename = relabelled(p, rng)
    assert canonical_key(q) == canonical_key(p)
    oracle = oracle_isos(p, q)
    iso = find_iso(p, q)
    assert (iso is not None) == bool(oracle)
    assert labelled(p, q, iso) in oracle
    autos = all_isos(p, p)
    oracle_autos = oracle_isos(p, p)
    assert len(autos) == len(oracle_autos)
    assert all(labelled(p, p, a) in oracle_autos for a in autos)
    if canonical_key(p) is not None:
        assert labelled(p, q, iso) == rename


def test_catalog_shapes_match_oracle(d3_catalog):
    rng = random.Random(0)
    for e in d3_catalog.entries:
        check_against_oracle(e.molecule.poset, rng)


def test_catalog_keys_are_distinct(d3_catalog):
    keys = [canonical_key(e.molecule.poset) for e in d3_catalog.entries]
    assert None not in keys
    assert len(set(keys)) == len(keys)


def test_distinct_entries_not_isomorphic(d3_catalog):
    # same size, so neither search can stop at the element count
    by_size = {}
    for e in d3_catalog.entries:
        by_size.setdefault(len(e.molecule), []).append(e.molecule.poset)
    for posets in by_size.values():
        for a, b in zip(posets, posets[1:]):
            assert find_iso(a, b) is None
            assert not oracle_isos(a, b)


def test_products_match_oracle(d3_catalog):
    # every product of the depth-1 catalog, plus a seeded sample of the
    # depth-3 catalog's pairs, up to the suite's product cap
    small = enumerate_catalog(Bounds(depth=1, max_dim=4, max_elements=8)).molecules()
    pairs = [(u, v) for u in small for v in small]
    rng = random.Random(1)
    big = d3_catalog.molecules()
    pairs += [(rng.choice(big), rng.choice(big)) for _ in range(PRODUCT_SAMPLE)]
    for u, v in pairs:
        if len(u) * len(v) > PRODUCT_CAP:
            continue
        check_against_oracle(gray_poset(u.poset, v.poset), rng)


def test_symmetric_shapes_fall_back_to_backtracking():
    # two disjoint arrows: every element shares its colour with its twin,
    # so there is no key and the backtracking search runs
    p = build({"a0": 0, "a1": 0, "a": 1, "b0": 0, "b1": 0, "b": 1},
              {"a": ({"a0"}, {"a1"}), "b": ({"b0"}, {"b1"})})
    assert canonical_key(p) is None
    check_against_oracle(p, random.Random(2))
    assert len(all_isos(p, p)) == 2


def check_pushout_labels(m1, m2, m):
    """The labels of m, a paste, paste-at or atom of m1 and m2: inl(x) at
    the ids 0..|m1|-1 for each x of m1, inr(y) after them for each unglued
    y of m2 in m2's order, then an atom's top.  m2's image, read through
    the glue certificate (inl of the left label a glued y is sent to),
    carries m2's faces, is the right piece of a pasting's recorded
    generalised pasting, and gives an atom's top its output faces."""
    p, a, b = m.poset, m1.poset, m2.poset
    glued_to = {y: x for x, y in m.certificate["glue"].items()}
    image = {y: inl(glued_to[y]) if y in glued_to else inr(y) for y in b.labels}
    want = [inl(x) for x in a.labels] + [inr(y) for y in b.labels if y not in glued_to]
    if m.certificate["kind"] == "atom":
        want.append("top")
    assert list(p.labels) == want
    for y, x in image.items():
        assert p.dim_of[x] == b.dim_of[y]
        assert p.faces_in[x] == {image[f] for f in b.faces_in[y]}
        assert p.faces_out[x] == {image[f] for f in b.faces_out[y]}
    if m.certificate["kind"] == "atom":
        top_cells = {y for y, d in b.dim_of.items() if d == b.dim}
        assert p.faces_out["top"] == {image[y] for y in top_cells}
    else:
        g = m.provenance["gencp"]
        assert g.left == a.full
        assert p.decode(g.right) == set(image.values())


def test_pushout_maps_match_labels(d3_catalog):
    # each pasted catalog entry rebuilt from its two input entries, and
    # every pasting at a submolecule, whose inputs are catalog shapes
    by_expr = {e.expr: e.molecule for e in d3_catalog.entries}
    pushouts = []
    for e in d3_catalog.entries:
        expr = parse(e.expr)
        if expr.head in ("paste", "atom"):
            m1, m2 = (by_expr[print_expr(arg)] for arg in expr.args[:2])
            m = paste(m1, m2, expr.args[2]) if expr.head == "paste" else atom(m1, m2)
            assert find_iso(m.poset, e.molecule.poset) is not None
            pushouts.append((m1, m2, m))
    for kind, w, u, whole, *_ in _paste_at_instances(d3_catalog):
        pushouts.append((w, u, whole) if kind == "cpsub" else (u, w, whole))
    kinds = {m.certificate["kind"] for _, _, m in pushouts}
    assert kinds == {"paste", "paste_at", "atom"}
    for m1, m2, m in pushouts:
        check_pushout_labels(m1, m2, m)
