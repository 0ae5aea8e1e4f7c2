"""Isomorphism search and canonical keys against an independent oracle.

networkx's DiGraphMatcher sees a poset as a directed graph with an edge
from each element to each of its faces, nodes matched on dimension and
edges on sign; it shares no code with ogpkit's colour refinement.
"""

import random

import pytest

from ogpkit.gray import gray_poset
from ogpkit.harness import PRODUCT_CAP, Bounds, enumerate_catalog
from ogpkit.poset import all_isos, build, canonical_key, find_iso

nx = pytest.importorskip("networkx")
from networkx.algorithms.isomorphism import DiGraphMatcher  # noqa: E402

# depth-3 catalog of the catalog-d3 benchmark workload
D3 = Bounds(depth=3, max_dim=4, max_elements=12)
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
    assert iso.mapping in oracle
    autos = all_isos(p, p)
    oracle_autos = oracle_isos(p, p)
    assert len(autos) == len(oracle_autos)
    assert all(a.mapping in oracle_autos for a in autos)
    if canonical_key(p) is not None:
        assert iso.mapping == rename


@pytest.fixture(scope="module")
def d3_catalog():
    return enumerate_catalog(D3)


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
