"""Isomorphism search, canonical keys and pushout maps against
independent oracles.

networkx's DiGraphMatcher sees a poset as a directed graph with an edge
from each element to each of its faces, nodes matched on dimension and
edges on sign; it shares no code with ogpkit's colour refinement.  Maps
are id images; both sides are compared as label dicts.  The inclusions
of a pushout are checked against the labels it is defined to give.
"""

import random

import pytest

from ogpkit.gray import gray_poset
from ogpkit.harness import PRODUCT_CAP, Bounds, _paste_at_instances, enumerate_catalog
from ogpkit.ids import inl, inr, sid
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


def check_pushout_maps(m):
    """The two provenance id images of a paste, paste-at or atom result m
    are injective, cover m (all but an atom's top), and decode to the
    labels of the pushout: inl(x) for each left x, inr(y) for an unglued
    right y, and for a glued one the left label its certificate names."""
    p = m.poset
    left, right = m.provenance["left"], m.provenance["right"]
    a, b = left.source.poset, right.source.poset
    for inc in (left, right):
        assert len(set(inc.ids)) == len(inc.ids)
    covered = left.image | right.image
    if m.certificate["kind"] == "atom":
        assert covered == p.full & ~(1 << m.top_id())
    else:
        assert covered == p.full
        g = m.provenance["gencp"]
        assert (g.left, g.right) == (left.image, right.image)
    assert [p.labels[j] for j in left.ids] == [inl(x) for x in a.labels]
    glued_to = {y: x for x, y in m.certificate["glue"].items()}
    left_of = {sid(x): x for x in a.labels}
    for y, j in zip(b.labels, right.ids):
        if sid(y) in glued_to:
            assert p.labels[j] == inl(left_of[glued_to[sid(y)]])
        else:
            assert p.labels[j] == inr(y)


def test_pushout_maps_match_labels(d3_catalog):
    pushouts = [e.molecule for e in d3_catalog.entries
                if e.molecule.certificate["kind"] in ("paste", "atom")]
    pushouts += [whole for _, _, _, whole, *_ in _paste_at_instances(d3_catalog)]
    kinds = {m.certificate["kind"] for m in pushouts}
    assert kinds == {"paste", "paste_at", "atom"}
    for m in pushouts:
        check_pushout_maps(m)
