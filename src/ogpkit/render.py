"""Deterministic JSON and DOT serialization for shapes.

Element order is (dimension, serialized id) everywhere, so equal shapes
render to identical bytes.
"""

from __future__ import annotations

import json

from .ids import sid
from .marked import MarkedMap, MarkedShape
from .molecule import Molecule
from .poset import MINUS, PLUS, OgPoset


def _poset(shape) -> OgPoset:
    if isinstance(shape, Molecule):
        return shape.poset
    if isinstance(shape, MarkedShape):
        return shape.poset
    return shape


def _named_order(p: OgPoset):
    """Each element's sid, computed once, and the elements in (dimension,
    sid) order."""
    name = {x: sid(x) for x in p.dim_of}
    dim_of = p.dim_of
    return name, sorted(dim_of, key=lambda x: (dim_of[x], name[x]))


def poset_to_dict(shape) -> dict:
    p = _poset(shape)
    name, order = _named_order(p)
    dim_of, faces_in, faces_out = p.dim_of, p.faces_in, p.faces_out
    doc = {
        "elements": [{"id": name[x], "dim": dim_of[x]} for x in order],
        "faces": {
            name[x]: {
                MINUS: sorted([name[f] for f in faces_in[x]]),
                PLUS: sorted([name[f] for f in faces_out[x]]),
            }
            for x in order
            if dim_of[x] > 0
        },
    }
    if isinstance(shape, Molecule):
        doc["certificate"] = shape.certificate
    if isinstance(shape, MarkedShape):
        doc["marked"] = p.sids(shape.marking)
    return doc


def marked_map_to_dict(m: MarkedMap) -> dict:
    """The map as {id: id} on its image, which it fixes."""
    return {"map": {x: x for x in m.target.poset.sids(m.image)}, "entire": m.entire}


def to_json_bytes(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def to_dot_bytes(shape) -> bytes:
    p = _poset(shape)
    name, order = _named_order(p)
    dim_of = p.dim_of
    lines = ["digraph shape {"]
    for x in order:
        lines.append(f'  "{name[x]}" [label="{name[x]}:{dim_of[x]}"];')
    edges = []
    for x in order:
        if dim_of[x] == 0:
            continue
        for faces, color in ((p.faces_in, "crimson"), (p.faces_out, "navy")):
            for f in sorted([name[f] for f in faces[x]]):
                edges.append(f'  "{f}" -> "{name[x]}" [color={color}];')
    lines.extend(sorted(edges))
    lines.append("}")
    return ("\n".join(lines) + "\n").encode()


def render(shape, fmt: str) -> bytes:
    """Serialize a shape; fmt is "json" or "dot"."""
    if fmt == "json":
        return to_json_bytes(poset_to_dict(shape))
    if fmt == "dot":
        return to_dot_bytes(shape)
    raise ValueError(f"unknown format {fmt!r}")
