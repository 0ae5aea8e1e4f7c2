"""Deterministic JSON and DOT serialization for shapes.

Element order is (dimension, label) everywhere, so equal shapes render to
identical bytes.
"""

from __future__ import annotations

import json

from .marked import MarkedMap, MarkedShape
from .molecule import Molecule, poset_of
from .poset import MINUS, PLUS, OgPoset


def _order(p: OgPoset) -> list:
    """The labels in (dimension, label) order."""
    dim_of = p.dim_of
    return sorted(dim_of, key=lambda x: (dim_of[x], x))


def poset_to_dict(shape) -> dict:
    p = poset_of(shape)
    order = _order(p)
    dim_of, faces_in, faces_out = p.dim_of, p.faces_in, p.faces_out
    doc = {
        "elements": [{"id": x, "dim": dim_of[x]} for x in order],
        "faces": {
            x: {
                MINUS: sorted(faces_in[x]),
                PLUS: sorted(faces_out[x]),
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
    p = poset_of(shape)
    order = _order(p)
    dim_of = p.dim_of
    lines = ["digraph shape {"]
    for x in order:
        lines.append(f'  "{x}" [label="{x}:{dim_of[x]}"];')
    edges = []
    for x in order:
        if dim_of[x] == 0:
            continue
        for faces, color in ((p.faces_in, "crimson"), (p.faces_out, "navy")):
            for f in sorted(faces[x]):
                edges.append(f'  "{f}" -> "{x}" [color={color}];')
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
