"""Deterministic JSON and DOT serialization for shapes.

Element order is (dimension, label) everywhere, so equal shapes render to
identical bytes.  Both formats read the id storage (dims, fin, fout) and
decode each id to its label as they print it.  The JSON bytes are those of
json.dumps(doc, indent=2, sort_keys=True): _indented lays out strings,
ints and non-empty containers itself, escaping strings with the C escaper
json uses, since with indent set json.dumps runs its pure-Python encoder.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from .marked import MarkedMap, MarkedShape
from .molecule import Molecule, poset_of
from .poset import MINUS, PLUS, bits

_STR = {str}


def _order(p) -> list:
    """The ids in (dimension, label) order."""
    order = sorted(range(len(p.dims)), key=p.labels.__getitem__)
    order.sort(key=p.dims.__getitem__)  # stable: label order within a dimension
    return order


def poset_to_dict(shape) -> dict:
    p = poset_of(shape)
    dims, labels = p.dims, p.labels
    order = _order(p)
    doc = {
        "elements": [{"id": labels[i], "dim": dims[i]} for i in order],
        "faces": {
            labels[i]: {
                MINUS: sorted([labels[j] for j in bits(p.fin[i])]),
                PLUS: sorted([labels[j] for j in bits(p.fout[i])]),
            }
            for i in order
            if dims[i] > 0
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


def _indented(obj, pad: str) -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True) writes it, with
    every line after the first indented by pad.  Anything but a string,
    an int, or a non-empty list, tuple or str-keyed dict of exact type
    goes to json.dumps itself."""
    t = type(obj)
    if t is str:
        return _quote(obj)
    if t is int:
        return int.__repr__(obj)
    inner = pad + "  "
    if t is dict and obj and set(map(type, obj)) == _STR:
        # keys are distinct, so sorting the items compares keys only
        items = [_quote(k) + ": " + _indented(v, inner) for k, v in sorted(obj.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if (t is list or t is tuple) and obj:
        if set(map(type, obj)) == _STR:
            items = map(_quote, obj)
        else:
            items = [_indented(x, inner) for x in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def to_json_bytes(doc) -> bytes:
    return (_indented(doc, "") + "\n").encode()


def to_dot_bytes(shape) -> bytes:
    p = poset_of(shape)
    dims, labels = p.dims, p.labels
    lines = ["digraph shape {"]
    lines += [f'  "{labels[i]}" [label="{labels[i]}:{dims[i]}"];' for i in _order(p)]
    edges = []
    for faces, color in ((p.fin, "crimson"), (p.fout, "navy")):
        for x, m in zip(labels, faces):
            edges += [f'  "{labels[j]}" -> "{x}" [color={color}];' for j in bits(m)]
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
