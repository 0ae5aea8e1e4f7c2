"""Deterministic JSON and DOT serialization for shapes.

Element order is (dimension, label) everywhere, so equal shapes render to
identical bytes.  Both formats read the id storage (dims, fin, fout) and
decode each id to its label as they print it.  A shape's JSON document is
written in one pass by shape_json_bytes, with the bytes of
json.dumps(doc, indent=2, sort_keys=True); poset_to_dict parses those
bytes back.  Other documents go through to_json_bytes, whose _indented
lays out strings, ints and non-empty containers itself.  Both escape
strings with the C escaper json uses, since with indent set json.dumps
runs its pure-Python encoder.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from .marked import MarkedMap, MarkedShape
from .molecule import Molecule, poset_of
from .poset import bits

_STR = {str}


def _by_label(p) -> list:
    """The ids in label order, read from sid_ranks()."""
    by_label = [0] * len(p.dims)
    for i, r in enumerate(p.sid_ranks()):
        by_label[r] = i
    return by_label


def _order(p) -> list:
    """The ids in (dimension, label) order."""
    # stable: label order within a dimension
    return sorted(_by_label(p), key=p.dims.__getitem__)


def _face_row(mask: int, rank: list, quoted: list) -> str:
    """The escaped labels of a face mask in label order, as the list
    json.dumps writes at the depth of a face row."""
    if not mask:
        return "[]"
    row = sorted([rank[j] for j in bits(mask)])
    return "[\n        %s\n      ]" % ",\n        ".join([quoted[r] for r in row])


def shape_json_bytes(shape, extra=None) -> bytes:
    """The bytes of json.dumps({**poset_to_dict(shape), **extra}, indent=2,
    sort_keys=True) + "\n", written from dims, fin, fout and labels: each
    label is escaped once, each element is one %-format, and face rows are
    ordered by label rank, since escaped strings sort differently from
    the labels they escape.  extra's keys are strings."""
    p = poset_of(shape)
    dims, fin, fout, labels = p.dims, p.fin, p.fout, p.labels
    rank = p.sid_ranks()
    by_label = _by_label(p)
    quoted = [_quote(labels[i]) for i in by_label]  # indexed by rank
    elements = ",\n    ".join([
        '{\n      "dim": %d,\n      "id": %s\n    }' % (dims[i], quoted[rank[i]])
        for i in sorted(by_label, key=dims.__getitem__)  # stable: (dim, label)
    ])
    faces = ",\n    ".join([
        '%s: {\n      "+": %s,\n      "-": %s\n    }'
        % (quoted[rank[i]], _face_row(fout[i], rank, quoted), _face_row(fin[i], rank, quoted))
        for i in by_label
        if dims[i] > 0
    ])
    chunks = {
        "elements": "[\n    " + elements + "\n  ]" if elements else "[]",
        "faces": "{\n    " + faces + "\n  }" if faces else "{}",
    }
    if isinstance(shape, Molecule):
        chunks["certificate"] = _indented(shape.certificate, "  ")
    if isinstance(shape, MarkedShape):
        chunks["marked"] = _indented(p.sids(shape.marking), "  ")
    if extra:
        for key, value in extra.items():
            chunks[key] = _indented(value, "  ")
    body = ",\n  ".join([_quote(k) + ": " + chunks[k] for k in sorted(chunks)])
    return ("{\n  " + body + "\n}\n").encode()


def poset_to_dict(shape) -> dict:
    """The shape's JSON document as a dict; shape_json_bytes lays it out."""
    return json.loads(shape_json_bytes(shape))


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
        return shape_json_bytes(shape)
    if fmt == "dot":
        return to_dot_bytes(shape)
    raise ValueError(f"unknown format {fmt!r}")
