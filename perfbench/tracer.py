"""Spans around calls into ogpkit's layers, recorded from outside the
package.

Tracer.install() wraps each function in TARGETS and rebinds every
reference to the original object in every loaded ogpkit.* module, since
modules bind functions with `from .poset import find_iso`.  Lazy imports
inside function bodies read the defining module's attribute, which is
rebound too.  Methods are replaced on their class.

Each call becomes one span: name, start, end, parent span and a flag byte
(see the FLAG_* constants).  Spans are kept in flat arrays in memory and
written out by write(); aggregate() turns a written file into per-function
calls, self time and total time.  The repeat check of REPEAT_KEYED calls
hashes their argument posets; it is recorded as a KEY_SPAN child of the
enclosing span, so that its cost is charged to no function's self time.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (module, attribute, span name); "Class.method" attributes live on a class.
TARGETS = (
    ("poset", "OgPoset.__post_init__", "poset.OgPoset"),
    ("poset", "OgPoset.restrict", "poset.restrict"),
    ("poset", "OgPoset.closure", "poset.closure"),
    ("poset", "OgPoset.boundary_set", "poset.boundary_set"),
    ("poset", "build", "poset.build"),
    ("poset", "find_iso", "poset.find_iso"),
    ("poset", "all_isos", "poset.all_isos"),
    ("poset", "iso_invariant", "poset.iso_invariant"),
    ("molecule", "paste", "molecule.paste"),
    ("molecule", "paste_at", "molecule.paste_at"),
    ("molecule", "atom", "molecule.atom"),
    ("molecule", "reconstruct", "molecule.reconstruct"),
    ("molecule", "find_derivation", "molecule.find_derivation"),
    ("molecule", "recognise_generalised_pasting", "molecule.recognise_generalised_pasting"),
    ("gray", "gray_poset", "gray.gray_poset"),
    ("gray", "gray", "gray.gray"),
    ("gray", "gray_boundary_decomposition", "gray.gray_boundary_decomposition"),
    ("gray", "op_swap_iso", "gray.op_swap_iso"),
    ("marked", "pushout_product", "marked.pushout_product"),
    ("marked", "residual", "marked.residual"),
    ("marked", "generators", "marked.generators"),
    ("contexts", "atomic_horn", "contexts.atomic_horn"),
    ("contexts", "marked_horn", "contexts.marked_horn"),
    ("contexts", "is_a_context", "contexts.is_a_context"),
    ("contexts", "pp_horn", "contexts.pp_horn"),
    ("contexts", "pp_marked_horn", "contexts.pp_marked_horn"),
    ("cylinder", "gray_cylinder", "cylinder.gray_cylinder"),
    ("cylinder", "inverted_cylinder", "cylinder.inverted_cylinder"),
    ("cylinder", "invertor_shape", "cylinder.invertor_shape"),
    ("cylinder", "unit_shape", "cylinder.unit_shape"),
    ("harness", "enumerate_catalog", "harness.enumerate_catalog"),
    ("harness", "check", "harness.check"),
    ("exprlang", "eval_text", "exprlang.eval_text"),
    ("render", "poset_to_dict", "render.poset_to_dict"),
    ("render", "to_json_bytes", "render.to_json_bytes"),
    ("render", "render", "render.render"),
    ("cli", "main", "cli.main"),
)

FLAG_OUTER = 1      # no enclosing span has the same name
FLAG_VALUE = 2      # returned something other than None
FLAG_RAISED = 4     # raised an exception
FLAG_BOUND = 8      # raised BoundExceeded
FLAG_REPEAT = 16    # same argument posets as an earlier call in this pass

# Calls whose repeat rate is recorded, and how many leading posets key them.
REPEAT_KEYED = {"molecule.reconstruct": 1, "gray.gray_poset": 2}
KEY_SPAN = "tracer.repeat_key"


def poset_key(p):
    return (frozenset(p.dim_of.items()),
            frozenset((x, p.faces_in[x], p.faces_out[x]) for x in p.dim_of))


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name_ids: dict = {}
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.flags = array("B")
        self.stack = [-1]
        self.active: dict = {}
        self.seen: dict = {name: set() for name in REPEAT_KEYED}
        self.annotations: dict = {}   # span index -> lemma instances
        self._name_id(KEY_SPAN)

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.active[name] = 0
        return self.name_ids[name]

    def _key_span(self, name, args):
        """Whether args repeat an earlier call's posets.  Keying is a span
        of its own, KEY_SPAN, so its time counts in no function's self
        time."""
        t0 = time.perf_counter()
        key = tuple(poset_key(p) for p in args[:REPEAT_KEYED[name]])
        repeat = key in self.seen[name]
        self.seen[name].add(key)
        self.name_of.append(self.name_ids[KEY_SPAN])
        self.parent.append(self.stack[-1])
        self.start.append(t0)
        self.end.append(time.perf_counter())
        self.flags.append(0)
        return repeat

    def _span(self, name, fn, args, kwargs):
        flags = 0 if self.active[name] else FLAG_OUTER
        if name in REPEAT_KEYED and self._key_span(name, args):
            flags |= FLAG_REPEAT
        i = len(self.start)
        self.name_of.append(self.name_ids[name])
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.flags.append(0)
        self.active[name] += 1
        self.stack.append(i)
        self.start[i] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            flags |= FLAG_RAISED
            if type(exc).__name__ == "BoundExceeded":
                flags |= FLAG_BOUND
            raise
        else:
            if result is not None:
                flags |= FLAG_VALUE
            if name.startswith("harness.") and hasattr(result, "instances"):
                self.annotations[i] = result.instances
            return result
        finally:
            self.end[i] = time.perf_counter()
            self.stack.pop()
            self.active[name] -= 1
            self.flags[i] = flags

    def _wrap(self, fn, name):
        self._name_id(name)
        span = self._span

        if name == "harness.check":
            # one span per lemma, named after the lemma id argument
            def wrapper(lemma_id, *args, **kwargs):
                lemma = f"harness.{lemma_id}"
                self._name_id(lemma)
                return span(lemma, fn, (lemma_id,) + args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return span(name, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        import importlib

        modules = {m: importlib.import_module(f"ogpkit.{m}")
                   for m in {t[0] for t in TARGETS}}
        loaded = [m for n, m in sys.modules.items()
                  if (n == "ogpkit" or n.startswith("ogpkit.")) and m is not None]
        for module_name, attr, name in TARGETS:
            owner = modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, attr, self._wrap(getattr(cls, attr), name))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name)
            for module in loaded:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, wrapped)

    def write(self, path):
        """Spans as five flat arrays, then the names and annotations."""
        with open(path, "wb") as fh:
            header = {
                "count": len(self.start),
                "names": self.names,
                "annotations": {str(k): v for k, v in self.annotations.items()},
            }
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.start, self.end, self.flags):
                arr.tofile(fh)


def read(path):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        arrays = []
        for code in ("H", "i", "d", "d", "B"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return header, arrays


def aggregate(path):
    """Per span name: calls, self_s, total_s (outermost spans only), and
    counts of each flag; plus lemma instances per harness span name."""
    header, (name_of, parent, start, end, flags) = read(path)
    n = header["count"]
    names = header["names"]
    dur = [end[i] - start[i] for i in range(n)]
    covered = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            covered[p] += dur[i]
    stats = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "value": 0,
                    "raised": 0, "bound": 0, "repeat": 0, "instances": 0}
             for name in names}
    for i in range(n):
        s = stats[names[name_of[i]]]
        f = flags[i]
        s["calls"] += 1
        s["self_s"] += dur[i] - covered[i]
        if f & FLAG_OUTER:
            s["total_s"] += dur[i]
        s["value"] += bool(f & FLAG_VALUE)
        s["raised"] += bool(f & FLAG_RAISED)
        s["bound"] += bool(f & FLAG_BOUND)
        s["repeat"] += bool(f & FLAG_REPEAT)
    for i, instances in header["annotations"].items():
        stats[names[name_of[int(i)]]]["instances"] += instances
    return stats
