"""Finite oriented graded posets: storage, validation, order queries,
duals, and isomorphism search.

An oriented graded poset assigns each element a dimension and, in positive
dimension, two disjoint nonempty sets of input and output faces one
dimension below.  Only the regular class is hosted here: validation rejects
empty face sides, so every constructor downstream stays inside regular
directed complexes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BadGrading, DanglingFace, EmptySide, Overlap, UnknownElement
from .ids import sid

MINUS = "-"
PLUS = "+"
SIGNS = (MINUS, PLUS)


def flip(sign: str) -> str:
    return PLUS if sign == MINUS else MINUS


@dataclass(eq=False)
class OgPoset:
    """Validated oriented graded poset.  Treat as immutable after build."""

    dim_of: dict
    faces_in: dict
    faces_out: dict
    # derived, filled in by __post_init__
    cofaces_in: dict = field(default_factory=dict, repr=False)
    cofaces_out: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        cin = {x: set() for x in self.dim_of}
        cout = {x: set() for x in self.dim_of}
        for x in self.dim_of:
            for y in self.faces_in.get(x, ()):
                cin[y].add(x)
            for y in self.faces_out.get(x, ()):
                cout[y].add(x)
        self.cofaces_in = {x: frozenset(s) for x, s in cin.items()}
        self.cofaces_out = {x: frozenset(s) for x, s in cout.items()}
        self.dim = max(self.dim_of.values(), default=-1)  # -1 for the empty poset
        self._order = None
        self._bd_memo = {}
        self._maximal = None

    # -- basic queries ---------------------------------------------------

    @property
    def elements(self):
        """All elements in (dimension, sid) order, sorted on first read."""
        if self._order is None:
            self._order = tuple(sorted(self.dim_of, key=lambda x: (self.dim_of[x], sid(x))))
        return self._order

    def __len__(self):
        return len(self.dim_of)

    def __contains__(self, x):
        return x in self.dim_of

    def __eq__(self, other):
        if not isinstance(other, OgPoset):
            return NotImplemented
        return (
            self.dim_of == other.dim_of
            and self.faces_in == other.faces_in
            and self.faces_out == other.faces_out
        )

    def grade(self, n: int) -> frozenset:
        return frozenset(x for x, d in self.dim_of.items() if d == n)

    def faces(self, x, sign: str) -> frozenset:
        self._check(x)
        return self.faces_in[x] if sign == MINUS else self.faces_out[x]

    def all_faces(self, x) -> frozenset:
        self._check(x)
        return self.faces_in[x] | self.faces_out[x]

    def cofaces(self, x, sign: str) -> frozenset:
        """Elements having x among their faces of the given sign."""
        self._check(x)
        return self.cofaces_in[x] if sign == MINUS else self.cofaces_out[x]

    def maximal_elements(self) -> frozenset:
        if self._maximal is None:
            self._maximal = frozenset(
                x for x in self.dim_of
                if not self.cofaces_in[x] and not self.cofaces_out[x]
            )
        return self._maximal

    def closure(self, subset) -> frozenset:
        """Smallest downward-closed set containing the given elements."""
        stack = list(subset)
        for x in stack:
            self._check(x)
        seen = set(stack)
        faces_in, faces_out = self.faces_in, self.faces_out
        while stack:
            x = stack.pop()
            for faces in (faces_in[x], faces_out[x]):
                for y in faces:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
        return frozenset(seen)

    def is_closed(self, subset) -> bool:
        subset = set(subset)
        for x in subset:
            self._check(x)
        faces_in, faces_out = self.faces_in, self.faces_out
        return all(faces_in[x] <= subset and faces_out[x] <= subset for x in subset)

    def _check(self, x):
        if x not in self.dim_of:
            raise UnknownElement(f"unknown element {sid(x) if not isinstance(x, str) else x!r}")

    # -- boundaries ------------------------------------------------------

    def boundary_set(self, n: int, sign: str) -> frozenset:
        """Element set of the n-dimensional input or output boundary.

        The n-boundary is the closure of the n-elements with no cofaces of
        the opposite sign, together with the closures of all maximal
        elements of dimension below n.  For n >= dim it is the whole poset,
        for n < 0 it is empty.
        """
        if n < 0:
            return frozenset()
        if n >= self.dim:
            return frozenset(self.dim_of)
        key = (n, sign)
        if key not in self._bd_memo:
            opposite = self.cofaces_out if sign == MINUS else self.cofaces_in
            generators = {x for x, d in self.dim_of.items() if d == n and not opposite[x]}
            generators |= {x for x in self.maximal_elements() if self.dim_of[x] < n}
            self._bd_memo[key] = self.closure(generators)
        return self._bd_memo[key]

    def full_boundary_set(self) -> frozenset:
        """Union of input and output boundaries one level below the top."""
        n = self.dim - 1
        return self.boundary_set(n, MINUS) | self.boundary_set(n, PLUS)

    def restrict(self, subset) -> "OgPoset":
        """Sub-poset on a closed subset, ids preserved."""
        subset = frozenset(subset)
        if not self.is_closed(subset):
            raise UnknownElement("subset is not closed")
        return OgPoset(
            {x: self.dim_of[x] for x in subset},
            {x: self.faces_in[x] for x in subset},
            {x: self.faces_out[x] for x in subset},
        )

    # -- duals -----------------------------------------------------------

    def dual(self, dims) -> "OgPoset":
        """Swap input and output faces of elements whose dimension is in dims."""
        dims = frozenset(dims)
        fin, fout = {}, {}
        for x, d in self.dim_of.items():
            if d in dims:
                fin[x] = self.faces_out[x]
                fout[x] = self.faces_in[x]
            else:
                fin[x] = self.faces_in[x]
                fout[x] = self.faces_out[x]
        return OgPoset(dict(self.dim_of), fin, fout)

    def op(self) -> "OgPoset":
        """Dual at every odd dimension."""
        return self.dual(range(1, self.dim + 1, 2)) if self.dim >= 1 else self.dual(())


def build(elements, faces) -> OgPoset:
    """Validate raw data into an OgPoset.

    elements maps id -> dimension; faces maps id -> (input ids, output ids)
    for every element of positive dimension.
    """
    dim_of = dict(elements)
    for x, d in dim_of.items():
        if d < 0:
            raise BadGrading(f"negative dimension for {sid(x)}")
    faces_in, faces_out = {}, {}
    for x, d in dim_of.items():
        if d == 0:
            fin, fout = frozenset(), frozenset()
            if x in faces and (faces[x][0] or faces[x][1]):
                raise BadGrading(f"0-dimensional element {sid(x)} with faces")
        else:
            if x not in faces:
                raise EmptySide(f"no faces given for {sid(x)}")
            fin, fout = frozenset(faces[x][0]), frozenset(faces[x][1])
            if not fin or not fout:
                raise EmptySide(f"empty face side on {sid(x)}")
            if fin & fout:
                raise Overlap(f"input and output faces of {sid(x)} overlap")
            for y in fin | fout:
                if y not in dim_of:
                    raise DanglingFace(f"face {sid(y)} of {sid(x)} is unknown")
                if dim_of[y] != d - 1:
                    raise BadGrading(
                        f"face {sid(y)} of {sid(x)} has dimension {dim_of[y]}, expected {d - 1}"
                    )
        faces_in[x] = fin
        faces_out[x] = fout
    return OgPoset(dim_of, faces_in, faces_out)


EMPTY = build({}, {})


# -- isomorphism search ---------------------------------------------------


@dataclass
class Iso:
    """Dimension- and orientation-preserving bijection between two posets."""

    source: OgPoset
    target: OgPoset
    mapping: dict

    def inverse(self) -> "Iso":
        return Iso(self.target, self.source, {v: k for k, v in self.mapping.items()})

    def __getitem__(self, x):
        return self.mapping[x]

    def is_identity(self) -> bool:
        return all(k == v for k, v in self.mapping.items())


def _signature(p: OgPoset):
    """Per-element invariant used to prune the backtracking search.

    One refinement round over the face/coface neighbourhood; enough to cut
    the candidate sets down to near-singletons on the shapes we meet.
    """
    base = {
        x: (
            p.dim_of[x],
            len(p.faces_in[x]),
            len(p.faces_out[x]),
            len(p.cofaces_in[x]),
            len(p.cofaces_out[x]),
        )
        for x in p.dim_of
    }
    refined = {}
    for x in p.dim_of:
        refined[x] = (
            base[x],
            tuple(sorted(base[y] for y in p.faces_in[x])),
            tuple(sorted(base[y] for y in p.faces_out[x])),
            tuple(sorted(base[y] for y in p.cofaces_in[x])),
            tuple(sorted(base[y] for y in p.cofaces_out[x])),
        )
    return refined


def _iso_search(p: OgPoset, q: OgPoset, first_only: bool):
    if len(p) != len(q):
        return []
    sig_p, sig_q = _signature(p), _signature(q)
    by_sig = {}
    for y in q.dim_of:
        by_sig.setdefault(sig_q[y], []).append(y)
    for bucket in by_sig.values():
        bucket.sort(key=sid)
    counts_p = {}
    for x in p.dim_of:
        counts_p[sig_p[x]] = counts_p.get(sig_p[x], 0) + 1
    if any(counts_p.get(s, 0) != len(b) for s, b in by_sig.items()) or any(
        s not in by_sig for s in counts_p
    ):
        return []

    # order: dimension descending, then rarest signature first
    todo = sorted(
        p.dim_of,
        key=lambda x: (-p.dim_of[x], len(by_sig[sig_p[x]]), sid(x)),
    )
    mapping, used, found = {}, set(), []

    def consistent(x, y):
        for s in SIGNS:
            fy = q.faces(y, s)
            for f in p.faces(x, s):
                if f in mapping and mapping[f] not in fy:
                    return False
            cy = q.cofaces(y, s)
            for c in p.cofaces(x, s):
                if c in mapping and mapping[c] not in cy:
                    return False
        return True

    def verify():
        for x in p.dim_of:
            for s in SIGNS:
                if {mapping[f] for f in p.faces(x, s)} != set(q.faces(mapping[x], s)):
                    return False
        return True

    def backtrack(i):
        if i == len(todo):
            if verify():
                found.append(Iso(p, q, dict(mapping)))
                return first_only
            return False
        x = todo[i]
        for y in by_sig[sig_p[x]]:
            if y in used:
                continue
            if not consistent(x, y):
                continue
            mapping[x] = y
            used.add(y)
            if backtrack(i + 1):
                return True
            del mapping[x]
            used.discard(y)
        return False

    backtrack(0)
    return found


def find_iso(p: OgPoset, q: OgPoset):
    """First orientation-preserving isomorphism in search order, or None."""
    result = _iso_search(p, q, first_only=True)
    return result[0] if result else None


def all_isos(p: OgPoset, q: OgPoset):
    """Every orientation-preserving isomorphism, in deterministic order."""
    return _iso_search(p, q, first_only=False)


def is_isomorphic(p: OgPoset, q: OgPoset) -> bool:
    return find_iso(p, q) is not None


def iso_invariant(p: OgPoset):
    """Cheap catalog-dedup prefilter: equal for isomorphic posets."""
    return tuple(sorted(_signature(p).values()))
