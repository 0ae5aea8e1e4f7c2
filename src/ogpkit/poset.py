"""Finite oriented graded posets: storage, validation, order queries,
duals, and isomorphism search.

An oriented graded poset assigns each element a dimension and, in positive
dimension, two disjoint nonempty sets of input and output faces one
dimension below.  Only the regular class is hosted here: validation rejects
empty face sides, so every constructor downstream stays inside regular
directed complexes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadGrading, DanglingFace, EmptySide, Overlap, UnknownElement
from .ids import sid

MINUS = "-"
PLUS = "+"
SIGNS = (MINUS, PLUS)


def flip(sign: str) -> str:
    return PLUS if sign == MINUS else MINUS


@dataclass(eq=False)
class OgPoset:
    """Validated oriented graded poset.  Treat as immutable after build.

    The coface dicts cofaces_in and cofaces_out are derived from the face
    dicts on their first read and kept, so a poset that is only built,
    compared or dualised never inverts its faces.

    Boundaries are memoised in _bd_memo, keyed by (closed subset, n,
    sign): sub_boundary_set answers every closed subset, and boundary_set
    is its case for the whole carrier.  The closure of a single element is
    memoised in _closures.  Both are functions of the poset alone.
    """

    dim_of: dict
    faces_in: dict
    faces_out: dict

    def __post_init__(self):
        self.dim = max(self.dim_of.values(), default=-1)  # -1 for the empty poset
        self._order = None
        self._element_set = None
        self._cofaces = None
        self._bd_memo = {}
        self._closures = {}
        self._maximal = None
        self._colours = None
        self._form = None

    def _coface_dicts(self) -> tuple:
        """(cofaces_in, cofaces_out), inverted from the faces on first read."""
        if self._cofaces is None:
            cin = {x: set() for x in self.dim_of}
            cout = {x: set() for x in self.dim_of}
            for x in self.dim_of:
                for y in self.faces_in.get(x, ()):
                    cin[y].add(x)
                for y in self.faces_out.get(x, ()):
                    cout[y].add(x)
            self._cofaces = ({x: frozenset(s) for x, s in cin.items()},
                             {x: frozenset(s) for x, s in cout.items()})
        return self._cofaces

    @property
    def cofaces_in(self) -> dict:
        return self._coface_dicts()[0]

    @property
    def cofaces_out(self) -> dict:
        return self._coface_dicts()[1]

    # -- basic queries ---------------------------------------------------

    @property
    def elements(self):
        """All elements in (dimension, sid) order, sorted on first read."""
        if self._order is None:
            self._order = tuple(sorted(self.dim_of, key=lambda x: (self.dim_of[x], sid(x))))
        return self._order

    @property
    def element_set(self) -> frozenset:
        """All elements as one frozenset, made on first read and kept."""
        if self._element_set is None:
            self._element_set = frozenset(self.dim_of)
        return self._element_set

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
        return self._coface_dicts()[0 if sign == MINUS else 1][x]

    def maximal_elements(self) -> frozenset:
        if self._maximal is None:
            cin, cout = self._coface_dicts()
            self._maximal = frozenset(x for x in self.dim_of if not cin[x] and not cout[x])
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

    def element_closure(self, x) -> frozenset:
        """closure({x}), memoised per element."""
        cl = self._closures.get(x)
        if cl is None:
            cl = self._closures[x] = self.closure((x,))
        return cl

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
        return self.sub_boundary_set(self.element_set, n, sign)

    # -- closed subsets, read from this poset's dicts ---------------------
    #
    # Each equals the same query on self.restrict(subset), for a closed
    # subset, without building the sub-poset.

    def sub_dim(self, subset) -> int:
        if len(subset) == len(self.dim_of):
            return self.dim
        dim_of = self.dim_of
        return max((dim_of[x] for x in subset), default=-1)

    def sub_maximal(self, subset: frozenset) -> frozenset:
        cin, cout = self._coface_dicts()
        return frozenset(x for x in subset
                         if subset.isdisjoint(cin[x]) and subset.isdisjoint(cout[x]))

    def sub_boundary_set(self, subset: frozenset, n: int, sign: str) -> frozenset:
        """boundary_set(n, sign) of the sub-poset on subset, a closed
        frozenset, memoised per (subset, n, sign)."""
        if n < 0:
            return frozenset()
        key = (subset, n, sign)
        bd = self._bd_memo.get(key)
        if bd is None:
            if n >= self.sub_dim(subset):
                bd = subset
            else:
                bd = self._boundary_below_top(subset, n, sign)
            self._bd_memo[key] = bd
        return bd

    def _boundary_below_top(self, subset: frozenset, n: int, sign: str) -> frozenset:
        """The boundary formula on a closed subset, for 0 <= n below the
        subset's dimension."""
        dim_of = self.dim_of
        cin, cout = self._coface_dicts()
        opposite = cout if sign == MINUS else cin
        generators = []
        for x in subset:
            d = dim_of[x]
            if d == n:
                if subset.isdisjoint(opposite[x]):
                    generators.append(x)
            elif d < n and subset.isdisjoint(cin[x]) and subset.isdisjoint(cout[x]):
                generators.append(x)
        return self.closure(generators)

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


def embedding_defect(p: OgPoset, q: OgPoset, mapping: dict) -> str | None:
    """Why mapping is not an embedding of p into q, or None if it is.

    An embedding is total on p, injective, and preserves dimension and
    both face sides of every element.  Reads the face dicts directly.
    """
    if mapping.keys() != p.dim_of.keys():
        return "map must be total"
    if len(set(mapping.values())) != len(mapping):
        return "map must be injective"
    for x, y in mapping.items():
        if y not in q.dim_of or p.dim_of[x] != q.dim_of[y]:
            return f"map must preserve dimension at {sid(x)}"
        for faces_p, faces_q in ((p.faces_in, q.faces_in), (p.faces_out, q.faces_out)):
            if {mapping[f] for f in faces_p[x]} != faces_q[y]:
                return f"map must preserve faces at {sid(x)}"
    return None


def _rank(signature: dict):
    """Colour of each element: the rank of its signature; and the count."""
    order = {s: i for i, s in enumerate(sorted(set(signature.values())))}
    return {x: order[s] for x, s in signature.items()}, len(order)


def _colours(p: OgPoset):
    """Stable colouring by iterated colour refinement, memoised on p.

    Returns (colour of each element, number of colours).  The first colour
    of an element ranks its dimension and face and coface counts; each
    round ranks its colour together with the sorted colours of its input
    faces, output faces, input cofaces and output cofaces (one sorted run,
    each colour tagged by its relation), until the number of colours stops
    growing.  Ranks depend only on the structure, so every isomorphism
    maps each element to one of the same colour.  An element alone in its
    colour stays alone, so its neighbours are not read again, and
    refinement stops as soon as every element has its own colour.
    """
    if p._colours is None:
        fin, fout = p.faces_in, p.faces_out
        cin, cout = p._coface_dicts()
        colour, count = _rank({
            x: (d, len(fin[x]), len(fout[x]), len(cin[x]), len(cout[x]))
            for x, d in p.dim_of.items()
        })
        while count < len(colour):
            sizes = [0] * count
            for c in colour.values():
                sizes[c] += 1
            signature = {}
            for x, c in colour.items():
                if sizes[c] == 1:
                    signature[x] = (c,)
                    continue
                # neighbour colours tagged by relation, in one sorted run
                near = [4 * colour[y] for y in fin[x]]
                near += [4 * colour[y] + 1 for y in fout[x]]
                near += [4 * colour[y] + 2 for y in cin[x]]
                near += [4 * colour[y] + 3 for y in cout[x]]
                near.sort()
                signature[x] = (c, *near)
            colour, refined = _rank(signature)
            if refined == count:
                break
            count = refined
        p._colours = colour, count
    return p._colours


def _colour_form(p: OgPoset) -> tuple:
    """The poset written in its stable colours, memoised on p: per
    element, its colour, dimension and sorted input and output face
    colours, sorted.  Equal for isomorphic posets."""
    if p._form is None:
        colour = _colours(p)[0]
        p._form = tuple(sorted(
            (c, p.dim_of[x],
             tuple(sorted([colour[y] for y in p.faces_in[x]])),
             tuple(sorted([colour[y] for y in p.faces_out[x]])))
            for x, c in colour.items()
        ))
    return p._form


def canonical_key(p: OgPoset):
    """Complete isomorphism invariant, or None.

    When every element has its own stable colour, the colour form
    determines the poset up to isomorphism: equal keys mean isomorphic
    posets.  Otherwise there is no key.
    """
    colour, count = _colours(p)
    return _colour_form(p) if count == len(colour) else None


def _iso_search(p: OgPoset, q: OgPoset, first_only: bool):
    if len(p) != len(q):
        return []
    colour_p, count_p = _colours(p)
    colour_q, count_q = _colours(q)
    if count_p != count_q:
        return []
    if count_p == len(p):
        # Discrete colourings: every isomorphism preserves colours, so the
        # colour-matching bijection is the only candidate, and p has no
        # automorphism but the identity.
        of_colour = {c: y for y, c in colour_q.items()}
        mapping = {x: of_colour[c] for x, c in colour_p.items()}
        return [Iso(p, q, mapping)] if embedding_defect(p, q, mapping) is None else []
    if _colour_form(p) != _colour_form(q):
        return []

    # backtracking over the stable colour classes
    bucket = {}
    for y in q.dim_of:
        bucket.setdefault(colour_q[y], []).append(y)
    for ys in bucket.values():
        ys.sort(key=sid)
    # order: dimension descending, then rarest colour first
    todo = sorted(
        p.dim_of,
        key=lambda x: (-p.dim_of[x], len(bucket[colour_p[x]]), sid(x)),
    )
    neighbours_p = (p.faces_in, p.faces_out, *p._coface_dicts())
    neighbours_q = (q.faces_in, q.faces_out, *q._coface_dicts())
    mapping, used, found = {}, set(), []

    def consistent(x, y):
        for near_p, near_q in zip(neighbours_p, neighbours_q):
            near_y = near_q[y]
            for f in near_p[x]:
                if f in mapping and mapping[f] not in near_y:
                    return False
        return True

    def backtrack(i):
        if i == len(todo):
            if embedding_defect(p, q, mapping) is None:
                found.append(Iso(p, q, dict(mapping)))
                return first_only
            return False
        x = todo[i]
        for y in bucket[colour_p[x]]:
            if y in used or not consistent(x, y):
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
    """Catalog-dedup prefilter, equal for isomorphic posets: the stable
    colour form, which equals canonical_key(p) whenever that key exists."""
    return _colour_form(p)
