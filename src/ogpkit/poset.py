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

from .errors import BadGrading, DanglingFace, DuplicateLabel, EmptySide, Overlap, UnknownElement

MINUS = "-"
PLUS = "+"
SIGNS = (MINUS, PLUS)


def flip(sign: str) -> str:
    return PLUS if sign == MINUS else MINUS


def bits(m: int) -> list:
    """Positions of the set bits of m, ascending.

    map_mask, spread, coface_masks, closure_masks and _boundary_below_top
    run this loop inline: they run once per face mask, factor boundary or
    boundary grade, and a call per mask made verify-products 6% and
    catalog-d3 9% slower (BENCH_int_core.json, "bit_listing")."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def spread(m: int, stride: int) -> int:
    """m with bit i moved to bit i * stride.  Times a mask of fewer than
    stride bits, it gives the grid of pairs: spread(a, s) * b has bit
    i * s + j for every bit i of a and j of b."""
    out = 0
    while m:
        low = m & -m
        out |= 1 << ((low.bit_length() - 1) * stride)
        m ^= low
    return out


def _unknown(x) -> UnknownElement:
    return UnknownElement(f"unknown element {x!r}")


def map_mask(m: int, image: list) -> int:
    """The mask of image[i] over the bits i of m; -1 if some image[i] is
    -1 (no image)."""
    out = 0
    while m:
        low = m & -m
        j = image[low.bit_length() - 1]
        if j < 0:
            return -1
        out |= 1 << j
        m ^= low
    return out


def preimage(m: int, image: list) -> int:
    """The mask of the ids i whose image[i] is a bit of m: a mask carried
    back along an id image."""
    out = 0
    for i, j in enumerate(image):
        if j >= 0 and m >> j & 1:
            out |= 1 << i
    return out


@dataclass(eq=False)
class OgPoset:
    """Validated oriented graded poset.  Treat as immutable after build.

    Storage.  The elements are the ids 0..n-1, in construction order.
    dims[i] is the dimension of id i, and fin[i] and fout[i] are the masks
    of its input and output faces: bit k is set when id k is such a face.
    A set of elements is a mask in the same way.  closure_mask,
    is_closed_mask, dim_mask, maximal_mask, boundary_mask and
    restrict_mask are integer operations, as are dual, the stable
    colouring and the isomorphism search.  The coface
    masks, the per-dimension masks, the closure mask of each element, the
    mask of the maximal elements and the per-dimension unions of the face
    masks are derived on their first read and kept, so a poset that is
    only built, compared or dualised never inverts its faces.
    boundary_mask is memoised per (closed mask, n, sign).  A boundary read
    takes only the per-dimension masks and face unions (for a proper
    sub-mask, gathered over the grades of the mask that the read needs)
    and one pass down the faces of the boundary: it builds no coface or
    closure table.

    Maps.  A map from p to q is an id image: a list holding, for each id
    i of p, the id in q of its image (-1 where a partial map, such as a
    pushout's glue, has none).  find_iso and all_isos return isomorphisms
    in this form, and each cylinder records its collapse onto its base as
    one (cylinder.collapse_defect checks them).  Boundaries and
    pushouts record masks instead: a boundary sub-poset's ids are the bits
    of its mask in order, and molecule.paste_at takes its hole as a mask.
    map_mask carries a mask forward along an image, and preimage carries
    it back; molecule.paste_along validates each glue it is given.  A map
    is decoded to labels only at the edges: certificates, CLI output and
    failure reports.

    Labels.  labels[i] is the label of element i: the string that
    reports print, built by the functions of ids, and compared, sorted
    and matched as written, never parsed.  Labels made from a
    constructor's inputs are checked distinct when first read, and a
    repeat raises DuplicateLabel; build()'s labels are distinct dict
    keys.  index maps labels back to ids; encode, decode and sids convert
    masks at the edges, where reports, certificates, render and the CLI
    print labels.  Every query is a mask query.  dim_of, faces_in and
    faces_out are read-only label views, decoded once per poset and
    iterating in id order; __eq__ across label orders, the faces wrapper,
    the tests and the benchmark's tracer read them.  render reads the ids:
    its JSON writer escapes each label once and orders labels by
    sid_ranks(), the rank of each id's label.  The label wrappers faces,
    closure, boundary_set and restrict remain only because the benchmark
    reads them: its tracer wraps the last three by name and its golden
    recorder calls faces.  They go when the benchmark moves onto the mask
    layer.

    Construction.  build() validates label data and numbers it in its
    input order; its label views are that data.  It serves only the base
    shapes (point, arrow, globes) and outside data.
    The constructors that combine validated posets build masks directly,
    with no build() re-check, since their result is valid when their
    inputs are: gray.gray_poset (by index arithmetic), the cylinders (a
    quotient of a Gray product), molecule.paste_along and molecule.atom
    (one new top), restrict_mask and dual.  Their labels are taken or
    decoded from their inputs on first read, and their label views are
    decoded from the masks.
    """

    dims: list
    fin: list
    fout: list
    # the labels tuple, or a function of no arguments that returns it
    source: object = field(repr=False)

    def __post_init__(self):
        self.dim = max(self.dims, default=-1)  # -1 for the empty poset
        self.full = (1 << len(self.dims)) - 1
        self._labels = self.source if isinstance(self.source, tuple) else None
        self._index = None
        self._views = None
        self._sid_rank = None
        self._grades = None
        self._cofaces = None
        self._cl = None
        self._bd = {}
        self._maximal = None
        self._unions = None
        self._colours = None
        self._form = None

    # -- labels ------------------------------------------------------------

    @property
    def labels(self) -> tuple:
        if self._labels is None:
            labels = self.source()
            if len(set(labels)) != len(labels):
                seen = set()
                repeated = next(x for x in labels if x in seen or seen.add(x))
                raise DuplicateLabel(f"two elements are labelled {repeated!r}")
            self._labels = labels
            self.source = labels  # drop the inputs it was decoded from
        return self._labels

    @property
    def index(self) -> dict:
        """Label -> id."""
        if self._index is None:
            self._index = {x: i for i, x in enumerate(self.labels)}
        return self._index

    def encode(self, subset) -> int:
        """The mask of a set of labels."""
        m = 0
        for x in subset:
            m |= 1 << self.id_of(x)
        return m

    def decode(self, m: int) -> frozenset:
        """The labels of a mask."""
        labels = self.labels
        return frozenset([labels[i] for i in bits(m)])

    def sids(self, m: int) -> list:
        """The sorted labels of a mask, as reports list them."""
        return sorted(self.decode(m))

    def _label_views(self) -> tuple:
        """(dim_of, faces_in, faces_out), decoded on first read."""
        if self._views is None:
            labels, decode = self.labels, self.decode
            self._views = (dict(zip(labels, self.dims)),
                           {x: decode(m) for x, m in zip(labels, self.fin)},
                           {x: decode(m) for x, m in zip(labels, self.fout)})
        return self._views

    # the label views, read by __eq__, faces, the tests and perfbench/tracer.py
    @property
    def dim_of(self) -> dict:
        return self._label_views()[0]

    @property
    def faces_in(self) -> dict:
        return self._label_views()[1]

    @property
    def faces_out(self) -> dict:
        return self._label_views()[2]

    # -- derived masks -------------------------------------------------------

    def coface_masks(self) -> tuple:
        """(input cofaces, output cofaces) per id, inverted from the faces
        on first read."""
        if self._cofaces is None:
            n = len(self.dims)
            cin, cout = [0] * n, [0] * n
            for i, (a, b) in enumerate(zip(self.fin, self.fout)):
                bit = 1 << i
                while a:
                    low = a & -a
                    cin[low.bit_length() - 1] |= bit
                    a ^= low
                while b:
                    low = b & -b
                    cout[low.bit_length() - 1] |= bit
                    b ^= low
            self._cofaces = (cin, cout)
        return self._cofaces

    def grade_masks(self) -> list:
        """The mask of the elements of each dimension 0..dim."""
        if self._grades is None:
            grades = [0] * (self.dim + 1)
            for i, d in enumerate(self.dims):
                grades[d] |= 1 << i
            self._grades = grades
        return self._grades

    def closure_masks(self) -> list:
        """The closure mask of each id."""
        if self._cl is None:
            cl = [0] * len(self.dims)
            fin, fout = self.fin, self.fout
            for g in self.grade_masks():  # faces sit one dimension below
                for i in bits(g):
                    c = 1 << i
                    f = fin[i] | fout[i]
                    while f:
                        low = f & -f
                        c |= cl[low.bit_length() - 1]
                        f ^= low
                    cl[i] = c
            self._cl = cl
        return self._cl

    # -- mask queries ----------------------------------------------------------

    def closure_mask(self, m: int) -> int:
        """Smallest downward-closed set containing m."""
        cl = self.closure_masks()
        out = m
        for i in bits(m):
            out |= cl[i]
        return out

    def is_closed_mask(self, m: int) -> bool:
        """Whether m holds the faces of its elements."""
        fin, fout = self.fin, self.fout
        outside = ~m
        return not any((fin[i] | fout[i]) & outside for i in bits(m))

    def dim_mask(self, m: int) -> int:
        """Dimension of the sub-poset on m; -1 if m is empty."""
        if m == self.full:
            return self.dim
        grades = self.grade_masks()
        for d in range(self.dim, -1, -1):
            if m & grades[d]:
                return d
        return -1

    def maximal_mask(self, m: int) -> int:
        """Elements of m with no coface in m; kept for the whole poset."""
        if m == self.full and self._maximal is not None:
            return self._maximal
        cin, cout = self.coface_masks()
        out = 0
        for i in bits(m):
            if not (cin[i] | cout[i]) & m:
                out |= 1 << i
        if m == self.full:
            self._maximal = out
        return out

    def boundary_mask(self, m: int, n: int, sign: str) -> int:
        """The n-boundary of the given sign of the sub-poset on m, a closed
        mask, memoised per (m, n, sign).

        It is the closure of the n-elements with no cofaces of the opposite
        sign, together with the closures of all maximal elements of
        dimension below n.  For n at least the dimension it is m, for
        n < 0 it is empty.
        """
        if n < 0:
            return 0
        key = (m, n, sign)
        bd = self._bd.get(key)
        if bd is None:
            if n >= self.dim_mask(m):
                bd = m
            else:
                bd = self._boundary_below_top(m, n, sign)
            self._bd[key] = bd
        return bd

    def _boundary_below_top(self, m: int, n: int, sign: str) -> int:
        """The boundary formula on a closed mask, for 0 <= n below its
        dimension, read from the faces one grade at a time.

        Its seeds are the n-elements of m that are no face of the opposite
        sign of an (n+1)-element of m, and the elements of m below n that
        are no face of any element of m.  Both are read from ins[d] and
        outs[d], the unions of the input and of the output face masks of
        the d-elements of m: kept for the whole poset, and gathered over
        the grades 1 .. n+1 of m for a proper sub-mask.  The seeds' closure
        is taken downward one grade at a time, each grade's elements adding
        their faces."""
        grades = self.grade_masks()
        dims, fin, fout = self.dims, self.fin, self.fout
        if m == self.full:
            if self._unions is None:
                ins, outs = [0] * (self.dim + 1), [0] * (self.dim + 1)
                for d, a, b in zip(dims, fin, fout):
                    ins[d] |= a
                    outs[d] |= b
                self._unions = ins, outs
            ins, outs = self._unions
        else:
            ins, outs = [0] * (n + 2), [0] * (n + 2)
            g = 0
            for d in range(1, n + 2):
                g |= grades[d]
            g &= m
            while g:
                low = g & -g
                i = low.bit_length() - 1
                ins[dims[i]] |= fin[i]
                outs[dims[i]] |= fout[i]
                g ^= low
        out = m & grades[n] & ~(outs if sign == MINUS else ins)[n + 1]
        for d in range(n):
            out |= m & grades[d] & ~(ins[d + 1] | outs[d + 1])
        for d in range(n, 0, -1):
            g = out & grades[d]
            while g:
                low = g & -g
                i = low.bit_length() - 1
                out |= fin[i] | fout[i]
                g ^= low
        return out

    def full_boundary_mask(self) -> int:
        """Union of input and output boundaries one level below the top."""
        n = self.dim - 1
        return self.boundary_mask(self.full, n, MINUS) | self.boundary_mask(self.full, n, PLUS)

    def restrict_mask(self, m: int) -> "OgPoset":
        """Sub-poset on a closed mask, its ids renumbered in order."""
        ids = bits(m)
        image = [-1] * len(self.dims)
        for k, i in enumerate(ids):
            image[i] = k
        fin, fout = self.fin, self.fout
        if self._labels is not None:
            labels = tuple([self._labels[i] for i in ids])
        else:
            def labels():
                own = self.labels
                return tuple([own[i] for i in ids])
        return OgPoset([self.dims[i] for i in ids],
                       [map_mask(fin[i], image) for i in ids],
                       [map_mask(fout[i], image) for i in ids],
                       labels)

    # -- labels and equality -------------------------------------------------

    def sid_ranks(self) -> list:
        """The rank of each id's label in label order, made on first read."""
        if self._sid_rank is None:
            labels = self.labels
            rank = [0] * len(labels)
            for r, i in enumerate(sorted(range(len(labels)), key=labels.__getitem__)):
                rank[i] = r
            self._sid_rank = rank
        return self._sid_rank

    def __len__(self):
        return len(self.dims)

    def __eq__(self, other):
        if not isinstance(other, OgPoset):
            return NotImplemented
        if self.labels == other.labels:
            return self.dims == other.dims and self.fin == other.fin and self.fout == other.fout
        return (
            self.dim_of == other.dim_of
            and self.faces_in == other.faces_in
            and self.faces_out == other.faces_out
        )

    def id_of(self, x) -> int:
        """The id of a label; UnknownElement for a label outside p."""
        i = self.index.get(x)
        if i is None:
            raise _unknown(x)
        return i

    # -- label wrappers ------------------------------------------------------
    #
    # Each encodes its arguments, calls the mask query and decodes the
    # answer.  They remain only while the benchmark reads them by name,
    # until its tracer moves onto the mask queries.

    # perfbench/make_goldens.py reads it
    def faces(self, x, sign: str) -> frozenset:
        self.id_of(x)
        return self.faces_in[x] if sign == MINUS else self.faces_out[x]

    # perfbench/tracer.py wraps it as poset.closure
    def closure(self, subset) -> frozenset:
        """Smallest downward-closed set containing the given elements."""
        return self.decode(self.closure_mask(self.encode(subset)))

    # perfbench/tracer.py wraps it as poset.boundary_set
    def boundary_set(self, n: int, sign: str) -> frozenset:
        """Element set of the n-dimensional input or output boundary; see
        boundary_mask."""
        return self.decode(self.boundary_mask(self.full, n, sign))

    # perfbench/tracer.py wraps it as poset.restrict
    def restrict(self, subset) -> "OgPoset":
        """Sub-poset on a closed subset, labels preserved."""
        m = self.encode(subset)
        if not self.is_closed_mask(m):
            raise UnknownElement("subset is not closed")
        return self.restrict_mask(m)

    # -- duals -----------------------------------------------------------

    def dual(self, dims) -> "OgPoset":
        """Swap input and output faces of elements whose dimension is in dims."""
        dims = frozenset(dims)
        fin, fout = list(self.fin), list(self.fout)
        for i, d in enumerate(self.dims):
            if d in dims:
                fin[i], fout[i] = fout[i], fin[i]
        labels = self._labels if self._labels is not None else (lambda: self.labels)
        return OgPoset(self.dims, fin, fout, labels)

    def op(self) -> "OgPoset":
        """Dual at every odd dimension."""
        return self.dual(range(1, self.dim + 1, 2)) if self.dim >= 1 else self.dual(())


def build(elements, faces) -> OgPoset:
    """Validate raw data into an OgPoset, numbering the elements in the
    order of elements.

    elements maps id -> dimension; faces maps id -> (input ids, output ids)
    for every element of positive dimension.
    """
    dim_of = dict(elements)
    for x, d in dim_of.items():
        if d < 0:
            raise BadGrading(f"negative dimension for {x}")
    index = {x: i for i, x in enumerate(dim_of)}
    faces_in, faces_out = {}, {}
    fin_masks, fout_masks = [], []
    for x, d in dim_of.items():
        if d == 0:
            fin, fout = frozenset(), frozenset()
            if x in faces and (faces[x][0] or faces[x][1]):
                raise BadGrading(f"0-dimensional element {x} with faces")
            fin_masks.append(0)
            fout_masks.append(0)
        else:
            if x not in faces:
                raise EmptySide(f"no faces given for {x}")
            fin, fout = frozenset(faces[x][0]), frozenset(faces[x][1])
            if not fin or not fout:
                raise EmptySide(f"empty face side on {x}")
            if fin & fout:
                raise Overlap(f"input and output faces of {x} overlap")
            for y in fin | fout:
                if y not in dim_of:
                    raise DanglingFace(f"face {y} of {x} is unknown")
                if dim_of[y] != d - 1:
                    raise BadGrading(
                        f"face {y} of {x} has dimension {dim_of[y]}, expected {d - 1}"
                    )
            a = b = 0
            for y in fin:
                a |= 1 << index[y]
            for y in fout:
                b |= 1 << index[y]
            fin_masks.append(a)
            fout_masks.append(b)
        faces_in[x] = fin
        faces_out[x] = fout
    poset = OgPoset(list(dim_of.values()), fin_masks, fout_masks, tuple(dim_of))
    poset._index = index
    poset._views = (dim_of, faces_in, faces_out)
    return poset


# -- isomorphism search ---------------------------------------------------


def _preserves_faces(p: OgPoset, q: OgPoset, image: list) -> bool:
    """Whether the id map image (image[i] for id i of p) preserves the
    dimension and both face masks of every element."""
    qd, qfin, qfout = q.dims, q.fin, q.fout
    for d, a, b, j in zip(p.dims, p.fin, p.fout, image):
        if d != qd[j] or map_mask(a, image) != qfin[j] or map_mask(b, image) != qfout[j]:
            return False
    return True


def _rank(signature: list):
    """Colour of each id: the rank of its signature; and the count."""
    order = {s: i for i, s in enumerate(sorted(set(signature)))}
    return [order[s] for s in signature], len(order)


def _colours(p: OgPoset):
    """Stable colouring by iterated colour refinement, memoised on p.

    Returns (colour of each id, number of colours).  The first colour
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
        fin, fout = p.fin, p.fout
        cin, cout = p.coface_masks()
        colour, count = _rank([
            (d, a.bit_count(), b.bit_count(), c.bit_count(), e.bit_count())
            for d, a, b, c, e in zip(p.dims, fin, fout, cin, cout)
        ])
        near_ids = None
        while count < len(colour):
            if near_ids is None:
                near_ids = [(bits(a), bits(b), bits(c), bits(e))
                            for a, b, c, e in zip(fin, fout, cin, cout)]
            sizes = [0] * count
            for c in colour:
                sizes[c] += 1
            signature = []
            for c, (a, b, d, e) in zip(colour, near_ids):
                if sizes[c] == 1:
                    signature.append((c,))
                    continue
                # neighbour colours tagged by relation, in one sorted run
                near = [4 * colour[k] for k in a]
                near += [4 * colour[k] + 1 for k in b]
                near += [4 * colour[k] + 2 for k in d]
                near += [4 * colour[k] + 3 for k in e]
                near.sort()
                signature.append((c, *near))
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
            (c, d,
             tuple(sorted([colour[k] for k in bits(a)])),
             tuple(sorted([colour[k] for k in bits(b)])))
            for c, d, a, b in zip(colour, p.dims, p.fin, p.fout)
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


def _iso_search(p: OgPoset, q: OgPoset, first_only: bool) -> list:
    """Isomorphisms p -> q, each as an id image."""
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
        of_colour = [0] * count_q
        for j, c in enumerate(colour_q):
            of_colour[c] = j
        image = [of_colour[c] for c in colour_p]
        return [image] if _preserves_faces(p, q, image) else []
    if _colour_form(p) != _colour_form(q):
        return []

    # backtracking over the stable colour classes, in label order
    p_rank, q_rank = p.sid_ranks(), q.sid_ranks()
    bucket = {}
    for j, c in enumerate(colour_q):
        bucket.setdefault(c, []).append(j)
    for ys in bucket.values():
        ys.sort(key=q_rank.__getitem__)
    # order: dimension descending, then rarest colour first
    todo = sorted(
        range(len(p)),
        key=lambda i: (-p.dims[i], len(bucket[colour_p[i]]), p_rank[i]),
    )
    near_p = [[bits(m) for m in masks] for masks in (p.fin, p.fout, *p.coface_masks())]
    near_q = (q.fin, q.fout, *q.coface_masks())
    image = [-1] * len(p)
    used = [False] * len(q)
    found = []

    def consistent(i, j):
        for ids, masks in zip(near_p, near_q):
            near_j = masks[j]
            for k in ids[i]:
                if image[k] >= 0 and not near_j >> image[k] & 1:
                    return False
        return True

    def backtrack(t):
        if t == len(todo):
            if _preserves_faces(p, q, image):
                found.append(list(image))
                return first_only
            return False
        i = todo[t]
        for j in bucket[colour_p[i]]:
            if used[j] or not consistent(i, j):
                continue
            image[i] = j
            used[j] = True
            if backtrack(t + 1):
                return True
            image[i] = -1
            used[j] = False
        return False

    backtrack(0)
    return found


def find_iso(p: OgPoset, q: OgPoset):
    """First orientation-preserving isomorphism in search order, as an id
    image, or None.  Between two empty posets it is [], so test the result
    with `is None`."""
    result = _iso_search(p, q, first_only=True)
    return result[0] if result else None


def all_isos(p: OgPoset, q: OgPoset) -> list:
    """Every orientation-preserving isomorphism, as id images, in
    deterministic order."""
    return _iso_search(p, q, first_only=False)


def iso_invariant(p: OgPoset):
    """Catalog-dedup prefilter, equal for isomorphic posets: the stable
    colour form, which equals canonical_key(p) whenever that key exists."""
    return _colour_form(p)
