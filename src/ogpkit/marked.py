"""Marked regular directed complexes, entire monomorphisms and residuals,
Gray products of marked shapes, and pushout-products of marked inclusions.

At shape level there are no degenerate cells, so a marking is simply a set
of positive-dimensional elements; the degeneracy clause of the presheaf
definition is vacuous here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BadEmbedding, NotEntire, ShapeError
from .gray import gray_poset
from .ids import sid
from .molecule import Molecule
from .poset import OgPoset, bits, embedding_defect, spread


def _poset(shape) -> OgPoset:
    return shape.poset if isinstance(shape, Molecule) else shape


@dataclass(eq=False)
class MarkedShape:
    """A shape (molecule or plain poset) with marked positive-dimensional
    elements."""

    shape: object
    marking: frozenset

    def __post_init__(self):
        p = self.poset
        self.marking = frozenset(self.marking)
        marked = p.encode(self.marking)
        points = marked & p.grade_masks()[0] if marked else 0
        if points:
            x = p.labels[bits(points)[0]]
            raise ShapeError(f"marked element {sid(x)} must have positive dimension")

    @property
    def poset(self) -> OgPoset:
        return _poset(self.shape)

    def op(self) -> "MarkedShape":
        return MarkedShape(self.poset.op(), self.marking)


@dataclass(eq=False)
class MarkedMap:
    """Injective, marking-preserving map of marked shapes."""

    source: MarkedShape
    target: MarkedShape
    mapping: dict
    meta: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        defect = embedding_defect(self.source.poset, self.target.poset, self.mapping)
        if defect is None and not self.apply(self.source.marking) <= self.target.marking:
            defect = "marking must be preserved forward"
        if defect is not None:
            raise BadEmbedding(f"marked map: {defect}")

    def apply(self, subset) -> frozenset:
        return frozenset(self.mapping[x] for x in subset)

    @property
    def image(self) -> frozenset:
        return frozenset(self.mapping.values())

    @property
    def entire(self) -> bool:
        return len(self.mapping) == len(self.target.poset)

    def op(self) -> "MarkedMap":
        return MarkedMap(self.source.op(), self.target.op(), dict(self.mapping),
                         meta=dict(self.meta))


def residual(i: MarkedMap) -> frozenset:
    """Newly marked elements of an entire map."""
    if not i.entire:
        raise NotEntire("residual is only defined for entire monomorphisms")
    return i.target.marking - i.apply(i.source.marking)


# -- Gray product of marked shapes -------------------------------------------


def gray_marked(a: MarkedShape, b: MarkedShape, product: OgPoset | None = None) -> MarkedShape:
    """Product shape with marking A (x) cells  u  cells (x) B.  product,
    when given, is gray_poset(a.poset, b.poset) built by the caller; the
    marking is computed on its ids, (i, j) at i * |b| + j."""
    pa, pb = a.poset, b.poset
    poset = product if product is not None else gray_poset(pa, pb)
    stride = len(pb)
    marking = (spread(pa.encode(a.marking), stride) * pb.full
               | spread(pa.full, stride) * pb.encode(b.marking))
    return MarkedShape(poset, poset.decode(marking))


def pushout_product(i: MarkedMap, j: MarkedMap, product: OgPoset | None = None) -> MarkedMap:
    """The induced inclusion (X (x) Y') u (X' (x) Y) -> X (x) Y.

    The union subobject is computed by images inside the product; its
    marking is the union of the two image markings, per the colimit marking
    rule of the ambient quasitopos.  product, when given, is the unmarked
    X (x) Y built by the caller; the markings are computed here either way,
    as masks of the product's ids, (x, y) at x * |Y| + y.
    """
    target = gray_marked(i.target, j.target, product)
    px, py = i.target.poset, j.target.poset
    stride = len(py)
    rows = spread(px.full, stride)  # the pairs (x, y) for one y, every x
    img_i, img_j = px.encode(i.image), py.encode(j.image)
    elements = spread(img_i, stride) * py.full | rows * img_j
    mark_left = (spread(px.encode(i.target.marking), stride) * img_j
                 | rows * (img_j & py.encode(j.apply(j.source.marking))))
    mark_right = (spread(img_i & px.encode(i.apply(i.source.marking)), stride) * py.full
                  | spread(img_i, stride) * py.encode(j.target.marking))
    product = target.poset
    domain = MarkedShape(product.restrict_mask(elements), product.decode(mark_left | mark_right))
    return MarkedMap(domain, target, {e: e for e in domain.poset.labels},
                     meta={"kind": "pushout-product"})


def residual_formula(i: MarkedMap, j: MarkedMap) -> frozenset:
    """Closed form for the residual of i pp j with i entire.

    The residual consists of the pairs (a, v) with a newly marked by i and
    v outside the image of j; pairs whose v is itself marked in j's target
    are already marked in the domain through the cells (x) B term, so they
    are excluded.  The published statement omits that exclusion and is an
    upper bound; see residual_upper_bound.
    """
    if not i.entire:
        raise NotEntire("formula applies to entire first argument")
    new = residual(i)
    outside = frozenset(j.target.poset.dim_of) - j.image - j.target.marking
    return frozenset((a, v) for a in new for v in outside)


def residual_upper_bound(i: MarkedMap, j: MarkedMap) -> frozenset:
    """The published residual bound: (A minus A') (x) (cells minus image)."""
    if not i.entire:
        raise NotEntire("formula applies to entire first argument")
    new = residual(i)
    outside = frozenset(j.target.poset.dim_of) - j.image
    return frozenset((a, v) for a in new for v in outside)


def residual_formula_swapped(j: MarkedMap, i: MarkedMap) -> frozenset:
    """Closed form for j pp i with i entire (the mirrored order)."""
    if not i.entire:
        raise NotEntire("formula applies to entire second argument")
    new = residual(i)
    outside = frozenset(j.target.poset.dim_of) - j.image - j.target.marking
    return frozenset((v, a) for v in outside for a in new)


# -- generator families -------------------------------------------------------


def markmol(u: Molecule) -> MarkedShape:
    """Marking every maximal positive-dimensional element; {top} for atoms."""
    marking = frozenset(x for x in u.poset.maximal_elements() if u.poset.dim_of[x] > 0)
    return MarkedShape(u, marking)


def boundary_inclusion_min(u: Molecule) -> MarkedMap:
    """(bd U, empty) -> (U, empty)."""
    bd = u.poset.full_boundary_set()
    return MarkedMap(
        MarkedShape(u.poset.restrict(bd), frozenset()),
        MarkedShape(u, frozenset()),
        {x: x for x in bd},
        meta={"family": "minbd", "atom": u},
    )


def marking_inclusion(u: Molecule) -> MarkedMap:
    """t_U : (U, empty) -> (U, top marked); entire."""
    return MarkedMap(
        MarkedShape(u, frozenset()),
        markmol(u),
        {x: x for x in u.poset.dim_of},
        meta={"family": "t", "atom": u},
    )


def boundary_inclusion_marked(u: Molecule) -> MarkedMap:
    """(bd U, empty) -> (U, top marked); the second M' family."""
    bd = u.poset.full_boundary_set()
    return MarkedMap(
        MarkedShape(u.poset.restrict(bd), frozenset()),
        markmol(u),
        {x: x for x in bd},
        meta={"family": "markbd", "atom": u},
    )


@dataclass
class GeneratorFamilies:
    """The two cellular-model generator sets over a family of atoms, plus
    the dimension-filtered marking family."""

    minbd: list
    t: list
    markbd: list

    @property
    def Mprime(self):
        return self.minbd + self.markbd


def generators(atoms, max_dim=None) -> GeneratorFamilies:
    """Generator families over the given atoms, optionally dimension-capped."""
    selected = [u for u in atoms if max_dim is None or u.dim <= max_dim]
    return GeneratorFamilies(
        minbd=[boundary_inclusion_min(u) for u in selected],
        t=[marking_inclusion(u) for u in selected],
        markbd=[boundary_inclusion_marked(u) for u in selected],
    )
