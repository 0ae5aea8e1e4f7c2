"""Marked regular directed complexes, entire monomorphisms and residuals,
Gray products of marked shapes, and pushout-products of marked inclusions.

At shape level there are no degenerate cells, so a marking is simply a set
of positive-dimensional elements; the degeneracy clause of the presheaf
definition is vacuous here.  A marking is a mask of its shape's ids (see
the OgPoset docstring).  Every marked map built here is the inclusion of
a closed subset of its target, so a MarkedMap is its target, the mask of
its image and the source marking as a mask of target ids.  A Gray product
has (x, y) at id x * |Y| + y, as in gray_poset, so the product markings,
pushout-products and residuals are grids of the factors' masks.  Labels
are decoded only to report or render.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BadEmbedding, NotEntire, ShapeError
from .gray import gray_poset
from .molecule import Molecule, poset_of
from .poset import OgPoset, spread


@dataclass(eq=False)
class MarkedShape:
    """A shape (molecule or plain poset) with a marking: a mask of its
    positive-dimensional ids."""

    shape: object
    marking: int

    def __post_init__(self):
        p = self.poset
        if self.marking & ~p.full:
            raise ShapeError("marking has bits outside its poset")
        points = self.marking & p.grade_masks()[0] if self.marking else 0
        if points:
            x = p.labels[(points & -points).bit_length() - 1]
            raise ShapeError(f"marked element {x} must have positive dimension")

    @property
    def poset(self) -> OgPoset:
        return poset_of(self.shape)

    def op(self) -> "MarkedShape":
        return MarkedShape(self.poset.op(), self.marking)


@dataclass(eq=False)
class MarkedMap:
    """Marking-preserving inclusion of a closed subset of the target: the
    image mask and the source marking, a mask of target ids."""

    target: MarkedShape
    image: int
    source_marking: int
    meta: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        p = self.target.poset
        if self.image & ~p.full or not p.is_closed_mask(self.image):
            defect = "image must be a closed subset of the target"
        elif self.source_marking & ~self.image:
            defect = "source marking must lie in the image"
        elif self.source_marking & ~self.target.marking:
            defect = "marking must be preserved forward"
        else:
            return
        raise BadEmbedding(f"marked map: {defect}")

    @property
    def entire(self) -> bool:
        return self.image == self.target.poset.full

    def op(self) -> "MarkedMap":
        return MarkedMap(self.target.op(), self.image, self.source_marking,
                         meta=dict(self.meta))


def residual(i: MarkedMap) -> int:
    """Newly marked elements of an entire map."""
    if not i.entire:
        raise NotEntire("residual is only defined for entire monomorphisms")
    return i.target.marking & ~i.source_marking


# -- Gray product of marked shapes -------------------------------------------


def gray_marked(a: MarkedShape, b: MarkedShape, product: OgPoset | None = None) -> MarkedShape:
    """Product shape with marking A (x) cells  u  cells (x) B.  product,
    when given, is gray_poset(a.poset, b.poset) built by the caller."""
    pa, pb = a.poset, b.poset
    poset = product if product is not None else gray_poset(pa, pb)
    stride = len(pb)
    marking = spread(a.marking, stride) * pb.full | spread(pa.full, stride) * b.marking
    return MarkedShape(poset, marking)


def pushout_product(i: MarkedMap, j: MarkedMap, product: OgPoset | None = None) -> MarkedMap:
    """The induced inclusion (X (x) Y') u (X' (x) Y) -> X (x) Y.

    The union subobject is computed by images inside the product; its
    marking is the union of the two image markings, per the colimit marking
    rule of the ambient quasitopos.  product, when given, is the unmarked
    X (x) Y built by the caller.
    """
    target = gray_marked(i.target, j.target, product)
    py = j.target.poset
    stride = len(py)
    rows = spread(i.target.poset.full, stride)  # the pairs (x, y) for one y, every x
    img_i = spread(i.image, stride)
    elements = img_i * py.full | rows * j.image
    mark_left = spread(i.target.marking, stride) * j.image | rows * j.source_marking
    mark_right = spread(i.source_marking, stride) * py.full | img_i * j.target.marking
    return MarkedMap(target, elements, mark_left | mark_right)


def residual_formula(i: MarkedMap, j: MarkedMap) -> int:
    """Closed form for the residual of i pp j with i entire.

    The residual consists of the pairs (a, v) with a newly marked by i and
    v outside the image of j; pairs whose v is itself marked in j's target
    are already marked in the domain through the cells (x) B term, so they
    are excluded.  The published statement omits that exclusion and is an
    upper bound; see residual_upper_bound.
    """
    if not i.entire:
        raise NotEntire("formula applies to entire first argument")
    py = j.target.poset
    outside = py.full & ~j.image & ~j.target.marking
    return spread(residual(i), len(py)) * outside


def residual_upper_bound(i: MarkedMap, j: MarkedMap) -> int:
    """The published residual bound: (A minus A') (x) (cells minus image)."""
    if not i.entire:
        raise NotEntire("formula applies to entire first argument")
    py = j.target.poset
    return spread(residual(i), len(py)) * (py.full & ~j.image)


def residual_formula_swapped(j: MarkedMap, i: MarkedMap) -> int:
    """Closed form for j pp i with i entire (the mirrored order)."""
    if not i.entire:
        raise NotEntire("formula applies to entire second argument")
    outside = j.target.poset.full & ~j.image & ~j.target.marking
    return spread(outside, len(i.target.poset)) * residual(i)


# -- generator families -------------------------------------------------------


def markmol(u: Molecule) -> MarkedShape:
    """Marking every maximal positive-dimensional element; {top} for atoms."""
    p = u.poset
    maximal = p.maximal_mask(p.full)
    return MarkedShape(u, maximal & ~p.grade_masks()[0] if maximal else 0)


def boundary_inclusion_min(u: Molecule) -> MarkedMap:
    """(bd U, empty) -> (U, empty)."""
    return MarkedMap(MarkedShape(u, 0), u.poset.full_boundary_mask(), 0,
                     meta={"family": "minbd", "atom": u})


def marking_inclusion(u: Molecule) -> MarkedMap:
    """t_U : (U, empty) -> (U, top marked); entire."""
    return MarkedMap(markmol(u), u.poset.full, 0, meta={"family": "t", "atom": u})


def boundary_inclusion_marked(u: Molecule) -> MarkedMap:
    """(bd U, empty) -> (U, top marked); the second M' family."""
    return MarkedMap(markmol(u), u.poset.full_boundary_mask(), 0,
                     meta={"family": "markbd", "atom": u})


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


def generators(atoms) -> GeneratorFamilies:
    """Generator families over the given atoms."""
    return GeneratorFamilies(
        minbd=[boundary_inclusion_min(u) for u in atoms],
        t=[marking_inclusion(u) for u in atoms],
        markbd=[boundary_inclusion_marked(u) for u in atoms],
    )
