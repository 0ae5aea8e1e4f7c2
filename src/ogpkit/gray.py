"""Gray products of shapes, opposites, and the boundary identities that
relate them.

The product carrier is the set of pairs (x, y) with additive dimension;
faces of (x, y) combine the left factor's faces with the right factor's
faces at a sign twisted by the parity of dim x.
"""

from __future__ import annotations

from .errors import IdentityFailed
from .ids import sid
from .molecule import GeneralisedPasting, Inclusion, Molecule
from .poset import MINUS, PLUS, SIGNS, OgPoset, build, flip


def twist(sign: str, parity: int) -> str:
    """(-)^parity . sign"""
    return sign if parity % 2 == 0 else flip(sign)


def gray_poset(p: OgPoset, q: OgPoset) -> OgPoset:
    elements, faces = {}, {}
    q_faces = {MINUS: q.faces_in, PLUS: q.faces_out}
    for x, dx in p.dim_of.items():
        x_in, x_out = p.faces_in[x], p.faces_out[x]
        q_in, q_out = q_faces[twist(MINUS, dx)], q_faces[twist(PLUS, dx)]
        for y, dy in q.dim_of.items():
            e = (x, y)
            elements[e] = dx + dy
            if dx + dy == 0:
                continue
            fin = {(f, y) for f in x_in}
            fin.update((x, g) for g in q_in[y])
            fout = {(f, y) for f in x_out}
            fout.update((x, g) for g in q_out[y])
            faces[e] = (fin, fout)
    return build(elements, faces)


def gray(m1: Molecule, m2: Molecule) -> Molecule:
    """Gray product of molecules; molecule-hood is theorem-backed."""
    poset = gray_poset(m1.poset, m2.poset)
    cert = {"kind": "gray", "left": m1.certificate, "right": m2.certificate}
    result = Molecule(poset, cert)
    result.provenance["factors"] = (m1, m2)
    return result


def gray_inclusion(i: Inclusion, j: Inclusion) -> Inclusion:
    """Product of tracked inclusions: U (x) V into U' (x) V'."""
    src = gray(i.source, j.source)
    tgt = gray(i.target, j.target)
    mapping = {
        (x, y): (i.mapping[x], j.mapping[y])
        for x in i.source.poset.dim_of
        for y in j.source.poset.dim_of
    }
    return Inclusion(src, tgt, mapping, kind="gray-product")


def gray_boundary_decomposition(p: OgPoset, q: OgPoset) -> list:
    """Both sides of the two-piece split formula, for every boundary of
    P (x) Q at once.

    Returns (n, sign, direct, splits) for n = 1 .. dim and both signs.
    direct is bd_n^sign of the product.  splits holds, per cut position
    j < n, (j, left piece, right piece): each piece is bd_n^sign of a
    subproduct with one factor restricted to one of its boundaries,

        input:  bd_j^- P (x) Q             then  P (x) bd_(n-j-1)^((-)^j) Q
        output: P (x) bd_(n-j-1)^(-(-)^j) Q  then  bd_j^+ P (x) Q

    so no piece reads the full product.  Each distinct subproduct is built
    once per call and shared by every level and cut that needs it.
    """
    product = gray_poset(p, q)
    subproducts = {}

    def subproduct(left: bool, m: int, sign: str) -> OgPoset:
        factor = p if left else q
        cut = factor.boundary_set(m, sign)
        key = (left, cut)
        if key not in subproducts:
            part = factor.restrict(cut)
            subproducts[key] = gray_poset(part, q) if left else gray_poset(p, part)
        return subproducts[key]

    result = []
    for n in range(1, product.dim + 1):
        for sign in SIGNS:
            splits = []
            for j in range(n):
                p_piece = subproduct(True, j, sign).boundary_set(n, sign)
                q_piece = subproduct(False, n - j - 1, twist(flip(sign), j)).boundary_set(n, sign)
                splits.append((j, p_piece, q_piece) if sign == MINUS else (j, q_piece, p_piece))
            result.append((n, sign, product.boundary_set(n, sign), splits))
    return result


def gray_split_of_generalised_pasting(g: GeneralisedPasting, other: Molecule,
                                      side: str) -> tuple:
    """Transport a generalised pasting through a Gray product.

    side "left": the pasting lives in the left factor; the product splits as
    (W (x) V, W' (x) V) at level k + dim V.  side "right": the pasting lives
    in the right factor; the product splits at level k + dim U, with the
    two pieces swapped when dim U is odd.
    Returns (left ids, right ids, level) in the product of g.ambient and
    the other factor (in the order dictated by side).
    """
    if side == "left":
        pieces = (
            frozenset((x, y) for x in g.left for y in other.poset.dim_of),
            frozenset((x, y) for x in g.right for y in other.poset.dim_of),
        )
        return pieces[0], pieces[1], g.level + other.dim
    first = frozenset((y, x) for x in g.left for y in other.poset.dim_of)
    second = frozenset((y, x) for x in g.right for y in other.poset.dim_of)
    if other.dim % 2 == 1:
        first, second = second, first
    return first, second, g.level + other.dim


# -- opposites ---------------------------------------------------------------


def op_swap_iso(p: OgPoset, q: OgPoset) -> dict:
    """The orientation-preserving bijection op(P (x) Q) -> op(Q) (x) op(P),
    (x, y) -> (y, x).  Raises IdentityFailed, naming the offending element
    and sign in its message and certificate, if the swap is not one."""
    lhs = gray_poset(p, q).op()
    rhs = gray_poset(q.op(), p.op())
    mapping = {(x, y): (y, x) for x in p.dim_of for y in q.dim_of}
    if set(mapping.values()) != set(rhs.dim_of):
        raise IdentityFailed("op-swap is not a bijection of the carriers")
    sides = ((MINUS, lhs.faces_in, rhs.faces_in), (PLUS, lhs.faces_out, rhs.faces_out))
    for e, d in lhs.dim_of.items():
        x, y = e
        image = (y, x)
        if rhs.dim_of[image] != d:
            raise IdentityFailed(
                f"op-swap changes the dimension of {sid(e)}",
                {"element": sid(e), "got": d, "want": rhs.dim_of[image]},
            )
        for s, lhs_faces, rhs_faces in sides:
            got = {(b, a) for (a, b) in lhs_faces[e]}
            want = rhs_faces[image]
            if got != want:
                raise IdentityFailed(
                    f"op-swap failed at {sid(e)} sign {s}: {sorted(map(sid, got))} "
                    f"!= {sorted(map(sid, want))}",
                    {"element": sid(e), "sign": s,
                     "got": sorted(map(sid, got)), "want": sorted(map(sid, want))},
                )
    return mapping


def flatten_triple_left(x):
    """((a, b), c) -> (a, (b, c)) on ids, for associativity comparisons."""
    (a, b), c = x
    return (a, (b, c))
