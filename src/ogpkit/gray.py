"""Gray products of shapes, opposites, and the boundary identities that
relate them.

The product carrier is the set of pairs (x, y) with additive dimension;
faces of (x, y) combine the left factor's faces with the right factor's
faces at a sign twisted by the parity of dim x.  gray_poset is the one
place for that formula.

op_swap_iso checks op(P (x) Q) = op Q (x) op P against a second face
formula, written in P (x) Q's id order and used only there.  In op Q (x)
op P the twist falls on P's faces and is read from Q's dimensions, so the
second formula shares no step with gray_poset, and a fault in
gray_poset's twist shows as a mismatch instead of appearing on both sides.
"""

from __future__ import annotations

import itertools

from .errors import IdentityFailed
from .ids import sid
from .molecule import GeneralisedPasting, Molecule
from .poset import MINUS, PLUS, SIGNS, OgPoset, flip, spread


def twist(sign: str, parity: int) -> str:
    """(-)^parity . sign"""
    return sign if parity % 2 == 0 else flip(sign)


def gray_poset(p: OgPoset, q: OgPoset) -> OgPoset:
    """The Gray product P (x) Q, built on ids with no labels and no
    build() re-check: a product of valid posets is valid.

    Element (i, j) has id i * |Q| + j.  Its face mask of sign s is the
    left factor's mask of sign s spread at stride |Q| and shifted by j,
    or the right factor's mask of sign (-)^(dim i) . s shifted by i * |Q|.
    Its label (x, y) pairs the factors' labels, decoded on first read.
    """
    nq = len(q)
    dims, fin, fout = [], [], []
    for i, dx in enumerate(p.dims):
        base = i * nq
        q_in, q_out = (q.fin, q.fout) if dx % 2 == 0 else (q.fout, q.fin)
        p_in, p_out = spread(p.fin[i], nq), spread(p.fout[i], nq)
        dims += [dx + dy for dy in q.dims]
        fin += [p_in << j | m << base for j, m in enumerate(q_in)]
        fout += [p_out << j | m << base for j, m in enumerate(q_out)]
    return OgPoset(dims, fin, fout, lambda: tuple(itertools.product(p.labels, q.labels)))


def gray(m1: Molecule, m2: Molecule) -> Molecule:
    """Gray product of molecules; molecule-hood is theorem-backed."""
    poset = gray_poset(m1.poset, m2.poset)
    cert = {"kind": "gray", "left": m1.certificate, "right": m2.certificate}
    result = Molecule(poset, cert)
    result.provenance["factors"] = (m1, m2)
    return result


def gray_boundary_decomposition(p: OgPoset, q: OgPoset, product: OgPoset) -> list:
    """Both sides of the two-piece split formula, for every boundary of
    P (x) Q at once, as masks of the ids of product, which is
    gray_poset(p, q).

    Returns (n, sign, direct, splits) for n = 1 .. dim and both signs.
    direct is bd_n^sign of the product.  splits holds, per cut position
    j < n, (j, left piece, right piece): each piece is bd_n^sign of a
    subproduct with one factor restricted to one of its boundaries,

        input:  bd_j^- P (x) Q             then  P (x) bd_(n-j-1)^((-)^j) Q
        output: P (x) bd_(n-j-1)^(-(-)^j) Q  then  bd_j^+ P (x) Q

    Such a subproduct is the closed subset of the product on the pairs
    whose factor lies in that boundary, its mask the grid of the factor
    boundary's mask and the other factor's, so each piece is read from
    the sub-poset on that subset and no piece reads the full product.
    direct is read at the memo key (product.full, n, sign), each piece at
    its cut's mask.
    """
    nq = len(q)
    bd = product.boundary_mask
    p_cols = spread(p.full, nq)

    def left_cut(m: int, sign: str) -> int:
        return spread(p.boundary_mask(p.full, m, sign), nq) * q.full

    def right_cut(m: int, sign: str) -> int:
        return p_cols * q.boundary_mask(q.full, m, sign)

    result = []
    for n in range(1, product.dim + 1):
        for sign in SIGNS:
            splits = []
            for j in range(n):
                p_piece = bd(left_cut(j, sign), n, sign)
                q_piece = bd(right_cut(n - j - 1, twist(flip(sign), j)), n, sign)
                splits.append((j, p_piece, q_piece) if sign == MINUS else (j, q_piece, p_piece))
            result.append((n, sign, bd(product.full, n, sign), splits))
    return result


def gray_split_of_generalised_pasting(g: GeneralisedPasting, other: Molecule,
                                      side: str) -> tuple:
    """Transport a generalised pasting through a Gray product.

    side "left": the pasting lives in the left factor; the product splits as
    (W (x) V, W' (x) V) at level k + dim V.  side "right": the pasting lives
    in the right factor; the product splits at level k + dim U, with the
    two pieces swapped when dim U is odd.
    Returns (left mask, right mask, level) in the product of g.ambient and
    the other factor (in the order dictated by side), each piece the grid
    of one side of g and the whole of the other factor.
    """
    full = other.poset.full
    if side == "left":
        stride = len(other)
        return spread(g.left, stride) * full, spread(g.right, stride) * full, g.level + other.dim
    stride = len(g.ambient)
    first, second = spread(full, stride) * g.left, spread(full, stride) * g.right
    if other.dim % 2 == 1:
        first, second = second, first
    return first, second, g.level + other.dim


# -- opposites ---------------------------------------------------------------


def swap_ids(np_: int, nq: int) -> list:
    """The id of (y, x) in Q (x) P for each id of (x, y) in P (x) Q, where
    |P| = np_ and |Q| = nq: i * |Q| + j goes to j * |P| + i."""
    return [j * np_ + i for i in range(np_) for j in range(nq)]


def op_swap_iso(p: OgPoset, q: OgPoset) -> list:
    """The orientation-preserving bijection op(P (x) Q) -> op(Q) (x) op(P),
    (x, y) -> (y, x), as swap_ids(|P|, |Q|): the id on the right of each
    id on the left.  Raises IdentityFailed, naming the offending element
    and sign in its message and certificate, if the swap is not one.

    Only the left side, gray_poset(p, q).op(), is built with the code
    under test.  The right side is written straight into the left side's
    id order by a second face formula, used only here: element (i, j),
    at id i * |Q| + j, pairs with (y_j, x_i) of op Q (x) op P, whose
    faces of sign s are op Q's of sign s at y_j, shifted by i * |Q|,
    and op P's of sign (-)^(dim y_j) . s at x_i, spread at stride |Q|
    and shifted by j.  gray_poset twists the right factor's faces by the
    left factor's dimension; here the twist falls on P's faces and is
    read from Q's dimensions, so a fault in gray_poset's twist cannot
    cancel against itself.  The three lists are compared whole; the
    elements are walked, and labels decoded, only to report a failure.
    """
    lhs = gray_poset(p, q).op()
    op_p, op_q = p.op(), q.op()
    np_, nq = len(p), len(q)
    if len(lhs) != np_ * nq:
        raise IdentityFailed("op-swap is not a bijection of the carriers")
    # one row per y_j for faces of sign s: (j, op Q's face mask of sign s,
    # t), where t picks op P's faces of sign (-)^(dim y_j) . s, 0 for the
    # inputs and 1 for the outputs
    odd = [dy & 1 for dy in op_q.dims]
    in_rows = list(zip(range(nq), op_q.fin, odd))
    out_rows = list(zip(range(nq), op_q.fout, [1 - t for t in odd]))
    dims, fin, fout = [], [], []
    for i, dx in enumerate(op_p.dims):
        base = i * nq
        p_faces = (spread(op_p.fin[i], nq), spread(op_p.fout[i], nq))
        dims += [dx + dy for dy in op_q.dims]
        fin += [m << base | p_faces[t] << j for j, m, t in in_rows]
        fout += [m << base | p_faces[t] << j for j, m, t in out_rows]
    if lhs.dims == dims and lhs.fin == fin and lhs.fout == fout:
        return swap_ids(np_, nq)
    for e, d in enumerate(lhs.dims):
        if dims[e] != d:
            name = sid(lhs.labels[e])
            raise IdentityFailed(
                f"op-swap changes the dimension of {name}",
                {"element": name, "got": d, "want": dims[e]},
            )
        for s, got_faces, want_faces in ((MINUS, lhs.fin, fin), (PLUS, lhs.fout, fout)):
            if got_faces[e] != want_faces[e]:
                name = sid(lhs.labels[e])
                got, want = (sorted(sid((b, a)) for (a, b) in lhs.decode(m))
                             for m in (got_faces[e], want_faces[e]))
                raise IdentityFailed(
                    f"op-swap failed at {name} sign {s}: {got} != {want}",
                    {"element": name, "sign": s, "got": got, "want": want},
                )
