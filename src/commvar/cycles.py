"""Support cycles, partition strata and localization.

The support cycle of a commuting tuple records each joint eigenvalue
(a point of affine d-space) with the dimension of its joint generalized
eigenspace.  Points must be rational over the base field: a tuple whose
support lives in an extension raises NOT_SPLIT rather than answering
approximately.

Algorithm: refine one coordinate at a time, each piece in its own
coordinates.  A piece holds the d coordinates as blocks in its own basis;
pass i splits it by the roots of char_poly of its block B_i into
generalized eigenspaces, on which the other blocks are read off rows of a
product, with no system solved.  Commuting maps preserve each other's
primary components, so this needs no separating linear form and works over
every field, however small.  Each coordinate of a point is read off as a
root of a characteristic polynomial.  (Never as trace/dim, which lies over
F_p when p divides the block size.)  ``localize`` composes its change of
basis from one inverse per split, at the piece's size.  Two checks raise
RuntimeError, also under python -O: an eigenspace whose dimension is not
its root's multiplicity, and eigenspaces that do not span their piece.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ArityMismatchError, MixedFieldsError, NotSplitError
from .fields import Field, Scalar
from .matrices import (
    Matrix,
    char_poly,
    columns_matrix,
    det,
    eval_multipoly,
    hstack,
    inverse,
    kernel_basis,
)
from .modules import CommutingTuple, GroupElement, validate
from .polynomials import MultiPoly, roots_with_multiplicity

Point = tuple  # tuple[Scalar, ...] of length d


@dataclass(frozen=True)
class Cycle:
    """A finite multiset of rational points, sorted, multiplicities >= 1."""

    field: Field
    d: int
    entries: tuple[tuple[Point, int], ...]

    @classmethod
    def make(cls, field: Field, d: int, pairs: Sequence[tuple[Point, int]]) -> "Cycle":
        merged: dict[Point, int] = {}
        for point, mult in pairs:
            if len(point) != d:
                raise ArityMismatchError(f"point {point} has {len(point)} coordinates, d = {d}")
            if mult <= 0:
                raise ValueError("multiplicities must be positive")
            p = tuple(point)
            merged[p] = merged.get(p, 0) + mult
        return cls(field, d, tuple(sorted(merged.items())))

    @property
    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def shift(self, c: Sequence[Scalar]) -> "Cycle":
        if len(c) != self.d:
            raise ArityMismatchError("translation vector of wrong length")
        F = self.field
        cc = tuple(F.of(x) for x in c)
        return Cycle.make(
            self.field, self.d,
            [(tuple(F.add(x, dx) for x, dx in zip(p, cc)), m) for p, m in self.entries],
        )

    def __add__(self, other: "Cycle") -> "Cycle":
        if self.field != other.field:
            raise MixedFieldsError("cycles over different fields")
        if self.d != other.d:
            raise ArityMismatchError("cycles of different arity")
        return Cycle.make(self.field, self.d, self.entries + other.entries)


@dataclass(frozen=True)
class LocalSummand:
    """One support point with its local block (supported at that point)
    and the change of basis shared by all summands of the localization."""

    point: Point
    local_module: CommutingTuple
    change_of_basis: GroupElement


Piece = tuple  # (point so far, size, blocks, cols, rows): see _split


def _split(t: CommutingTuple, frame: bool) -> list[Piece]:
    """The joint generalized eigenspaces, sorted by point, as pieces
    (point, size, blocks, cols, rows); blocks are the d coordinates on the
    piece in its own basis.

    Pass i splits a piece whose block B_i has several roots into V_lam =
    ker (B_i - lam)^mult.  A kernel vector is 1 at its own free column and 0
    at the others, so the restriction of B_j to V_lam (the X with B_j V_lam
    = V_lam X) is the rows of B_j V_lam at those columns.  Without frame
    only the blocks later passes read are restricted, and cols and rows are
    None.  With frame all are, cols is the piece's basis in the ambient
    space and rows the matching rows of its inverse: a split inverts
    [V_lam ...], and lam's rows W_lam of that inverse give W_lam · rows as
    V_lam gives cols · V_lam.  Raises NOT_SPLIT as soon as a characteristic
    polynomial in sight has an unsplit factor (sound: split support makes
    every one of them split).
    """
    F = t.field
    eye = Matrix.identity(F, t.n) if frame else None
    pieces: list[Piece] = [((), t.n, t.mats, eye, eye)] if t.n else []
    for i in range(t.d):
        refined = []
        for point, k, blocks, cols, rows in pieces:
            block = blocks[i]
            roots, cofactor = roots_with_multiplicity(char_poly(block))
            if cofactor.degree >= 1:
                raise NotSplitError(
                    "support is not rational over the base field",
                    degrees=[cofactor.degree],
                )
            if len(roots) == 1:
                refined.append((point + (roots[0][0],), k, blocks, cols, rows))
                continue
            spaces = []
            for lam, mult in roots:
                shifted = list(block.entries)  # block - lam I
                for r in range(0, k * k, k + 1):
                    shifted[r] = F.sub(shifted[r], lam)
                vecs = kernel_basis(Matrix(F, k, k, tuple(shifted)).power(mult))
                if len(vecs) != mult:
                    raise RuntimeError("generalized eigenspace of wrong dimension")
                # a free column is the last nonzero entry of its vector
                free = [max(j for j, x in enumerate(v) if x) for v in vecs]
                spaces.append((lam, columns_matrix(F, k, vecs), free))
            if frame:
                inv = inverse(hstack([v_lam for _, v_lam, _ in spaces]))
                if inv is None:
                    raise RuntimeError("eigenspace bases do not span")
            start = 0
            for lam, v_lam, free in spaces:
                m = len(free)
                sub = [
                    Matrix(F, m, k, tuple(x for r in free for x in b.row(r))) * v_lam
                    if frame or j > i else None
                    for j, b in enumerate(blocks)
                ]
                if not frame:
                    v_lam = w_lam = None
                else:
                    w_lam = Matrix(F, m, k, inv.entries[start * k : (start + m) * k])
                    if k < t.n:  # pieces only shrink, so only the whole space has cols = I
                        v_lam, w_lam = cols * v_lam, w_lam * rows
                refined.append((point + (lam,), m, sub, v_lam, w_lam))
                start += m
        pieces = refined
    pieces.sort(key=lambda piece: piece[0])
    return pieces


def cycle(t: CommutingTuple) -> Cycle:
    """The support cycle: each rational support point with the dimension
    of its joint generalized eigenspace.  Total equals n."""
    return Cycle.make(t.field, t.d, [(point, k) for point, k, *_ in _split(t, frame=False)])


def stratum(c: Cycle) -> tuple[int, ...]:
    """The partition vector alpha of a cycle: alpha[i-1] parts of size i,
    sum i*alpha[i-1] = n."""
    n = c.total
    alpha = [0] * n
    for _, m in c.entries:
        alpha[m - 1] += 1
    return tuple(alpha)


def partition_notation(alpha: Sequence[int]) -> str:
    parts = [f"{i + 1}^{a}" for i, a in enumerate(alpha) if a]
    return " ".join(parts) if parts else "()"


def localize(t: CommutingTuple) -> list[LocalSummand]:
    """Split t into blocks along its support.

    Returns one summand per support point, sorted by point; the shared
    change of basis g satisfies: conjugate(t, g) is block diagonal with
    exactly these blocks in order.  Each block, translated by -point, is
    punctual; the direct sum of the blocks is isomorphic to t.  The blocks
    are those ``_split`` holds; g^-1 = P has the pieces' ambient bases as
    columns, and g stacks the matching rows of P^-1.
    """
    pieces = _split(t, frame=True)
    if not pieces:
        return []
    p = hstack([cols for *_, cols, _ in pieces])
    p_inv = Matrix(t.field, t.n, t.n, tuple(x for *_, rows in pieces for x in rows.entries))
    g = GroupElement(p_inv, p)
    return [LocalSummand(point, validate(blocks), g) for point, _, blocks, _, _ in pieces]


def det_pushforward(f: MultiPoly, t: CommutingTuple) -> Scalar:
    """det f(A_1, ..., A_d); on split tuples this equals
    prod over the cycle of f(point)^mult."""
    if f.nvars != t.d:
        raise ArityMismatchError(f"polynomial in {f.nvars} variables, tuple has d = {t.d}")
    return det(eval_multipoly(f, t.mats))
