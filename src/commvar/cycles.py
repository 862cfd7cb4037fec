"""Support cycles, partition strata and localization.

The support cycle of a commuting tuple records each joint eigenvalue
(a point of affine d-space) with the dimension of its joint generalized
eigenspace.  Points must be rational over the base field: a tuple whose
support lives in an extension raises NOT_SPLIT rather than answering
approximately.

Algorithm: refine one coordinate at a time.  Split the space by the roots
of char_poly(A_1) into generalized eigenspaces; then restrict A_2 to each
piece and split it by the roots of the restriction, and so on.  Commuting
maps preserve each other's primary components, so this needs no
separating linear form and works over every field, however small.  Each
coordinate of a point is read off as a root of a characteristic
polynomial.  (Never as trace/dim, which lies over F_p when p divides the
block size.)
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
    solve,
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


Part = tuple  # (point so far, basis columns of its piece in the ambient space)


def _restrict(a: Matrix, basis: Matrix) -> Matrix:
    """a on the a-invariant span of basis's columns: the unique X with
    basis * X = a * basis."""
    if basis.cols == a.rows:
        # pieces only shrink when split, so a whole-space piece has basis I
        return a
    x = solve(basis, a * basis)
    if x is None:
        raise RuntimeError("joint eigenspace not invariant")
    return x


def _support(t: CommutingTuple) -> list[Part]:
    """Joint generalized eigenspace decomposition over the base field:
    (point, basis columns) per support point, sorted by point.  Pass i
    splits every piece by the roots of A_i restricted to it, appending the
    root to the piece's point.  Raises NOT_SPLIT as soon as a characteristic
    polynomial in sight has an unsplit factor (sound: split support makes
    every one of them split)."""
    F = t.field
    parts: list[Part] = [((), Matrix.identity(F, t.n))] if t.n else []
    for a in t.mats:
        refined = []
        for point, basis in parts:
            block = _restrict(a, basis)
            roots, cofactor = roots_with_multiplicity(char_poly(block))
            if cofactor.degree >= 1:
                raise NotSplitError(
                    "support is not rational over the base field",
                    degrees=[cofactor.degree],
                )
            if len(roots) == 1:
                refined.append((point + (roots[0][0],), basis))
                continue
            eye = Matrix.identity(F, block.rows)
            for lam, mult in roots:
                vecs = kernel_basis((block - eye.scale(lam)).power(mult))
                if len(vecs) != mult:
                    raise RuntimeError("generalized eigenspace of wrong dimension")
                refined.append((point + (lam,), basis * columns_matrix(F, block.rows, vecs)))
        parts = refined
    parts.sort(key=lambda part: part[0])
    return parts


def cycle(t: CommutingTuple) -> Cycle:
    """The support cycle: each rational support point with the dimension
    of its joint generalized eigenspace.  Total equals n."""
    return Cycle.make(t.field, t.d, [(point, basis.cols) for point, basis in _support(t)])


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
    punctual; the direct sum of the blocks is isomorphic to t.
    """
    parts = _support(t)
    if not parts:
        return []
    basis_all = hstack([basis for _, basis in parts])
    p_inv = inverse(basis_all)
    if p_inv is None:
        raise RuntimeError("eigenspace bases do not span")
    g = GroupElement(p_inv, basis_all)
    return [
        LocalSummand(point, validate([_restrict(a, basis) for a in t.mats]), g)
        for point, basis in parts
    ]


def det_pushforward(f: MultiPoly, t: CommutingTuple) -> Scalar:
    """det f(A_1, ..., A_d); on split tuples this equals
    prod over the cycle of f(point)^mult."""
    if f.nvars != t.d:
        raise ArityMismatchError(f"polynomial in {f.nvars} variables, tuple has d = {t.d}")
    return det(eval_multipoly(f, t.mats))
