"""Support cycles, partition strata and localization.

The support cycle of a commuting tuple records each joint eigenvalue
(a point of affine d-space) with the dimension of its joint generalized
eigenspace.  Points must be rational over the base field: a tuple whose
support lives in an extension raises NOT_SPLIT rather than answering
approximately.

Algorithm: pick a separating linear form L = sum c_i A_i from a fixed
deterministic candidate sequence, split its characteristic polynomial,
compute joint generalized eigenspaces, and read each coordinate off as the
unique root of the restricted coordinate matrix's characteristic
polynomial.  (Never as trace/dim, which lies over F_p when p divides the
block size.)
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .config import DEFAULT_CONFIG, RunConfig
from .errors import (
    ArityMismatchError,
    GenericityExhaustedError,
    MixedFieldsError,
    NotSplitError,
)
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


def _separating_candidates(field: Field, d: int, budget: int) -> Iterator[tuple[Scalar, ...]]:
    """Deterministic candidate coefficient vectors for the separating form:
    standard basis vectors first, then geometric vectors (1, k, k^2, ...)."""
    seen: set[tuple[Scalar, ...]] = set()
    emitted = 0

    def emit(c: tuple[Scalar, ...]) -> Optional[tuple[Scalar, ...]]:
        nonlocal emitted
        if c in seen or emitted >= budget:
            return None
        seen.add(c)
        emitted += 1
        return c

    zero, one = field.zero(), field.one()
    for i in range(d):
        c = emit(tuple(one if j == i else zero for j in range(d)))
        if c is not None:
            yield c
        if emitted >= budget:
            return
    p = field.characteristic
    k = 1
    while emitted < budget:
        if p and k >= p:
            return  # geometric vectors repeat beyond k = p - 1
        kk = field.of(k)
        acc = one
        vec = []
        for _ in range(d):
            vec.append(acc)
            acc = field.mul(acc, kk)
        c = emit(tuple(vec))
        if c is not None:
            yield c
        k += 1


def _decompose(
    t: CommutingTuple, config: RunConfig
) -> list[tuple[Point, Matrix, list[Matrix]]]:
    """Joint generalized eigenspace decomposition over the base field.

    Returns per support point: (point, basis columns, restricted coordinate
    matrices), sorted by point.  Raises NOT_SPLIT as soon as any
    characteristic polynomial in sight has an unsplit factor (sound:
    split support makes every one of them split), and
    GENERICITY_EXHAUSTED when all candidates collide.
    """
    F = t.field
    n, d = t.n, t.d
    if n == 0:
        return []
    tried = 0
    for c in _separating_candidates(F, d, config.genericity_budget):
        tried += 1
        sep = Matrix.zero(F, n, n)
        for ci, a in zip(c, t.mats):
            sep = sep + a.scale(ci)
        chi = char_poly(sep)
        roots, cofactor = roots_with_multiplicity(chi)
        if cofactor.degree >= 1:
            raise NotSplitError(
                "support is not rational over the base field",
                degrees=[cofactor.degree],
            )
        eye = Matrix.identity(F, n)
        parts: list[tuple[Point, Matrix, list[Matrix]]] = []
        collided = False
        for lam, mult in roots:
            shifted = sep - eye.scale(lam)
            vecs = kernel_basis(shifted.power(mult))
            if len(vecs) != mult:
                raise RuntimeError("generalized eigenspace of wrong dimension")
            basis = columns_matrix(F, n, vecs)
            blocks: list[Matrix] = []
            point: list[Scalar] = []
            for a in t.mats:
                restricted = solve(basis, a * basis)
                if restricted is None:
                    raise RuntimeError("joint eigenspace not invariant")
                rchi = char_poly(restricted)
                rroots, rcof = roots_with_multiplicity(rchi)
                if rcof.degree >= 1:
                    raise NotSplitError(
                        "support is not rational over the base field",
                        degrees=[rcof.degree],
                    )
                if len(rroots) != 1:
                    collided = True
                    break
                point.append(rroots[0][0])
                blocks.append(restricted)
            if collided:
                break
            parts.append((tuple(point), basis, blocks))
        if not collided:
            parts.sort(key=lambda pbb: pbb[0])
            return parts
    raise GenericityExhaustedError(
        "no separating linear form within budget", candidates_tried=tried
    )


def cycle(t: CommutingTuple, config: RunConfig = DEFAULT_CONFIG) -> Cycle:
    """The support cycle: each rational support point with the dimension
    of its joint generalized eigenspace.  Total equals n."""
    parts = _decompose(t, config)
    return Cycle.make(t.field, t.d, [(point, basis.cols) for point, basis, _ in parts])


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


def localize(t: CommutingTuple, config: RunConfig = DEFAULT_CONFIG) -> list[LocalSummand]:
    """Split t into blocks along its support.

    Returns one summand per support point, sorted by point; the shared
    change of basis g satisfies: conjugate(t, g) is block diagonal with
    exactly these blocks in order.  Each block, translated by -point, is
    punctual; the direct sum of the blocks is isomorphic to t.
    """
    parts = _decompose(t, config)
    if not parts:
        return []
    F = t.field
    basis_all = hstack([basis for _, basis, _ in parts])
    p_inv = inverse(basis_all)
    if p_inv is None:
        raise RuntimeError("eigenspace bases do not span")
    g = GroupElement(p_inv, basis_all)
    return [
        LocalSummand(point, validate(blocks), g)
        for point, _, blocks in parts
    ]


def det_pushforward(f: MultiPoly, t: CommutingTuple, config: RunConfig = DEFAULT_CONFIG) -> Scalar:
    """det f(A_1, ..., A_d); on split tuples this equals
    prod over the cycle of f(point)^mult."""
    if f.nvars != t.d:
        raise ArityMismatchError(f"polynomial in {f.nvars} variables, tuple has d = {t.d}")
    if t.n == 0:
        return t.field.one()
    return det(eval_multipoly(f, t.mats))
