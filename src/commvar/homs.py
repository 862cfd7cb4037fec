"""Intertwiner spaces, isomorphism testing and minimal generator counts.

Hom(s, t) is the space of matrices h with h A_i = B_i h for every
coordinate; s and t are isomorphic exactly when that space contains an
invertible element, and then dim Hom(s, t) = dim End(s) = dim End(t), so
unequal dimensions answer "absent" at once.  Otherwise existence is
decided by asking ``inverse`` of combinations of a Hom basis on a finite
grid of coefficient vectors: det of the combination is a polynomial of
degree n in the coefficients, one that vanishes on a grid with n+1 values
per axis is identically zero, and over F_p with p <= n the full cartesian
power of the field is used instead, which enumerates the whole space.
The search never answers "absent" beyond its budget; it raises
GRID_BUDGET_EXCEEDED.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .config import DEFAULT_CONFIG, RunConfig
from .errors import (
    ArityMismatchError,
    GridBudgetExceededError,
    MixedFieldsError,
    NotPunctualError,
)
from .fields import Field, Scalar
from .matrices import Matrix, char_poly, hstack, intertwining_system, inverse, kernel_basis, rank
from .modules import CommutingTuple, GroupElement, is_punctual
from .cycles import cycle
from .errors import NotSplitError


@dataclass(frozen=True)
class HomSpace:
    source: CommutingTuple
    target: CommutingTuple
    basis: tuple[Matrix, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def _compatible(s: CommutingTuple, t: CommutingTuple) -> None:
    if s.field != t.field:
        raise MixedFieldsError("tuples over different fields")
    if s.d != t.d:
        raise ArityMismatchError(f"tuples of different arity: {s.d} vs {t.d}")


def hom_basis(s: CommutingTuple, t: CommutingTuple) -> HomSpace:
    """Basis of {h : h A_i^s = A_i^t h for all i}, an (t.n x s.n)-matrix space.

    Deterministic: vectors come from the kernel of the stacked intertwining
    system in row-major coordinates.
    """
    _compatible(s, t)
    F = s.field
    if s.n * t.n == 0:
        return HomSpace(s, t, ())
    system = intertwining_system(s.mats, t.mats)
    basis = [Matrix(F, t.n, s.n, tuple(v)) for v in kernel_basis(system)]
    return HomSpace(s, t, tuple(basis))


def aut_dim(t: CommutingTuple) -> int:
    """Dimension of End(t) = Hom(t, t); at least 1 when n >= 1."""
    return hom_basis(t, t).dim


def _coefficients(field: Field, n: int, dim: int, config: RunConfig) -> Iterator[Sequence[Scalar]]:
    """Coefficient vectors over a Hom basis, in the order they are tried:
    each basis element, then (when dim > 1) their sum, then the grid in
    lexicographic order, or 1024 seeded draws from it beyond the grid
    budget.  The grid has n + 1 values per axis, enough to see a nonzero
    degree-n det, or all of F_p when p <= n, which is the whole space."""
    zero, one = field.zero(), field.one()
    for i in range(dim):
        yield [one if j == i else zero for j in range(dim)]
    if dim > 1:
        yield [one] * dim
    p = field.characteristic
    values = [field.of(k) for k in range(p if p and p <= n else n + 1)]
    if dim <= config.grid_budget:
        yield from itertools.product(values, repeat=dim)
        return
    rng = random.Random(config.seed)
    for _ in range(1024):
        yield [values[rng.randrange(len(values))] for _ in range(dim)]


def _try_certificate(
    h: Matrix, s: CommutingTuple, t: CommutingTuple
) -> Optional[GroupElement]:
    h_inv = inverse(h)
    if h_inv is None:
        return None
    # Certificates are sound by construction; re-verify exactly anyway.
    for a, b in zip(s.mats, t.mats):
        if not (h * a - b * h).is_zero():
            raise RuntimeError("certificate fails to intertwine")
    return GroupElement(h, h_inv)


def is_isomorphic(
    s: CommutingTuple, t: CommutingTuple, config: RunConfig = DEFAULT_CONFIG
) -> Optional[GroupElement]:
    """An invertible intertwiner g (conjugate(s, g) == t), or None.

    Invariant checks run first: coordinate characteristic polynomials, the
    support cycle, and dim Hom(s, t) = dim End(s) = dim End(t), which any
    isomorphism forces.  Then one deterministic certificate search over
    Hom(s, t) asks ``inverse`` of each candidate combination in the order
    of ``_coefficients``.  Beyond the configured grid dimension the seeded
    draws cannot prove absence, so GRID_BUDGET_EXCEEDED is raised instead;
    "absent" is only ever answered soundly.
    """
    _compatible(s, t)
    if s.n != t.n:
        return None
    F = s.field
    if s.n == 0:
        e = Matrix.zero(F, 0, 0)
        return GroupElement(e, e)
    for a, b in zip(s.mats, t.mats):
        if char_poly(a) != char_poly(b):
            return None
    try:
        if cycle(s) != cycle(t):
            return None
    except NotSplitError:
        pass
    hom = hom_basis(s, t)
    if not hom.dim == aut_dim(s) == aut_dim(t):
        return None
    columns = list(zip(*(b.entries for b in hom.basis)))  # entry e of each basis element
    zero = F.zero()
    for coeffs in _coefficients(F, s.n, hom.dim, config):
        terms = [(j, c) for j, c in enumerate(coeffs) if c != zero]
        h = Matrix(F, t.n, s.n, tuple(F.of(sum(c * col[j] for j, c in terms)) for col in columns))
        g = _try_certificate(h, s, t)
        if g is not None:
            return g
    if hom.dim <= config.grid_budget:
        return None
    raise GridBudgetExceededError(
        f"Hom dimension {hom.dim} exceeds grid budget {config.grid_budget} "
        "and randomized trials found no invertible element",
        hom_dim=hom.dim,
        grid_budget=config.grid_budget,
        trials=1024,
    )


def min_generators(t: CommutingTuple) -> int:
    """Minimal generator count of a punctual module: n - rank [A_1|...|A_d].

    That is dim of the quotient by the image of the maximal ideal at 0.
    Non-punctual input raises NOT_PUNCTUAL; localize first and sum over
    the summands instead.
    """
    if not is_punctual(t):
        raise NotPunctualError("min_generators needs a punctual tuple; localize first")
    if t.n == 0:
        return 0
    return t.n - rank(hstack(list(t.mats)))
