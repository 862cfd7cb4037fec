"""Intertwiner spaces, isomorphism testing and minimal generator counts.

Hom(s, t) is the space of matrices h with h A_i = B_i h for every
coordinate; s and t are isomorphic exactly when that space contains an
invertible element.  Existence is decided by evaluating det on a finite
grid of coefficient vectors: a degree-n polynomial that vanishes on a
grid with n+1 values per axis is identically zero, and over F_p with
p <= n the full cartesian power of the field is used instead, which
enumerates the whole space.  The search never answers "absent" beyond its
budget; it raises GRID_BUDGET_EXCEEDED.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .config import DEFAULT_CONFIG, RunConfig
from .errors import (
    ArityMismatchError,
    GridBudgetExceededError,
    MixedFieldsError,
    NotPunctualError,
)
from .fields import Field, Scalar
from .matrices import Matrix, char_poly, det, hstack, intertwining_system, kernel_basis, rank
from .modules import CommutingTuple, GroupElement, group_element, is_punctual
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


def _grid_values(field: Field, n: int) -> list[Scalar]:
    p = field.characteristic
    if p and p <= n:
        return [field.of(k) for k in range(p)]
    return [field.of(k) for k in range(n + 1)]


def _try_certificate(
    h: Matrix, s: CommutingTuple, t: CommutingTuple
) -> Optional[GroupElement]:
    if det(h) == h.field.zero():
        return None
    g = group_element(h)
    # Certificates are sound by construction; re-verify exactly anyway.
    for a, b in zip(s.mats, t.mats):
        if not (h * a - b * h).is_zero():
            raise RuntimeError("certificate fails to intertwine")
    return g


def is_isomorphic(
    s: CommutingTuple, t: CommutingTuple, config: RunConfig = DEFAULT_CONFIG
) -> Optional[GroupElement]:
    """An invertible intertwiner g (conjugate(s, g) == t), or None.

    Fast-path invariant checks run first; then a deterministic certificate
    search over Hom(s, t): each basis element and their sum, then the
    coefficient grid in lexicographic order.  Beyond the configured grid
    dimension, 1024 seeded pseudorandom trials run before raising
    GRID_BUDGET_EXCEEDED; "absent" is only ever answered soundly.
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
    if aut_dim(s) != aut_dim(t):
        return None
    hom = hom_basis(s, t)
    if hom.dim == 0:
        return None
    # Deterministic pre-pass: single basis elements, then their sum.
    total = hom.basis[0]
    g = _try_certificate(total, s, t)
    if g is not None:
        return g
    for h in hom.basis[1:]:
        g = _try_certificate(h, s, t)
        if g is not None:
            return g
        total = total + h
    if hom.dim > 1:
        g = _try_certificate(total, s, t)
        if g is not None:
            return g
    values = _grid_values(F, s.n)
    if hom.dim <= config.grid_budget:
        for coeffs in itertools.product(values, repeat=hom.dim):
            h = Matrix.zero(F, t.n, s.n)
            for x, basis_el in zip(coeffs, hom.basis):
                if x != F.zero():
                    h = h + basis_el.scale(x)
            g = _try_certificate(h, s, t)
            if g is not None:
                return g
        return None
    rng = random.Random(config.seed)
    for _ in range(1024):
        h = Matrix.zero(F, t.n, s.n)
        for basis_el in hom.basis:
            x = values[rng.randrange(len(values))]
            if x != F.zero():
                h = h + basis_el.scale(x)
        g = _try_certificate(h, s, t)
        if g is not None:
            return g
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
