"""Intertwiner spaces, isomorphism testing and minimal generator counts.

Hom(s, t) is the space of matrices h with h A_i = B_i h for every
coordinate; s and t are isomorphic exactly when that space contains an
invertible element.  ``hom_basis`` reads a basis off the kernel of the
intertwining system; ``hom_dim`` and ``aut_dim`` read only its rank, on
integer rows, and build no basis.  The first candidates, each element of a
Hom basis and their sum, settle most isomorphic pairs with one Hom basis.
When none is invertible, dim Hom(s, t) = dim End(s) = dim End(t), which any
isomorphism forces, is checked, and unequal dimensions answer "absent".
Otherwise existence is decided by asking ``inverse`` of combinations of
the basis on a finite grid of coefficient vectors: det of the combination
is a polynomial of degree n in the coefficients, one that vanishes on a
grid with n+1 values per axis is identically zero, and over F_p with
p <= n the full cartesian power of the field is used instead, which
enumerates the whole space.  The search never answers "absent" beyond its
budget; it raises GRID_BUDGET_EXCEEDED.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .config import DEFAULT_CONFIG, RunConfig
from .errors import (
    ArityMismatchError,
    GridBudgetExceededError,
    MixedFieldsError,
    NotPunctualError,
)
from .fields import Field, Scalar
from .matrices import (
    Matrix,
    _eliminate,
    _intertwining_blocks,
    char_poly,
    hstack,
    intertwines,
    intertwining_system,
    inverse,
    kernel_basis,
    rank,
)
from .modules import CommutingTuple, GroupElement, is_punctual


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
    system = intertwining_system(s.mats, t.mats)
    basis = [Matrix(s.field, t.n, s.n, tuple(v)) for v in kernel_basis(system)]
    return HomSpace(s, t, tuple(basis))


def hom_dim(s: CommutingTuple, t: CommutingTuple) -> int:
    """dim Hom(s, t): the t.n * s.n unknowns less the rank of the
    intertwining system, built and eliminated on integer rows."""
    _compatible(s, t)
    rows = [row for _, block in _intertwining_blocks(s.mats, t.mats) for row in block]
    return t.n * s.n - len(_eliminate(rows, t.n * s.n, s.field.characteristic))


def aut_dim(t: CommutingTuple) -> int:
    """Dimension of End(t) = Hom(t, t); at least 1 when n >= 1."""
    return hom_dim(t, t)


def _first_candidates(field: Field, dim: int) -> Iterator[Sequence[Scalar]]:
    """Each basis element, then (when dim > 1) their sum."""
    zero, one = field.zero(), field.one()
    for i in range(dim):
        yield [one if j == i else zero for j in range(dim)]
    if dim > 1:
        yield [one] * dim


def _search(field: Field, n: int, dim: int, config: RunConfig) -> Iterator[Sequence[Scalar]]:
    """The coefficient grid in lexicographic order, or 1024 seeded draws
    from it beyond the grid budget.  The grid has n + 1 values per axis,
    enough to see a nonzero degree-n det, or all of F_p when p <= n, which
    is the whole space."""
    p = field.characteristic
    values = [field.of(k) for k in range(p if p and p <= n else n + 1)]
    if dim <= config.grid_budget:
        yield from itertools.product(values, repeat=dim)
        return
    rng = random.Random(config.seed)
    for _ in range(1024):
        yield [values[rng.randrange(len(values))] for _ in range(dim)]


def _certify(hom: HomSpace, candidates: Iterable[Sequence[Scalar]]) -> Optional[GroupElement]:
    """The first invertible combination of the Hom basis among the candidate
    coefficient vectors, re-verified exactly, or None."""
    s, t = hom.source, hom.target
    F = s.field
    columns = list(zip(*(b.entries for b in hom.basis)))  # entry e of each basis element
    zero = F.zero()
    for coeffs in candidates:
        terms = [(j, c) for j, c in enumerate(coeffs) if c != zero]
        h = Matrix(F, t.n, s.n, tuple(F.of(sum(c * col[j] for j, c in terms)) for col in columns))
        h_inv = inverse(h)
        if h_inv is None:
            continue
        # Certificates are sound by construction; re-verify exactly anyway.
        for a, b in zip(s.mats, t.mats):
            if not intertwines(h, a, b):
                raise RuntimeError("certificate fails to intertwine")
        return GroupElement(h, h_inv)
    return None


def is_isomorphic(
    s: CommutingTuple, t: CommutingTuple, config: RunConfig = DEFAULT_CONFIG
) -> Optional[GroupElement]:
    """An invertible intertwiner g (conjugate(s, g) == t), or None.

    Unequal coordinate characteristic polynomials answer None at once.
    Otherwise one Hom(s, t) basis is computed, and ``inverse`` is asked of
    each basis element and then of their sum; the first invertible one is
    the certificate.  Only when none is invertible are End(s) and End(t)
    computed: dim Hom(s, t) = dim End(s) = dim End(t) holds for any
    isomorphic pair, so unequal dimensions answer None.  Then the grid of
    ``_search`` is scanned.  Beyond the configured grid dimension its
    seeded draws cannot prove absence, so GRID_BUDGET_EXCEEDED is raised
    instead; "absent" is only ever answered soundly.
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
    hom = hom_basis(s, t)
    g = _certify(hom, _first_candidates(F, hom.dim))
    if g is not None:
        return g
    if not hom.dim == aut_dim(s) == aut_dim(t):
        return None
    g = _certify(hom, _search(F, s.n, hom.dim, config))
    if g is not None or hom.dim <= config.grid_budget:
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
