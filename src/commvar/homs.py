"""Intertwiner spaces, isomorphism testing and minimal generator counts.

Hom(s, t) is the space of matrices h with h A_i = B_i h for every
coordinate; s and t are isomorphic exactly when that space contains an
invertible element.  It is the kernel of delta^0, the first Koszul
differential h -> (h A_i - B_i h)_i of ``matrices._koszul_rows``:
``hom_basis`` reads a basis off it, while ``hom_dim``, ``aut_dim`` and
``min_generators`` (dim Hom(t, k_0), k_0 the point module at the origin)
read only its rank.  A candidate isomorphism is an integer combination of
the Hom basis cleared over one common denominator, and it is tested by the
rank of its integer rows: a singular candidate costs no ``Fraction`` and no
``inverse``, and only the first invertible one is divided back and
inverted.  All candidates come in one stream over one cleared Hom basis:
first each element of the basis and their sum, then the first dim(Hom)
points of the search, which skips the points with at most one nonzero
coefficient (zero, or a multiple of a basis element already tried).  These
settle most isomorphic pairs, so only after they all fail are
dim Hom(s, t), dim End(s), dim End(t) and dim Hom(t, s) compared, in that
order; any isomorphism makes the four equal, so unequal ones answer "absent".
Otherwise the search goes on.  It decides existence by the rank of
combinations of the basis on a finite grid of coefficient vectors: det of
the combination is a polynomial of degree n in the coefficients, one that
vanishes on a grid with n+1 values per axis is identically zero, and over
F_p with p <= n the full cartesian power of the field is used instead,
which enumerates the whole space.  The search never answers "absent" beyond
its budget; it raises GRID_BUDGET_EXCEEDED.
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
from .fields import Field
from .matrices import Matrix, _kernel, _koszul_rows, char_poly, intertwines, inverse
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

    Deterministic: vectors are the kernel ``_kernel`` reads off the int
    rows of the Koszul differential delta^0, ``_koszul_rows(..., 0)``, in
    row-major coordinates.
    """
    _compatible(s, t)
    vectors = _kernel(_koszul_rows(s.mats, t.mats, 0), t.n * s.n, s.field)
    return HomSpace(s, t, tuple(Matrix(s.field, t.n, s.n, v) for v in vectors))


def hom_dim(s: CommutingTuple, t: CommutingTuple) -> int:
    """dim Hom(s, t): the t.n * s.n unknowns less the rank of delta^0."""
    _compatible(s, t)
    return t.n * s.n - len(s.field.eliminate(_koszul_rows(s.mats, t.mats, 0), t.n * s.n))


def aut_dim(t: CommutingTuple) -> int:
    """Dimension of End(t) = Hom(t, t); at least 1 when n >= 1."""
    return hom_dim(t, t)


def _first_candidates(dim: int) -> Iterator[Sequence[int]]:
    """Coefficients of each basis element, then (when dim > 1) their sum."""
    for i in range(dim):
        yield [1 if j == i else 0 for j in range(dim)]
    if dim > 1:
        yield [1] * dim


def _search(field: Field, n: int, dim: int, config: RunConfig) -> Iterator[Sequence[int]]:
    """The coefficient grid in lexicographic order, or 1024 seeded draws
    from it beyond the grid budget.  The grid has the n + 1 values 0..n per
    axis, enough to see a nonzero degree-n det, or 0..p-1 when 0..n hold
    only p distinct scalars: all residues of F_p when p <= n, which is the
    whole space."""
    values = range(len(set(map(field.of, range(n + 1)))))
    if dim <= config.grid_budget:
        yield from itertools.product(values, repeat=dim)
        return
    rng = random.Random(config.seed)
    for _ in range(1024):
        yield [values[rng.randrange(len(values))] for _ in range(dim)]


def _certify(hom: HomSpace, candidates: Iterable[Sequence[int]]) -> Optional[GroupElement]:
    """The first invertible combination of the Hom basis among the candidate
    integer coefficient vectors, re-verified exactly, or None.

    The field clears the basis once into int columns over one common
    denominator D, so each candidate is an int combination H = D h of them,
    the field's ``products``, whose rank the field's ``eliminate`` reads.
    Only the first H of full rank is lifted to h = H / D and inverted.
    """
    s, t = hom.source, hom.target
    F, n = s.field, s.n
    den, cleared = F.clear([x for b in hom.basis for x in b.entries])
    size = n * n
    columns = [cleared[e::size] for e in range(size)]  # entry e of each basis element
    for coeffs in candidates:
        H = F.products([coeffs], columns)
        if len(F.eliminate([H[i * n : (i + 1) * n] for i in range(n)], n)) < n:
            continue
        h = Matrix(F, n, n, tuple(F.lift(x, den) for x in H))
        h_inv = inverse(h)
        if h_inv is None:
            raise RuntimeError("full-rank certificate candidate has no inverse")
        # Certificates are sound by construction; re-verify exactly anyway.
        for a, b in zip(s.mats, t.mats):
            if not intertwines(h, a, b):
                raise RuntimeError("certificate fails to intertwine")
        return GroupElement(h, h_inv)
    return None


def _candidates(
    s: CommutingTuple, t: CommutingTuple, dim: int, config: RunConfig
) -> Iterator[Sequence[int]]:
    """The coefficient vectors ``is_isomorphic`` tests, in order: the first
    candidates, then the first dim points of ``_search``; then, only if
    dim Hom(s, t) = dim End(s) = dim End(t) = dim Hom(t, s) (else the stream
    ends), the rest of the search, and GRID_BUDGET_EXCEEDED once its seeded
    draws run out.  Each dimension is computed only if those before agree.

    Search points with at most one nonzero coefficient are skipped: the zero
    vector, and multiples c·e_i of a basis element, which the first
    candidates already found singular (c is a unit)."""
    yield from _first_candidates(dim)
    points = (c for c in _search(s.field, s.n, dim, config) if len(c) - c.count(0) > 1)
    yield from itertools.islice(points, dim)
    if not dim == aut_dim(s) == aut_dim(t) == hom_dim(t, s):
        return
    yield from points
    if dim > config.grid_budget:
        raise GridBudgetExceededError(
            f"Hom dimension {dim} exceeds grid budget {config.grid_budget} "
            "and randomized trials found no invertible element",
            hom_dim=dim,
            grid_budget=config.grid_budget,
            trials=1024,
        )


def is_isomorphic(
    s: CommutingTuple, t: CommutingTuple, config: RunConfig = DEFAULT_CONFIG
) -> Optional[GroupElement]:
    """An invertible intertwiner g (conjugate(s, g) == t), or None.

    Unequal coordinate characteristic polynomials answer None at once.
    Otherwise one Hom(s, t) basis is computed and the candidates of
    ``_candidates`` are tested on it in turn, each by the rank of its
    integer rows; the first invertible one is inverted once and is the
    certificate.  Each basis element, their sum and the first dim(Hom)
    search points with two or more nonzero coefficients come first.  Only
    when none of them is invertible are dim End(s), dim End(t) and
    dim Hom(t, s) computed: the four dimensions are equal for any isomorphic
    pair, so unequal ones decide absence and answer None.  Then the rest of
    the grid of ``_search`` is scanned.  Beyond the configured grid
    dimension its seeded draws cannot prove absence, so GRID_BUDGET_EXCEEDED
    is raised instead; "absent" is only ever answered soundly.
    """
    _compatible(s, t)
    if s.n != t.n:
        return None
    if s.n == 0:
        e = Matrix.zero(s.field, 0, 0)
        return GroupElement(e, e)
    for a, b in zip(s.mats, t.mats):
        if char_poly(a) != char_poly(b):
            return None
    hom = hom_basis(s, t)
    return _certify(hom, _candidates(s, t, hom.dim, config))


def min_generators(t: CommutingTuple) -> int:
    """Minimal generator count of a punctual module: dim Hom(t, k_0), k_0
    the one-dimensional module at the origin, where every coordinate is 0.

    That is dim of the quotient by the image of the maximal ideal at 0.
    Non-punctual input raises NOT_PUNCTUAL; localize first and sum over
    the summands instead.
    """
    if not is_punctual(t):
        raise NotPunctualError("min_generators needs a punctual tuple; localize first")
    point = Matrix.zero(t.field, 1, 1)
    return hom_dim(t, CommutingTuple(t.field, 1, t.d, (point,) * t.d))
