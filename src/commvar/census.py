"""Exhaustive censuses of commuting tuples over prime fields.

Counts are exact; the groupoid count raw/|GL_n(F_q)| is a rational number
and the Burnside identity sum(1/|Aut|) over orbits reproduces it.  The
enumerator walks centralizer chains rather than all q^(d n^2) tuples: the
first coordinate ranges over all matrices, each later coordinate over the
joint centralizer of the prefix, so commutation never needs rechecking.
A request whose nominal size q^(d n^2) exceeds the budget is refused
whole; counts are never truncated.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .config import DEFAULT_CONFIG, RunConfig
from .errors import (
    ArityMismatchError,
    BudgetExceededError,
    NonprimeQError,
    NotSplitError,
)
from .fields import GF, is_prime
from .matrices import Matrix, intertwining_system, kernel_basis
from .modules import CommutingTuple, GroupElement, conjugate, inverse, is_punctual
from .cycles import cycle, stratum
from .polynomials import MultiPoly
from .modules import check_relations


def gl_order(n: int, q: int) -> int:
    """|GL_n(F_q)| = prod_{i=0}^{n-1} (q^n - q^i); 1 for n = 0."""
    if not is_prime(q):
        raise NonprimeQError(f"{q} is not prime", q=q)
    if n < 0:
        raise ValueError("negative size")
    out = 1
    qn = q**n
    for i in range(n):
        out *= qn - q**i
    return out


@dataclass(frozen=True)
class CensusRequest:
    n: int
    d: int
    q: int
    nilpotent: bool = False
    per_stratum: bool = False
    relations: tuple[MultiPoly, ...] = ()


@dataclass(frozen=True)
class CensusResult:
    n: int
    d: int
    q: int
    raw_count: int
    gl_order: int
    groupoid_count: Fraction
    per_stratum: Optional[dict[tuple[int, ...], int]]
    unsplit_count: Optional[int]


@dataclass(frozen=True)
class Orbit:
    representative: CommutingTuple
    orbit_size: int
    aut_order: int


def _all_matrices(fieldobj, n: int) -> Iterator[Matrix]:
    for entries in itertools.product(range(fieldobj.characteristic), repeat=n * n):
        yield Matrix(fieldobj, n, n, entries)


def _centralizer_basis(prefix: Sequence[Matrix], fieldobj, n: int) -> list[Matrix]:
    """Basis of {X : A X = X A for all A in prefix}."""
    system = intertwining_system(prefix, prefix)
    return [Matrix(fieldobj, n, n, tuple(v)) for v in kernel_basis(system)]


def _span_elements(basis: Sequence[Matrix], fieldobj, n: int) -> Iterator[Matrix]:
    q = fieldobj.characteristic
    if not basis:
        yield Matrix.zero(fieldobj, n, n)
        return
    for coeffs in itertools.product(range(q), repeat=len(basis)):
        m = Matrix.zero(fieldobj, n, n)
        for c, b in zip(coeffs, basis):
            if c:
                m = m + b.scale(c)
        yield m


def _check_budget(req_size: int, config: RunConfig) -> None:
    if req_size > config.census_budget:
        raise BudgetExceededError(
            f"nominal enumeration size {req_size} exceeds budget {config.census_budget}",
            size=req_size,
            budget=config.census_budget,
        )


def _commuting_tuples(n: int, d: int, q: int, config: RunConfig) -> Iterator[CommutingTuple]:
    """All points of the commuting variety over F_q, in lexicographic order
    of the concatenated row-major coordinate entries."""
    if not is_prime(q):
        raise NonprimeQError(f"{q} is not prime", q=q)
    if d < 1:
        raise ArityMismatchError("census needs d >= 1")
    if n < 0:
        raise ValueError("negative size")
    _check_budget(q ** (d * n * n), config)
    F = GF(q)

    def extend(prefix: list[Matrix]) -> Iterator[CommutingTuple]:
        if len(prefix) == d:
            yield CommutingTuple(F, n, d, tuple(prefix))
            return
        if n == 0:
            yield from extend(prefix + [Matrix.zero(F, 0, 0)])
            return
        if not prefix:
            for m in _all_matrices(F, n):
                yield from extend([m])
            return
        basis = _centralizer_basis(prefix, F, n)
        # Sort span elements into entry-lexicographic order for determinism.
        elems = sorted(_span_elements(basis, F, n), key=lambda m: m.entries)
        for m in elems:
            yield from extend(prefix + [m])

    yield from extend([])


def enumerate_census(req: CensusRequest, config: RunConfig = DEFAULT_CONFIG) -> CensusResult:
    """Count commuting d-tuples over F_q, with optional nilpotent/relation
    filters and an optional per-stratum histogram.

    raw_count counts tuples passing the filters; with per_stratum, tuples
    whose support is not F_q-rational land in unsplit_count and the
    per-stratum counts plus unsplit_count add up to raw_count.
    """
    for f in req.relations:
        if f.nvars != req.d:
            raise ArityMismatchError(
                f"relation in {f.nvars} variables for a d = {req.d} census"
            )
    glo = gl_order(req.n, req.q)
    raw = 0
    per: dict[tuple[int, ...], int] = {}
    unsplit = 0
    for t in _commuting_tuples(req.n, req.d, req.q, config):
        if req.nilpotent and not is_punctual(t):
            continue
        if req.relations and not check_relations(t, req.relations):
            continue
        raw += 1
        if req.per_stratum:
            try:
                alpha = stratum(cycle(t))
                per[alpha] = per.get(alpha, 0) + 1
            except NotSplitError:
                unsplit += 1
    return CensusResult(
        n=req.n,
        d=req.d,
        q=req.q,
        raw_count=raw,
        gl_order=glo,
        groupoid_count=Fraction(raw, glo),
        per_stratum=per if req.per_stratum else None,
        unsplit_count=unsplit if req.per_stratum else None,
    )


def orbit_census(n: int, d: int, q: int, config: RunConfig = DEFAULT_CONFIG) -> list[Orbit]:
    """Full orbit decomposition of the commuting variety over F_q under
    simultaneous conjugation.

    Deterministic: representatives are the first tuples of their orbit in
    enumeration order.  Per orbit, |orbit| * |Aut| = |GL_n(F_q)| is
    asserted against a directly counted stabilizer, and nilpotency is
    checked to be constant along the orbit (filters are conjugation
    invariant).
    """
    glo = gl_order(n, q)
    F = GF(q)
    all_tuples = list(_commuting_tuples(n, d, q, config))
    group: list[GroupElement] = []
    for m in _all_matrices(F, n):
        m_inv = inverse(m)
        if m_inv is not None:
            group.append(GroupElement(m, m_inv))
    if len(group) != glo:
        raise RuntimeError("group enumeration disagrees with |GL_n|")
    seen: set[tuple] = set()
    orbits: list[Orbit] = []

    def key(t: CommutingTuple) -> tuple:
        return tuple(m.entries for m in t.mats)

    for t in all_tuples:
        if key(t) in seen:
            continue
        orbit_keys = set()
        stabilizer = 0
        rep_punctual = is_punctual(t)
        for g in group:
            u = conjugate(t, g)
            ku = key(u)
            if ku == key(t):
                stabilizer += 1
            if ku not in orbit_keys:
                orbit_keys.add(ku)
                if is_punctual(u) != rep_punctual:
                    raise RuntimeError("nilpotency not orbit constant")
        seen |= orbit_keys
        size = len(orbit_keys)
        if size * stabilizer != glo:
            raise RuntimeError("orbit-stabilizer mismatch")
        orbits.append(Orbit(representative=t, orbit_size=size, aut_order=stabilizer))
    if sum(o.orbit_size for o in orbits) != len(all_tuples):
        raise RuntimeError("orbits do not partition the variety")
    return orbits


def burnside_count(orbits: Sequence[Orbit]) -> Fraction:
    """sum 1/|Aut| over orbits; equals raw_count / |GL_n|."""
    total = Fraction(0)
    for o in orbits:
        total += Fraction(1, o.aut_order)
    return total
