"""Exhaustive censuses of commuting tuples over prime fields.

Counts are exact; the groupoid count raw/|GL_n(F_q)| is a rational number
and the Burnside identity sum(1/|Aut|) over orbits reproduces it.  The
enumerator walks centralizer chains rather than all q^(d n^2) tuples: the
first coordinate ranges over all matrices, each later coordinate over the
joint centralizer of the prefix, so commutation never needs rechecking.
The work that depends on a prefix alone is done once per prefix: the
nilpotent filter drops a prefix, and with it every extension, as soon as
its newest coordinate fails A^n = 0, and the per-stratum count runs one
support refinement pass (``cycles.refine``) per prefix.  Relation filters
are checked per tuple.  A request whose nominal size q^(d n^2) exceeds the
budget is refused whole; counts are never truncated.
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
from .cycles import Cycle, Part, refine, stratum
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


def _span_elements(basis: Sequence[Matrix], fieldobj, n: int) -> list[Matrix]:
    """Every F_q-combination of basis, in entry-lexicographic order."""
    q = fieldobj.characteristic
    elems = [(0,) * (n * n)]
    for b in basis:
        v = b.entries
        elems = [
            tuple((x + c * y) % q for x, y in zip(e, v)) for e in elems for c in range(q)
        ]
    elems.sort()
    return [Matrix(fieldobj, n, n, e) for e in elems]


def _check_budget(req_size: int, config: RunConfig) -> None:
    if req_size > config.census_budget:
        raise BudgetExceededError(
            f"nominal enumeration size {req_size} exceeds budget {config.census_budget}",
            size=req_size,
            budget=config.census_budget,
        )


_PRUNED = object()


def _walk(
    n: int, d: int, q: int, config: RunConfig, step=None, start=None
) -> Iterator[tuple[CommutingTuple, object]]:
    """All points of the commuting variety over F_q, in lexicographic order
    of the concatenated row-major coordinate entries, each with the state
    carried along its chain.

    With step, the empty prefix has state start, and prefix + [m] has state
    step(state of prefix, m); a step returning _PRUNED drops prefix + [m]
    and every tuple extending it.
    """
    if not is_prime(q):
        raise NonprimeQError(f"{q} is not prime", q=q)
    if d < 1:
        raise ArityMismatchError("census needs d >= 1")
    if n < 0:
        raise ValueError("negative size")
    _check_budget(q ** (d * n * n), config)
    F = GF(q)

    def extend(prefix: list[Matrix], state) -> Iterator[tuple[CommutingTuple, object]]:
        if len(prefix) == d:
            yield CommutingTuple(F, n, d, tuple(prefix)), state
            return
        if n == 0:
            nexts = [Matrix.zero(F, 0, 0)]
        elif not prefix:
            nexts = _all_matrices(F, n)
        else:
            nexts = _span_elements(_centralizer_basis(prefix, F, n), F, n)
        for m in nexts:
            s = state if step is None else step(state, m)
            if s is not _PRUNED:
                yield from extend(prefix + [m], s)

    yield from extend([], start)


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
    n = req.n
    F = GF(req.q)

    def step(parts: Optional[list[Part]], a: Matrix):
        # the same predicate as is_punctual, one coordinate at a time
        if req.nilpotent and not a.power(n).is_zero():
            return _PRUNED
        if not req.per_stratum or parts is None:
            return parts
        try:
            return refine(parts, a)
        except NotSplitError:
            # every extension fails the same pass of its own refinement
            return None

    start = [((), Matrix.identity(F, n))] if req.per_stratum else None
    raw = 0
    per: dict[tuple[int, ...], int] = {}
    unsplit = 0
    for t, parts in _walk(n, req.d, req.q, config, step, start):
        if req.relations and not check_relations(t, req.relations):
            continue
        raw += 1
        if req.per_stratum:
            if parts is None:
                unsplit += 1
            else:
                alpha = stratum(Cycle.make(F, req.d, [(p, b.cols) for p, b in parts]))
                per[alpha] = per.get(alpha, 0) + 1
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
    all_tuples = [t for t, _ in _walk(n, d, q, config)]
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
