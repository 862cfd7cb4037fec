"""Exhaustive censuses of commuting tuples over prime fields.

Counts are exact; the groupoid count raw/|GL_n(F_q)| is a rational number
and the Burnside identity sum(1/|Aut|) over orbits reproduces it.  The
census walks centralizer chains: each coordinate after the first ranges
over the joint centralizer of the prefix, so commutation never needs
rechecking, and the first is one primary rational canonical form per
GL_n-class, weighted by the class size |GL_n|/|Z_GL(A)| (Macdonald,
Symmetric Functions and Hall Polynomials, IV.2).  The last coordinate
ranges over the linear space Z(prefix) and is counted, not walked:
q^dim Z(prefix) choices, or q^(dim Z(A) - (n - rank A)) nilpotent ones
beside a nilpotent A (Fine-Herstein on each matrix algebra of Z(A) modulo
its radical).  Nilpotent tuples with d >= 3 and relation filters, which
read the whole tuple, walk it.  The per-stratum histogram follows the
support morphism: a split tuple is a direct sum of punctual pieces at
distinct points, so the stratum with parts lam holds |GL_n| C_lam prod_m
P_m tuples, C_lam placing the parts at distinct points and
P_m = punctual(m)/|GL_m|; the rest is unsplit.  Under relations the
support cycle of each kept tuple files it.  ``orbit_census`` walks every
tuple; conjugation by g is a linear map C_g on the n^2 entries, and each
distinct coordinate matrix is conjugated by all of GL_n in one product with
the maps C_g stacked.  A tuple's orbit is keyed on the entries of its
coordinates' conjugates, each of which must lie in the walked variety.  A
request whose nominal size q^(d n^2) exceeds the budget is refused whole;
counts are never truncated.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Iterator, Optional, Sequence

from .config import DEFAULT_CONFIG, RunConfig
from .errors import ArityMismatchError, BudgetExceededError, NonprimeQError, NotSplitError
from .fields import GF, int_to_decimal, is_prime
from .matrices import Matrix, _dot_products, block_diag, intertwining_system, inverse, kernel_basis, rank
from .modules import CommutingTuple, check_relations, companion
from .cycles import cycle, stratum
from .polynomials import MultiPoly, UniPoly


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
    nilpotent: bool


def _all_matrices(n: int, q: int) -> list[tuple[Matrix, int]]:
    """Every n x n matrix over F_q in entry-lexicographic order, each with
    weight 1."""
    F = GF(q)
    return [(Matrix(F, n, n, e), 1) for e in itertools.product(range(q), repeat=n * n)]


def _irreducibles(F, n: int) -> list[UniPoly]:
    """The monic irreducibles of degree 1..n over F_q, by degree: a sieve
    that strikes out each product of a lower-degree irreducible and a monic
    cofactor."""
    q = F.characteristic
    monic = {e: [UniPoly(F, c + (1,)) for c in itertools.product(range(q), repeat=e)]
             for e in range(1, n + 1)}
    irr: list[UniPoly] = []
    for e in range(1, n + 1):
        reducible = {f * g for f in irr if 2 * f.degree <= e for g in monic[e - f.degree]}
        irr += [f for f in monic[e] if f not in reducible]
    return irr


def _partitions(m: int, most: int) -> Iterator[tuple[int, ...]]:
    """Partitions of m into parts of at most `most`, parts descending."""
    if m == 0:
        yield ()
    for k in range(min(m, most), 0, -1):
        for rest in _partitions(m - k, k):
            yield (k,) + rest


def _centralizer_order(lam: tuple[int, ...], Q: int) -> Fraction:
    """a_lam(Q) = Q^(|lam| + 2 n(lam)) prod_i prod_{k=1}^{m_i(lam)} (1 - Q^-k),
    the order of the centralizer in GL of a primary part whose Jordan
    type over the residue field F_Q is lam."""
    out = Fraction(Q) ** (sum(lam) + 2 * sum(i * part for i, part in enumerate(lam)))
    for part in set(lam):
        for k in range(1, lam.count(part) + 1):
            out *= 1 - Fraction(1, Q**k)
    return out


def _classes(n: int, q: int) -> list[tuple[Matrix, int]]:
    """One matrix per similarity class of n x n matrices over F_q, with the
    size |GL_n|/|Z_GL(A)| of its class, in entry-lexicographic order of the
    representatives.

    A class is a partition lam_phi for each monic irreducible phi with
    sum deg(phi) |lam_phi| = n; its representative is the block sum of the
    companion matrices of phi^k over the parts k of each lam_phi, and
    |Z_GL(A)| = prod_phi a_{lam_phi}(q^deg(phi)).
    """
    F = GF(q)
    irr = _irreducibles(F, n)
    glo = gl_order(n, q)
    out: list[tuple[Matrix, Fraction]] = []

    def assign(start: int, room: int, blocks: list[Matrix], z: Fraction) -> None:
        if room == 0:
            out.append((block_diag(blocks, F), glo / z))
        for j in range(start, len(irr)):
            phi = irr[j]
            e = phi.degree
            if e > room:
                break
            for size in range(1, room // e + 1):
                for lam in _partitions(size, size):
                    more = [companion(phi.pow_int(k)).mats[0] for k in lam]
                    assign(j + 1, room - e * size, blocks + more, z * _centralizer_order(lam, q**e))

    assign(0, n, [], Fraction(1))
    if sum(w for _, w in out) != q ** (n * n) or any(w.denominator != 1 for _, w in out):
        raise RuntimeError("class sizes do not partition the n x n matrices")
    return sorted(((a, int(w)) for a, w in out), key=lambda aw: aw[0].entries)


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


def _check_request(n: int, d: int, q: int, config: RunConfig) -> int:
    """|GL_n(F_q)|, after refusing a nonprime q, a negative n, d < 1 and a
    nominal size q^(d n^2) over the budget."""
    glo = gl_order(n, q)
    if d < 1:
        raise ArityMismatchError("census needs d >= 1")
    size, budget = q ** (d * n * n), config.census_budget
    if size > budget:
        raise BudgetExceededError(f"nominal enumeration size {int_to_decimal(size)} exceeds "
                                  f"budget {budget}", size=size, budget=budget)
    return glo


def _walk(
    n: int,
    length: int,
    q: int,
    firsts: Callable[[int, int], Sequence[tuple[Matrix, int]]],
    keep: Callable[[Matrix], bool] = lambda m: True,
) -> Iterator[tuple[list[Matrix], int]]:
    """Chains of `length` commuting n x n matrices over F_q, every one of
    them passing keep, each chain with the weight of its first coordinate
    among the (matrix, weight) pairs firsts(n, q).

    Each later coordinate ranges over the joint centralizer of the prefix
    in entry-lexicographic order, so with _all_matrices the walk yields
    every chain once, in lexicographic order of the concatenated row-major
    coordinate entries.  Length 0 yields the empty chain with weight 1.
    """
    F = GF(q)

    def extend(chain: list[Matrix], weight: int) -> Iterator[tuple[list[Matrix], int]]:
        if len(chain) == length:
            yield chain, weight
            return
        nexts = firsts(n, q) if not chain else (
            (c, weight) for c in _span_elements(_centralizer_basis(chain, F, n), F, n))
        for m, w in nexts:
            if keep(m):
                yield from extend(chain + [m], w)

    return extend([], 1)


def _nilpotent(a: Matrix) -> bool:
    return a.power(a.rows).is_zero()


def _count(
    n: int, d: int, q: int, nilpotent: bool,
    classes: Callable[[int, int], Sequence[tuple[Matrix, int]]],
) -> int:
    """Commuting d-tuples of n x n matrices over F_q, all of them or the
    nilpotent ones: the first d - 1 coordinates walked by the classes(n, q)
    representatives, the last counted in their joint centralizer (walked for
    nilpotent d >= 3)."""
    F = GF(q)
    keep = _nilpotent if nilpotent else (lambda a: True)
    if nilpotent and d > 2:
        return sum(w for _, w in _walk(n, d, q, classes, keep))
    total = 0
    for chain, weight in _walk(n, d - 1, q, classes, keep):
        dim = len(_centralizer_basis(chain, F, n)) if chain else n * n
        if nilpotent:
            # Z(A)/rad is one M_m(F_q) per block size, m its Jordan blocks
            dim -= n - (rank(chain[0]) if chain else 0)
        total += weight * q**dim
    return total


def enumerate_census(req: CensusRequest, config: RunConfig = DEFAULT_CONFIG) -> CensusResult:
    """Count commuting d-tuples over F_q, with optional nilpotent/relation
    filters and an optional per-stratum histogram.

    raw_count counts tuples passing the filters; with per_stratum, tuples
    whose support is not F_q-rational land in unsplit_count and the
    per-stratum counts plus unsplit_count add up to raw_count.
    """
    for f in req.relations:
        if f.nvars != req.d:
            raise ArityMismatchError(f"relation in {f.nvars} variables for a d = {req.d} census")
    n, d, q = req.n, req.d, req.q
    glo = _check_request(n, d, q, config)
    # the raw count and share(n) both walk the n x n classes: build them once
    classes = cache(_classes)
    per: dict[tuple[int, ...], int] = {}
    unsplit = 0
    if req.relations:
        raw = 0
        keep = _nilpotent if req.nilpotent else (lambda a: True)
        for chain, weight in _walk(n, d, q, classes, keep):
            t = CommutingTuple(GF(q), n, d, tuple(chain))
            if not check_relations(t, req.relations):
                continue
            raw += weight
            if req.per_stratum:
                try:
                    alpha = stratum(cycle(t))
                except NotSplitError:
                    unsplit += weight
                    continue
                per[alpha] = per.get(alpha, 0) + weight
    else:
        raw = _count(n, d, q, req.nilpotent, classes)
        if req.per_stratum:
            # nilpotent tuples have the origin as their one point
            points = 1 if req.nilpotent else q**d
            share = cache(lambda m: Fraction(_count(m, d, q, True, classes), gl_order(m, q)))
            for lam in _partitions(n, n):
                if len(lam) <= points:
                    alpha = tuple(lam.count(i) for i in range(1, n + 1))
                    placed = math.perm(points, len(lam)) // math.prod(map(math.factorial, alpha))
                    per[alpha] = int(glo * placed * math.prod(map(share, lam)))
            unsplit = raw - sum(per.values())
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


def _conjugation_map(group: Sequence[tuple[Matrix, Matrix]], n: int, q: int) -> list[tuple[int, ...]]:
    """The matrices C_g of conjugation a -> g a g^-1 on row-major entries,
    stacked over the (g, g^-1) in group: row (i, j) of C_g has
    g[i,k] g^-1[l,j] mod q in column (k, l), so C_g vec(a) = vec(g a g^-1)."""
    return [
        tuple(g.entries[i * n + k] * h.entries[l * n + j] % q for k in range(n) for l in range(n))
        for g, h in group for i in range(n) for j in range(n)
    ]


def orbit_census(n: int, d: int, q: int, config: RunConfig = DEFAULT_CONFIG) -> list[Orbit]:
    """Full orbit decomposition of the commuting variety over F_q under
    simultaneous conjugation.

    Each distinct coordinate matrix a is conjugated by all of GL_n in one
    product: the conjugation maps of the group, stacked, times vec(a).  The
    g-th conjugate of a tuple is then the tuple of the g-th conjugates of
    its coordinates, and orbits are keyed on those entries.  Deterministic:
    representatives are the first tuples of their orbit in enumeration
    order.  Each check raises RuntimeError: |GL_n(F_q)| group elements;
    every conjugate in the walked variety; nilpotency constant along the
    orbit (read on every conjugate); |orbit| * |Aut| = |GL_n(F_q)| against a
    directly counted stabilizer; orbits partitioning the variety.
    """
    glo = _check_request(n, d, q, config)
    F = GF(q)
    # one tuple object per distinct coordinate matrix, however often it recurs
    interned: dict[tuple[int, ...], tuple[int, ...]] = {}
    variety = [tuple(interned.setdefault(a.entries, a.entries) for a in chain)
               for chain, _ in _walk(n, d, q, _all_matrices)]
    group = [(g, g_inv) for g, _ in _all_matrices(n, q) if (g_inv := inverse(g)) is not None]
    if len(group) != glo:
        raise RuntimeError("group enumeration disagrees with |GL_n|")
    stacked = _conjugation_map(group, n, q)
    size = n * n

    @cache
    def conjugates(a: tuple[int, ...]) -> list[tuple[int, ...]]:
        out = _dot_products(q, [a], stacked)
        cuts = (tuple(out[g * size:(g + 1) * size]) for g in range(glo))
        return [interned.setdefault(c, c) for c in cuts]

    nilpotent = cache(lambda a: _nilpotent(Matrix(F, n, n, a)))
    walked = set(variety)
    seen: set[tuple] = set()
    orbits: list[Orbit] = []
    for key in variety:
        if key in seen:
            continue
        keys = list(zip(*map(conjugates, key)))
        orbit = set(keys)
        if not orbit <= walked:
            raise RuntimeError("a conjugate lies outside the walked variety")
        flags = {all(map(nilpotent, u)) for u in orbit}
        if len(flags) != 1:
            raise RuntimeError("nilpotency not orbit constant")
        stabilizer = keys.count(key)
        if len(orbit) * stabilizer != glo:
            raise RuntimeError("orbit-stabilizer mismatch")
        seen |= orbit
        rep = CommutingTuple(F, n, d, tuple(Matrix(F, n, n, a) for a in key))
        orbits.append(Orbit(rep, len(orbit), stabilizer, flags.pop()))
    if sum(o.orbit_size for o in orbits) != len(variety):
        raise RuntimeError("orbits do not partition the variety")
    return orbits


def burnside_count(orbits: Sequence[Orbit]) -> Fraction:
    """sum 1/|Aut| over orbits; equals raw_count / |GL_n|."""
    total = Fraction(0)
    for o in orbits:
        total += Fraction(1, o.aut_order)
    return total
