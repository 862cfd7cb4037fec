"""Exhaustive censuses of commuting tuples over prime fields.

Counts are exact; the groupoid count raw/|GL_n(F_q)| is a rational number
and the Burnside identity sum(1/|Aut|) over orbits reproduces it.  Counts
are read off the class type of the first coordinate A (Green, Trans. AMS
80, 1955; Macdonald, Symmetric Functions and Hall Polynomials, IV.2): the
multiset of its blocks (e, lam), one per primary part, lam the partition
of a monic irreducible phi of degree e.  As F_q[t]/(phi^k) is
F_(q^e)[s]/(s^k), the type fixes the class size |GL_n|/prod a_lam(q^e)
and Z(A), the product of its blocks' centralizer algebras, and so every
count of commuting tuples inside Z(A); a type has
prod_e perm(N_e, k_e)/prod (multiplicities)! classes, N_e the number of
monic irreducibles of degree e.  So a count sums over types, listing no
class and no irreducible, and a nilpotent count over the nilpotent
classes t^lam, one per partition of n.  Each block then adds the
commuting (d - 1)-tuples in its own algebra, of dimension
dim = e (|lam| + 2 n(lam)), by one rule for both, nil being 1 for
nilpotent tuples and 0 otherwise: 1 at d = 1; q^(dim - nil l(lam)) at
d = 2 (Fine-Herstein on each matrix algebra of the block's algebra modulo
its radical); q^((dim - nil)(d - 1)) for lam = (k), the algebra
F_(q^e)[s]/(s^k) being commutative; the (d - 1)-census at size j, under
the same filter, for the block t^(1^j), whose algebra is M_j(F_q);
otherwise one walk (``_walk``) from the block's canonical form at size
e |lam|, once per block, d and filter per request.  The walk serves
counts, nilpotent counts and orbits: it yields each prefix of up to d - 1
coordinates from its first matrix with a basis of its joint centralizer
Z(prefix), over which the next coordinate ranges, so commutation never
needs rechecking; each level eliminates only its new coordinate's rows
against the prefix's eliminated rows.  The count reads q^dim Z(prefix)
last coordinates off each prefix of d - 1, or counts the nilpotent
elements of Z(prefix) for nilpotent tuples.
The per-stratum histogram follows the support morphism: a split tuple is a
direct sum of punctual pieces at distinct points, so the stratum with parts
lam holds |GL_n| C_lam prod_m P_m tuples, C_lam placing the parts at
distinct points and P_m = punctual(m)/|GL_m|; the rest is unsplit.
Orbits go class by class of the first coordinate, each class C a row
(m, |C|, dim Z(m), nilpotent) of ``_classes``, m its canonical form: a
tuple's orbit meets the tuples that start with any one matrix m of C, in
one orbit of Z_GL(m) on the commuting tuples inside Z(m).  A d = 1 orbit
is a class; a scalar c I (dim Z = n^2) prefixes c I to the (d - 1)-orbits;
a cyclic m (dim Z = n) has the commutative Z(m) = F_q[m], the span of I,
m, ..., m^(n - 1), built once per class with no elimination, so each chain
through it, m followed by elements of that span, is an orbit; any other
class is walked once from m, its chains of k coordinates the prefixes of
k - 1 each followed by an element of Z(prefix), and acts by Z_GL(m) alone,
the set of units of Z(m).  There conjugation by g is a linear map C_g on
the n^2 entries, so many matrices are conjugated by many g in one product,
the maps C_g stacked.  Which tuple stands for an orbit is no part of the
answer, so no step lists the matrices of a class: each representative
starts with its class's canonical form m; its first non-scalar coordinate,
if any, is the canonical form m' of that coordinate's class, and the
representative is the lex-first tuple of its orbit with m' there (with m
not scalar, m' = m: the lex-first tuple of its orbit that starts with m).
A relation f(x) = 0 and the support cycle are constant on orbits
(f(g A g^-1) = g f(A) g^-1), so relation filters read one representative
per orbit (each nilpotent class's under the nilpotent filter, a single
Jordan block m then taking only the nilpotent span of m, ..., m^(n - 1)),
and add the orbit's size; the support cycle of each kept representative
files its orbit.
A request whose nominal size q^(d n^2) exceeds the budget is refused
whole; counts are never truncated.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Iterator, Optional, Sequence

from .config import DEFAULT_CONFIG, RunConfig
from .errors import ArityMismatchError, BudgetExceededError, NonprimeQError, NotSplitError
from .fields import GF, is_prime
from .matrices import Matrix, _intertwining_rows, _kernel, inverse
from .modules import CommutingTuple, check_relations
from .cycles import cycle, stratum
from .polynomials import MultiPoly


def gl_order(n: int, q: int) -> int:
    """|GL_n(F_q)| = prod_{i=0}^{n-1} (q^n - q^i); 1 for n = 0."""
    _check_field_and_size(n, q)
    out = 1
    qn = q**n
    for i in range(n):
        out *= qn - q**i
    return out


def _check_field_and_size(n: int, q: int) -> None:
    """Refuse a nonprime q, then a negative n."""
    if not is_prime(q):
        raise NonprimeQError(f"{q} is not prime", q=q)
    if n < 0:
        raise ValueError("negative size")


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


def _times(f: tuple[int, ...], g: tuple[int, ...], q: int) -> tuple[int, ...]:
    """The product of two coefficient tuples (ascending degree) mod q."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return tuple(x % q for x in out)


def _irreducibles(q: int, n: int) -> list[tuple[int, ...]]:
    """The coefficient tuples (ascending) of the monic irreducibles of degree
    1..n over F_q, by degree: a sieve that strikes out each product of a
    lower-degree irreducible and a monic cofactor."""
    monic = {e: [c + (1,) for c in itertools.product(range(q), repeat=e)] for e in range(1, n + 1)}
    irr: list[tuple[int, ...]] = []
    for e in range(1, n + 1):
        reducible = {_times(f, g, q) for f in irr if 2 * len(f) - 2 <= e
                     for g in monic[e - len(f) + 1]}
        irr += [f for f in monic[e] if f not in reducible]
    return irr


def _partitions(m: int, most: int) -> Iterator[tuple[int, ...]]:
    """Partitions of m into parts of at most `most`, parts descending."""
    if m == 0:
        yield ()
    for k in range(min(m, most), 0, -1):
        for rest in _partitions(m - k, k):
            yield (k,) + rest


def _centralizer_dim(lam: tuple[int, ...]) -> int:
    """|lam| + 2 n(lam): the dimension of the centralizer of a nilpotent
    matrix of Jordan type lam."""
    return sum(lam) + 2 * sum(i * part for i, part in enumerate(lam))


def _centralizer_order(lam: tuple[int, ...], Q: int) -> int:
    """a_lam(Q) = Q^(|lam| + 2 n(lam)) prod_i prod_{k=1}^{m_i(lam)} (1 - Q^-k),
    the order of the centralizer in GL of a primary part whose Jordan
    type over the residue field F_Q is lam."""
    ks = [k for part in set(lam) for k in range(1, lam.count(part) + 1)]
    return Q ** (_centralizer_dim(lam) - sum(ks)) * math.prod(Q**k - 1 for k in ks)


def _powers(phi: tuple[int, ...], most: int, q: int) -> list[tuple[int, ...]]:
    """The coefficient tuples of phi, phi^2, ..., phi^most mod q."""
    return list(itertools.accumulate(itertools.repeat(phi, most), partial(_times, q=q)))


def _canonical_form(q: int, polys: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """The row-major entries of the block sum of the companion matrices of
    the monic polys over F_q, each a coefficient tuple (ascending): with the
    phi^k over the parts k of each lam, for each primary part (phi, lam),
    the primary rational canonical form."""
    n = sum(len(f) - 1 for f in polys)
    entries = [0] * (n * n)
    r = 0
    for f in polys:
        m = len(f) - 1
        for i in range(1, m):
            entries[(r + i) * n + r + i - 1] = 1
        for i in range(m):
            entries[(r + i) * n + r + m - 1] = -f[i] % q
        r += m
    return tuple(entries)


def _classes(n: int, q: int) -> list[tuple[tuple[int, ...], int, int, bool]]:
    """Every similarity class C of n x n matrices over F_q, as a row
    (m, |C|, dim Z(m), nilpotent) with m its primary rational canonical form
    (``_canonical_form``): each type of ``_types`` takes distinct monic
    irreducibles of its blocks' degrees in the order of ``_irreducibles``,
    identical blocks a combination, so no class recurs, and each power
    phi^k the forms take is written once.  RuntimeError unless each type
    has as many placements as it has classes."""
    irr = _irreducibles(q, n)
    powers = [_powers(phi, n // (len(phi) - 1), q) for phi in irr]
    of_degree = {e: [j for j, phi in enumerate(irr) if len(phi) - 1 == e] for e in range(1, n + 1)}
    out: list[tuple[tuple[int, ...], int, int, bool]] = []
    for chosen, classes, size in _types(_blocks(n, q), n, q):
        placed: list[tuple[tuple[int, tuple[int, ...]], ...]] = [()]  # (index into irr, lam) per part
        for b, same in itertools.groupby(chosen):
            r = len(list(same))
            placed = [p + tuple((j, b.lam) for j in js) for p in placed
                      for js in itertools.combinations(
                          [j for j in of_degree[b.e] if j not in {i for i, _ in p}], r)]
        if len(placed) != classes:
            raise RuntimeError("a class type's placements disagree with its number of classes")
        dim = sum(b.dim for b in chosen)
        for p in placed:
            parts = sorted(p)
            out.append((_canonical_form(q, [powers[j][k - 1] for j, lam in parts for k in lam]),
                        size, dim, all(irr[j] == (0, 1) for j, _ in parts)))
    return out


@dataclass(frozen=True, eq=False)
class _Block:
    """A primary block phi^(lam) of a matrix A: phi a monic irreducible of
    degree e, with Jordan type lam over F_(q^e).  order is a_lam(q^e), the
    order of its centralizer in GL, and dim = e (|lam| + 2 n(lam)) that of
    its centralizer algebra."""
    e: int
    lam: tuple[int, ...]
    order: int
    dim: int


def _blocks(n: int, q: int) -> list[_Block]:
    """Every block (e, lam) of size e |lam| <= n over F_q, by size."""
    return [_Block(e, lam, _centralizer_order(lam, q**e), e * _centralizer_dim(lam))
            for size in range(1, n + 1) for e in range(1, size + 1) if size % e == 0
            for lam in _partitions(size // e, size // e)]


def _types(blocks: Sequence[_Block], n: int, q: int) -> list[tuple[tuple[_Block, ...], int, int]]:
    """Every class type of n x n matrices over F_q, a multiset of blocks
    from ``_blocks`` of sizes adding up to n, with its number of classes and
    their size |GL_n| / prod a_lam(q^e), no class or irreducible listed.

    A type with k_e blocks of degree e has prod_e perm(N_e, k_e) classes,
    over the product of the factorials of its blocks' multiplicities: each
    takes its own irreducibles, N_e of degree e, read off
    q^e = sum_{k | e} k N_k (Green, Trans. AMS 80, 1955).  RuntimeError
    unless each size divides |GL_n| and the classes' sizes add up to
    q^(n^2), so the types partition the n x n matrices.
    """
    glo = gl_order(n, q)
    free = [0] * (n + 1)  # the irreducibles of each degree no block has taken
    for e in range(1, n + 1):
        free[e] = (q**e - sum(k * free[k] for k in range(1, e) if e % k == 0)) // e
    sizes = [b.e * sum(b.lam) for b in blocks]
    out: list[tuple[tuple[_Block, ...], int, int]] = []

    def extend(start: int, room: int, chosen: tuple, classes: int, z: int) -> None:
        if room == 0:
            if glo % z:
                raise RuntimeError("a class's centralizer order does not divide |GL_n|")
            out.append((chosen, classes, glo // z))
        for j in range(start, len(blocks)):
            b, size = blocks[j], sizes[j]
            if size > room:
                break
            for r in range(1, min(room // size, free[b.e]) + 1):
                free[b.e] -= r
                extend(j + 1, room - r * size, chosen + (b,) * r,
                       classes * math.comb(free[b.e] + r, r), z * b.order**r)
                free[b.e] += r

    extend(0, n, (), 1, 1)
    if sum(classes * size for _, classes, size in out) != q ** (n * n):
        raise RuntimeError("class sizes do not partition the n x n matrices")
    return out


def _span(vectors: Sequence[tuple[int, ...]], cells: int, q: int) -> list[tuple[int, ...]]:
    """Every F_q-combination of the entry tuples of length cells, each once,
    in lexicographic order."""
    elems = [(0,) * cells]
    for v in vectors:
        elems = [tuple((x + c * y) % q for x, y in zip(e, v)) for e in elems for c in range(q)]
    return sorted(set(elems))


def _check_request(n: int, d: int, q: int, config: RunConfig) -> int:
    """|GL_n(F_q)|, computed only after refusing, in this order, a nonprime
    q, a negative n, d < 1 and a nominal size q^(d n^2) over the budget.
    Since q >= 2, an exponent d n^2 of at least the budget's bit length is
    refused without computing the power."""
    _check_field_and_size(n, q)
    if d < 1:
        raise ArityMismatchError("census needs d >= 1")
    exponent, budget = d * n * n, config.census_budget
    if exponent >= budget.bit_length() or q**exponent > budget:
        raise BudgetExceededError(f"nominal enumeration size {q}^{exponent} exceeds budget {budget}",
                                  q=q, exponent=exponent, budget=budget)
    return gl_order(n, q)


def _walk(
    chain: list[Matrix],
    length: int,
    keep: Callable[[Matrix], bool] = lambda m: True,
    reduced: Sequence[list[int]] = (),
) -> Iterator[tuple[list[Matrix], list[tuple[int, ...]]]]:
    """Every commuting chain of at most `length` matrices extending the
    commuting chain, every added one passing keep, each with the kernel
    basis of its joint centralizer: each added coordinate ranges over that
    of the prefix before it, in entry-lexicographic order, and each prefix
    comes before its extensions.

    reduced holds the eliminated intertwining rows of chain[:-1].  Each
    level eliminates only the n^2 rows of its last coordinate against them;
    the reduced row echelon form is unique, so each basis is that of the
    whole prefix's system.
    """
    F, n = chain[0].field, chain[0].rows
    rows = [row[:] for row in reduced] + _intertwining_rows(chain[-1], chain[-1])
    basis = _kernel(rows, n * n, F)
    yield chain, basis
    if len(chain) < length:
        del rows[n * n - len(basis):]
        for e in _span(basis, n * n, F.characteristic):
            c = Matrix(F, n, n, e)
            if keep(c):
                yield from _walk(chain + [c], length, keep, rows)


def _nilpotent(a: Matrix) -> bool:
    return a.power(a.rows).is_zero()


def _counts(n: int, q: int) -> Callable[[int, int, bool], int]:
    """count(m, d, nilpotent) for m <= n: the commuting d-tuples of m x m
    matrices over F_q, all of them, summed over class types, or the
    nilpotent ones, summed over nilpotent classes, each block adding its
    leaves by the one rule of the module docstring.  It is memoized, so one
    request finds each census, each type list and each block's leaves once.
    RuntimeError unless the nilpotent classes' sizes add up to the
    q^(m^2 - m) nilpotent matrices.
    """
    F = GF(q)
    blocks = _blocks(n, q)
    types = cache(lambda m: _types(blocks, m, q))

    @cache
    def leaves(b: _Block, d: int, nilpotent: bool) -> int:
        if d <= 2:
            return q ** (b.dim - nilpotent * len(b.lam)) if d == 2 else 1
        if len(b.lam) == 1:
            return q ** ((b.dim - nilpotent) * (d - 1))
        if b.e == 1 and b.lam[0] == 1:
            return count(len(b.lam), d - 1, nilpotent)
        phi = (0, 1) if b.e == 1 else next(f for f in _irreducibles(q, b.e) if len(f) - 1 == b.e)
        size, keep = b.e * sum(b.lam), _nilpotent if nilpotent else (lambda a: True)
        powers = _powers(phi, b.lam[0], q)
        m = Matrix(F, size, size, _canonical_form(q, [powers[k - 1] for k in b.lam]))
        out = 0
        for chain, basis in _walk([m], d - 1, keep):
            if len(chain) == d - 1:
                out += (sum(_nilpotent(Matrix(F, size, size, v)) for v in _span(basis, size * size, q))
                        if nilpotent else q ** len(basis))
        return out

    @cache
    def count(m: int, d: int, nilpotent: bool) -> int:
        if m == 0:
            return 1
        if not nilpotent:
            listed = types(m)
        else:  # the class t^lam of each block (1, lam) of size m
            glo = gl_order(m, q)
            listed = [((b,), 1, glo // b.order) for b in blocks if b.e == 1 and sum(b.lam) == m]
            if sum(size for _, _, size in listed) != q ** (m * m - m):
                raise RuntimeError("nilpotent class sizes do not add up to the nilpotent matrices")
        return sum(classes * size * math.prod(leaves(b, d, nilpotent) for b in chosen)
                   for chosen, classes, size in listed)

    return count


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
    per: dict[tuple[int, ...], int] = {}
    unsplit = 0
    if req.relations:
        raw = 0
        # a nilpotent tuple starts with a nilpotent matrix
        firsts = [(m, size, dim, nilpotent) for m, size, dim, nilpotent in _classes(n, q)
                  if nilpotent or not req.nilpotent]
        for o in _orbits(n, d, q, firsts, req.nilpotent):
            t, size = o.representative, o.orbit_size
            if (req.nilpotent and not o.nilpotent) or not check_relations(t, req.relations):
                continue
            raw += size
            if req.per_stratum:
                try:
                    alpha = stratum(cycle(t))
                except NotSplitError:
                    unsplit += size
                    continue
                per[alpha] = per.get(alpha, 0) + size
    else:
        count = _counts(n, q)
        raw = count(n, d, req.nilpotent)
        if req.per_stratum:
            # nilpotent tuples have the origin as their one point
            points = 1 if req.nilpotent else q**d
            share = cache(lambda m: Fraction(count(m, d, True), gl_order(m, q)))
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


def _orbits(
    n: int, d: int, q: int, firsts: Sequence[tuple[tuple[int, ...], int, int, bool]],
    nilpotent: bool = False,
) -> Iterator[Orbit]:
    """The GL_n-orbits of the commuting d-tuples over F_q, class by class of
    the first coordinate from one row (m, size, dim, nilpotent) per class C
    (``_classes``, m any matrix of C; see the module docstring), scalar if
    dim = n^2 and cyclic if dim = n.  Through a cyclic m an orbit is one
    chain, of size |C| with aut order |GL_n|/|C|: m followed by any k - 1
    elements of Z(m) = F_q[m], the span of I, m, ..., m^(n - 1), built once
    per class with no elimination; with nilpotent set, of its nilpotent
    elements only, the span of m, ..., m^(n - 1) (m is then a single Jordan
    block).  Any other non-scalar m is walked once (``_walk``) to depth
    d - 1: the chains of k coordinates are its prefixes of k - 1, each
    followed by any element of its centralizer, and Z_GL(m) is the set of
    units of Z(m), the centralizer of the first prefix.  There an orbit has
    size |C| |Z_GL(m)-orbit| and its stabilizer inside Z_GL(m) as aut
    order, the orbits of Z_GL(m) keyed on the entries of the conjugates of
    each walked chain's coordinates, each distinct matrix conjugated in one
    product.  Representatives are the first chains of their orbits, in
    order, with one Matrix per distinct coordinate; every check has run
    before the first Orbit is built.  Each check raises RuntimeError: q^n
    elements in the span through a cyclic m (q^(n - 1) with nilpotent set),
    so its powers are independent; |Z_GL(m)| |C| = |GL_n(F_q)|; every
    conjugate among the walked chains; nilpotency constant along the orbit
    (read on every conjugate); |orbit| * |stabilizer| = |Z_GL(m)|; orbits
    partitioning the chains, |C| times over.
    """
    glo = gl_order(n, q)
    F = GF(q)
    cells = n * n
    # one tuple object per distinct coordinate matrix, however often it recurs
    interned: dict[tuple[int, ...], tuple[int, ...]] = {}

    def intern(a: tuple[int, ...]) -> tuple[int, ...]:
        return interned.setdefault(a, a)

    matrix = cache(lambda a: Matrix(F, n, n, a))

    def conjugator(group: Sequence[tuple[Matrix, Matrix]]) -> Callable:
        stacked = _conjugation_map(group, n, q)

        @cache
        def conjugates(a: tuple[int, ...]) -> list[tuple[int, ...]]:
            out = F.dots([a], stacked)
            cuts = (tuple(out[g * cells:(g + 1) * cells]) for g in range(len(group)))
            return list(map(intern, cuts))
        return conjugates

    @cache
    def cyclic_span(m: tuple[int, ...]) -> list[tuple[int, ...]]:
        # I, m, ..., m^(n - 1); a cyclic class that is not scalar has n >= 2
        powers = [Matrix.identity(F, n), matrix(m)]
        while len(powers) < n:
            powers.append(powers[-1] * powers[1])
        if nilpotent:
            powers = powers[1:]
        span = list(map(intern, _span([p.entries for p in powers], cells, q)))
        if len(span) != q ** len(powers):
            raise RuntimeError("the powers of a cyclic class's matrix are not independent")
        return span

    is_nilpotent = cache(lambda a: _nilpotent(matrix(a)))
    # per class: its walk's prefixes with their centralizers, the conjugator and |Z_GL(m)|
    by_class: dict[tuple[int, ...], tuple[list, Callable, int]] = {}
    orbits: list[tuple[tuple, int, int, bool]] = []  # key, orbit size, aut order, nilpotent
    for k in range(1, d + 1):
        below, orbits, walked = orbits, [], 0
        for m, size, dim, nil in firsts:
            if k == 1:
                orbits.append(((m,), size, glo // size, nil))
                walked += size
                continue
            if dim == cells:  # m = c I, a class of one
                orbits += [((m,) + key, s, aut, nil and flag)
                           for key, s, aut, flag in below]
                walked += size * sum(o[1] for o in below)
                continue
            if dim == n:
                # Z(m) = F_q[m] is commutative, so Z_GL(m) fixes every chain
                span = cyclic_span(m)
                walked += size * len(span) ** (k - 1)
                for rest in itertools.product(span, repeat=k - 1):
                    flag = nil and all(map(is_nilpotent, rest))
                    orbits.append(((m,) + rest, size, glo // size, flag))
                continue
            if m not in by_class:
                # each prefix of up to d - 1 coordinates with the elements of its centralizer
                prefixes = [(tuple(intern(a.entries) for a in chain),
                             list(map(intern, _span(basis, cells, q))))
                            for chain, basis in _walk([matrix(m)], d - 1)]
                # the first prefix is m alone: the units of Z(m) are Z_GL(m)
                units = [(g, h) for g in map(matrix, prefixes[0][1]) if (h := inverse(g)) is not None]
                if len(units) * size != glo:
                    raise RuntimeError("|Z_GL(m)| times the class size is not |GL_n|")
                by_class[m] = prefixes, conjugator(units), len(units)
            prefixes, conjugates, order = by_class[m]
            chains = [key + (e,) for key, span in prefixes if len(key) == k - 1 for e in span]
            walked += size * len(chains)
            chain_set = set(chains)
            seen: set[tuple] = set()
            for key in chains:
                if key in seen:
                    continue
                keys = list(zip(*map(conjugates, key)))
                orbit = set(keys)
                if not orbit <= chain_set:
                    raise RuntimeError("a conjugate lies outside the walked variety")
                flags = {all(map(is_nilpotent, u)) for u in orbit}
                if len(flags) != 1:
                    raise RuntimeError("nilpotency not orbit constant")
                stabilizer = keys.count(key)
                if len(orbit) * stabilizer != order:
                    raise RuntimeError("orbit-stabilizer mismatch")
                seen |= orbit
                orbits.append((key, size * len(orbit), stabilizer, flags.pop()))
        if sum(o[1] for o in orbits) != walked:
            raise RuntimeError("orbits do not partition the variety")
    orbits.sort()
    return (Orbit(CommutingTuple(F, n, d, tuple(map(matrix, key))), size, aut, flag)
            for key, size, aut, flag in orbits)


def orbit_census(n: int, d: int, q: int, config: RunConfig = DEFAULT_CONFIG) -> list[Orbit]:
    """Full orbit decomposition of the commuting variety over F_q under
    simultaneous conjugation, walked from the canonical form m of each class
    of ``_classes``, in ascending order of representatives.  Each starts
    with m; its first non-scalar coordinate, if any, is the canonical form
    m' of that coordinate's class, and the representative is the lex-first
    tuple of its orbit with m' there, so with m not scalar the lex-first
    tuple of its orbit that starts with m.  Raises RuntimeError on each
    check of the walk (see ``_orbits``).
    """
    _check_request(n, d, q, config)
    return list(_orbits(n, d, q, _classes(n, q)))


def burnside_count(orbits: Sequence[Orbit]) -> Fraction:
    """sum 1/|Aut| over orbits; equals raw_count / |GL_n|."""
    common = math.lcm(*(o.aut_order for o in orbits))
    return Fraction(sum(common // o.aut_order for o in orbits), common)
