"""Hand-written reference routines the tests trust instead of the library.

Everything here works on plain Python lists of scalars: Fraction over the
rationals, small nonnegative ints mod p over a prime field (p passed
explicitly, None means rationals).  The implementations are deliberately
naive (cofactor expansions, textbook elimination) and share no code with
the package under test, apart from ``walk``, ``census_leaf_walk``,
``census_by_classes`` and ``orbit_census_walk``: they walk their own
centralizer chains, building each prefix's whole intertwining system and
eliminating it with the package's kernel, and conjugate by the package's
conjugation maps, so they check the class types, closed forms, incremental
elimination and centralizer actions the census works with, not the
kernels.  ``census_by_classes`` goes class by class over the package's
class list, which the tests check against brute-force orbits, reading
only each class's canonical form and size, and
``random_multipoly`` draws its coefficients with ``sampling.random_scalar``.
``ext_dims`` reads ranks of the package's Koszul rows by hand elimination,
so that identities between Ext dimensions check the rows.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import cache
from math import comb
from typing import Callable, Iterator, Optional

from commvar.census import Orbit, _classes, _conjugation_map, _nilpotent, gl_order
from commvar.fields import GF
from commvar.matrices import Matrix, _kernel, _koszul_rows, inverse, rank
from commvar.modules import CommutingTuple
from commvar.polynomials import MultiPoly
from commvar.sampling import random_scalar

Rows = list  # list[list[scalar]]


# ---------------------------------------------------------------------------
# scalar helpers


def s_add(a, b, p: Optional[int]):
    return (a + b) % p if p else a + b


def s_sub(a, b, p: Optional[int]):
    return (a - b) % p if p else a - b


def s_mul(a, b, p: Optional[int]):
    return (a * b) % p if p else a * b


def s_inv(a, p: Optional[int]):
    if p:
        return pow(a, -1, p)
    return Fraction(1) / a


def s_zero(p: Optional[int]):
    return 0 if p else Fraction(0)


def s_one(p: Optional[int]):
    return 1 if p else Fraction(1)


# ---------------------------------------------------------------------------
# plain-list matrix helpers


def mat_mul(a: Rows, b: Rows, p: Optional[int]) -> Rows:
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = s_zero(p)
            for t in range(k):
                acc = s_add(acc, s_mul(a[i][t], b[t][j], p), p)
            row.append(acc)
        out.append(row)
    return out


def mat_sub(a: Rows, b: Rows, p: Optional[int]) -> Rows:
    return [[s_sub(x, y, p) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_commutator(a: Rows, b: Rows, p: Optional[int]) -> Rows:
    return mat_sub(mat_mul(a, b, p), mat_mul(b, a, p), p)


def mat_is_zero(a: Rows, p: Optional[int]) -> bool:
    z = s_zero(p)
    return all(x == z for row in a for x in row)


def mat_identity(n: int, p: Optional[int]) -> Rows:
    return [[s_one(p) if i == j else s_zero(p) for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# hand row reduction: forward elimination, then explicit back substitution


def hand_rref(rows_in: Rows, p: Optional[int]) -> tuple[Rows, int, list[int]]:
    rows = [list(r) for r in rows_in]
    if not rows:
        return rows, 0, []
    nrows, ncols = len(rows), len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        hit = None
        for i in range(r, nrows):
            if rows[i][c] != s_zero(p):
                hit = i
                break
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        scale = s_inv(rows[r][c], p)
        rows[r] = [s_mul(scale, x, p) for x in rows[r]]
        for i in range(r + 1, nrows):
            f = rows[i][c]
            if f != s_zero(p):
                rows[i] = [s_sub(x, s_mul(f, y, p), p) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for idx in range(len(pivots) - 1, -1, -1):
        c = pivots[idx]
        for i in range(idx):
            f = rows[i][c]
            if f != s_zero(p):
                rows[i] = [s_sub(x, s_mul(f, y, p), p) for x, y in zip(rows[i], rows[idx])]
    return rows, len(pivots), pivots


def hand_rank(rows: Rows, p: Optional[int]) -> int:
    return hand_rref(rows, p)[1]


def hand_solve(a: Rows, b: Rows, p: Optional[int]) -> Optional[Rows]:
    """One solution of a X = b with free variables zero, or None."""
    n = len(a)
    acols = len(a[0]) if a else 0
    bcols = len(b[0]) if b else 0
    aug = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    red, _, pivots = hand_rref(aug, p)
    if any(c >= acols for c in pivots):
        return None
    x = [[s_zero(p)] * bcols for _ in range(acols)]
    for prow, pcol in enumerate(pivots):
        for j in range(bcols):
            x[pcol][j] = red[prow][acols + j]
    return x


# ---------------------------------------------------------------------------
# cofactor determinant and Cramer inverse (n small)


def cofactor_det(rows: Rows, p: Optional[int]):
    n = len(rows)
    if n == 0:
        return s_one(p)
    if n == 1:
        return rows[0][0]
    acc = s_zero(p)
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = s_mul(rows[0][j], cofactor_det(minor, p), p)
        acc = s_add(acc, term, p) if j % 2 == 0 else s_sub(acc, term, p)
    return acc


def cramer_inverse(rows: Rows, p: Optional[int]) -> Optional[Rows]:
    n = len(rows)
    d = cofactor_det(rows, p)
    if d == s_zero(p):
        return None
    dinv = s_inv(d, p)
    out = [[s_zero(p)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != i]
                for r in range(n)
                if r != j
            ]
            cof = cofactor_det(minor, p)
            if (i + j) % 2 == 1:
                cof = s_sub(s_zero(p), cof, p)
            out[i][j] = s_mul(cof, dinv, p)
    return out


# ---------------------------------------------------------------------------
# characteristic polynomial by cofactor expansion with polynomial entries
# (polynomials as ascending coefficient lists)


def _padd(f, g, p):
    n = max(len(f), len(g))
    f = f + [s_zero(p)] * (n - len(f))
    g = g + [s_zero(p)] * (n - len(g))
    return [s_add(a, b, p) for a, b in zip(f, g)]


def _psub(f, g, p):
    n = max(len(f), len(g))
    f = f + [s_zero(p)] * (n - len(f))
    g = g + [s_zero(p)] * (n - len(g))
    return [s_sub(a, b, p) for a, b in zip(f, g)]


def _pmul(f, g, p):
    out = [s_zero(p)] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = s_add(out[i + j], s_mul(a, b, p), p)
    return out


def _pdet(cells, p):
    n = len(cells)
    if n == 0:
        return [s_one(p)]
    if n == 1:
        return cells[0][0]
    acc = [s_zero(p)]
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in cells[1:]]
        term = _pmul(cells[0][j], _pdet(minor, p), p)
        acc = _padd(acc, term, p) if j % 2 == 0 else _psub(acc, term, p)
    return acc


def hand_char_poly(rows: Rows, p: Optional[int]) -> list:
    """Ascending coefficients of det(t I - A), any field, any n."""
    n = len(rows)
    cells = []
    for i in range(n):
        row = []
        for j in range(n):
            const = s_sub(s_zero(p), rows[i][j], p)
            row.append([const, s_one(p)] if i == j else [const])
        cells.append(row)
    out = _pdet(cells, p)
    out = out + [s_zero(p)] * (n + 1 - len(out))
    return out[: n + 1]


def poly_eval(coeffs: list, x, p: Optional[int]):
    acc = s_zero(p)
    for c in reversed(coeffs):
        acc = s_add(s_mul(acc, x, p), c, p)
    return acc


def multipoly_eval(f: MultiPoly, point, p: Optional[int]):
    """f at the point, each power taken as repeated products."""
    total = s_zero(p)
    for exps, coeff in f.terms:
        term = coeff
        for x, e in zip(point, exps):
            for _ in range(e):
                term = s_mul(term, x, p)
        total = s_add(total, term, p)
    return total


def random_multipoly(field, d: int, rng: random.Random, max_terms: int = 3, max_degree: int = 2) -> MultiPoly:
    """A sparse seeded random polynomial in d variables, nonzero constant
    term allowed."""
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * d
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(d)] += 1
        c = random_scalar(field, rng, span=2)
        if c != field.zero():
            key = tuple(exps)
            terms[key] = field.add(terms.get(key, field.zero()), c)
    if not terms:
        terms[(0,) * d] = field.one()
    return MultiPoly.make(field, d, terms)


# ---------------------------------------------------------------------------
# brute-force counting over F_2 / F_q


def all_matrices_f(n: int, q: int) -> list[Rows]:
    out = []
    total = q ** (n * n)
    for code in range(total):
        rows = []
        c = code
        for i in range(n):
            row = []
            for j in range(n):
                row.append(c % q)
                c //= q
            rows.append(row)
        out.append(rows)
    return out


def similarity_classes(n: int, q: int) -> list[set]:
    """The orbits of GL_n(F_q) acting on n x n matrices by conjugation, each
    a set of row tuples, by conjugating every matrix with every invertible
    one."""
    group = [(g, cramer_inverse(g, q)) for g in all_matrices_f(n, q) if cofactor_det(g, q) != 0]
    seen: set = set()
    orbits = []
    for a in all_matrices_f(n, q):
        if tuple(map(tuple, a)) in seen:
            continue
        orbit = {tuple(map(tuple, mat_mul(mat_mul(g, a, q), g_inv, q))) for g, g_inv in group}
        seen |= orbit
        orbits.append(orbit)
    return orbits


def orbits(n: int, d: int, q: int) -> list[tuple[frozenset, int, bool]]:
    """The orbits of GL_n(F_q) acting on commuting d-tuples of n x n
    matrices by simultaneous conjugation, as (orbit, stabilizer order,
    nilpotent): the orbit as the set of its tuples, each a tuple of
    row-major entry tuples, one per matrix, and nilpotent when the n-th
    power of every coordinate is zero.  Orbits come in lexicographic order
    of their first tuple met.
    """
    def flat(rows: Rows) -> tuple:
        return tuple(x for row in rows for x in row)

    def nilpotent(a: Rows) -> bool:
        power = mat_identity(n, q)
        for _ in range(n):
            power = mat_mul(power, a, q)
        return mat_is_zero(power, q)

    mats = [
        [list(e[i * n : (i + 1) * n]) for i in range(n)]
        for e in itertools.product(range(q), repeat=n * n)
    ]
    group = [(g, cramer_inverse(g, q)) for g in mats if cofactor_det(g, q) != 0]
    seen: set = set()
    out = []
    for t in itertools.product(mats, repeat=d):
        if not all(mat_is_zero(mat_commutator(a, b, q), q) for a, b in itertools.combinations(t, 2)):
            continue
        if tuple(map(flat, t)) in seen:
            continue
        images = [
            tuple(flat(mat_mul(mat_mul(g, a, q), g_inv, q)) for a in t) for g, g_inv in group
        ]
        orbit = frozenset(images)
        seen |= orbit
        out.append((orbit, images.count(tuple(map(flat, t))), all(map(nilpotent, t))))
    return out


def count_commuting_pairs(n: int, q: int) -> int:
    mats = all_matrices_f(n, q)
    count = 0
    for a in mats:
        for b in mats:
            if mat_is_zero(mat_commutator(a, b, q), q):
                count += 1
    return count


def count_invertible(n: int, q: int) -> int:
    return sum(1 for m in all_matrices_f(n, q) if cofactor_det(m, q) != 0)


# ---------------------------------------------------------------------------
# framed points over F_q by brute force


def mat_vec(a: Rows, v: list, p: Optional[int]) -> list:
    return [row[0] for row in mat_mul(a, [[x] for x in v], p)]


def frame_generates(mats: list, frame: list, n: int, p: Optional[int]) -> bool:
    """Do the words of length <= n in the matrices, applied to the frame
    vectors, have hand rank n?"""
    level = [list(v) for v in frame]
    words = list(level)
    for _ in range(n):
        level = [mat_vec(a, v, p) for a in mats for v in level]
        words.extend(level)
    return hand_rank(words, p) == n


def framed_classes(n: int, d: int, q: int, r: int) -> list[list]:
    """The generating framed points over F_q (q prime) with d commuting
    n x n matrices and r frame vectors, split into the orbits of GL_n(F_q)
    acting by (A, v) -> (g A g^-1, g v), by acting with every g.

    A point is (matrices, frame), each a tuple of row tuples.  Each class
    lists its first-met point first, as its representative.
    """
    mats = all_matrices_f(n, q)
    tuples = [()]
    for _ in range(d):
        tuples = [
            t + (b,) for t in tuples for b in mats
            if all(mat_is_zero(mat_commutator(a, b, q), q) for a in t)
        ]
    group = [(g, cramer_inverse(g, q)) for g in mats if cofactor_det(g, q) != 0]
    vecs = [list(v) for v in itertools.product(range(q), repeat=n)]

    def point(ms, frame):
        return tuple(tuple(map(tuple, a)) for a in ms), tuple(map(tuple, frame))

    seen: set = set()
    classes = []
    for ms in tuples:
        for frame in itertools.product(vecs, repeat=r):
            start = point(ms, frame)
            if start in seen or not frame_generates(ms, frame, n, q):
                continue
            orbit = [start]
            seen.add(start)
            for g, g_inv in group:
                image = point(
                    [mat_mul(mat_mul(g, a, q), g_inv, q) for a in ms],
                    [mat_vec(g, v, q) for v in frame],
                )
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
            classes.append(orbit)
    return classes


# ---------------------------------------------------------------------------
# closed-form counts of commuting pairs over F_q (Feit-Fine)


def gl_count(n: int, q: int) -> int:
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def feit_fine_pairs(n: int, q: int, punctual: bool) -> list[Fraction]:
    """[c_0, ..., c_n]: c_m counts commuting m x m pairs over F_q, all of
    them or (punctual) the pairs of nilpotents, as integral Fractions.

    Feit-Fine: sum_m c_m/|GL_m| x^m = prod_{i>=1} prod_{j>=0} (1 - q^(1-j) x^i)^-1;
    the nilpotent series is prod_{i>=1} prod_{j>=1} (1 - q^-j x^i)^-1.  Its
    logarithm is sum over i, k >= 1 of w_k x^(ik) / k, with w_k = q^2k/(q^k - 1)
    or 1/(q^k - 1); the series itself follows from f' = f * (log f)'.
    """
    log = [Fraction(0)] * (n + 1)
    for i in range(1, n + 1):
        for k in range(1, n // i + 1):
            log[i * k] += Fraction(1 if punctual else q ** (2 * k), k * (q**k - 1))
    f = [Fraction(1)] + [Fraction(0)] * n
    for m in range(1, n + 1):
        f[m] = sum(t * log[t] * f[m - t] for t in range(1, m + 1)) / m
    return [f[m] * gl_count(m, q) for m in range(n + 1)]


# ---------------------------------------------------------------------------
# the census's earlier walks, weight 1 over every first coordinate


def all_matrices(n: int, q: int) -> list[tuple[Matrix, int]]:
    """Every n x n matrix over F_q in entry-lexicographic order, each with
    weight 1: the first coordinates of a walk over the whole variety."""
    F = GF(q)
    return [(Matrix(F, n, n, e), 1) for e in itertools.product(range(q), repeat=n * n)]


def _chains(chain: list[Matrix], length: int, keep: Callable[[Matrix], bool]) -> Iterator[list[Matrix]]:
    """The chains of `length` extending chain, each added coordinate passing
    keep and ranging over every matrix that commutes with each before it,
    in entry-lexicographic order: the F_q-combinations of the kernel basis
    of the prefix's whole intertwining system."""
    if len(chain) == length:
        yield chain
        return
    F, n = chain[0].field, chain[0].rows
    for e in sorted(_centralizer(chain)):
        b = Matrix(F, n, n, e)
        if keep(b):
            yield from _chains(chain + [b], length, keep)


def _centralizer(chain: list[Matrix]) -> set[tuple[int, ...]]:
    """The entries of every matrix that commutes with each of chain: the
    F_q-combinations of the kernel basis of its whole intertwining system."""
    F, n = chain[0].field, chain[0].rows
    q, cells = F.characteristic, n * n
    basis = _kernel(_koszul_rows(chain, chain, 0), cells, F)
    return {tuple(sum(c * v[i] for c, v in zip(coeffs, basis)) % q for i in range(cells))
            for coeffs in itertools.product(range(q), repeat=len(basis))}


def walk(
    n: int,
    length: int,
    q: int,
    firsts: Callable[[int, int], list[tuple[Matrix, int]]],
    keep: Callable[[Matrix], bool] = lambda m: True,
) -> Iterator[tuple[list[Matrix], int]]:
    """Chains of length >= 1 of commuting n x n matrices over F_q, every one
    of them passing keep, each chain with the weight of its first coordinate
    among the (matrix, weight) pairs firsts(n, q).

    Each later coordinate ranges over the joint centralizer of the prefix
    in entry-lexicographic order, so with every matrix as a first
    coordinate the walk yields every chain once, in lexicographic order of
    the concatenated row-major coordinate entries.
    """
    for m, w in firsts(n, q):
        if keep(m):
            for chain in _chains([m], length, keep):
                yield chain, w


def census_leaf_walk(n: int, d: int, q: int, nilpotent: bool) -> int:
    """Commuting d-tuples of n x n matrices over F_q, all of them or the
    nilpotent ones, with no class data: the first d - 1 coordinates walked
    with weight 1 from every matrix, each later one over the joint
    centralizer of the prefix, and the last counted from one kernel per
    leaf as q^dim Z(prefix), or q^(dim Z(A) - (n - rank A)) nilpotent ones
    beside a nilpotent A.  Nilpotent tuples with d >= 3 walk every
    coordinate."""
    keep = _nilpotent if nilpotent else (lambda a: True)
    if nilpotent and d > 2:
        return sum(1 for _ in walk(n, d, q, all_matrices, keep))
    if d == 1:
        return q ** (n * n - n if nilpotent else n * n)
    total = 0
    for chain, _ in walk(n, d - 1, q, all_matrices, keep):
        dim = len(_kernel(_koszul_rows(chain, chain, 0), n * n, GF(q)))
        if nilpotent:
            dim -= n - rank(chain[0])
        total += q**dim
    return total


def census_by_classes(n: int, d: int, q: int, nilpotent: bool) -> int:
    """Commuting d-tuples of n x n matrices over F_q, all of them or the
    nilpotent ones, class by class of the first coordinate A over
    ``census._classes`` (which the tests check against brute-force orbits),
    reading only its canonical form m and size: dim Z(m) (by elimination),
    n - rank m and nilpotency (by a matrix power) are found here, and m is
    scalar if dim Z(m) = n^2 and cyclic if dim Z(m) = n.  Each class adds
    its size times 1 at d = 1; q^dim Z(A) at d = 2, or
    q^(dim Z(A) - (n - rank A)) nilpotent second coordinates; the
    (d - 1)-census beside a scalar A; q^(n (d - 1)) beside a cyclic A, or
    q^((n - 1)(d - 1)) beside a single nilpotent Jordan block; otherwise the
    chains of d - 1 coordinates from A's canonical form, each adding its
    whole centralizer, or that centralizer's nilpotent elements."""
    rest = census_by_classes(n, d - 1, q, nilpotent) if d > 2 else 0
    keep = _nilpotent if nilpotent else (lambda a: True)
    F = GF(q)
    total = 0
    for m, size, _, _ in _classes(n, q):
        a = Matrix(F, n, n, m)
        if nilpotent and not a.power(n).is_zero():
            continue
        dim = len(_kernel(_koszul_rows([a], [a], 0), n * n, F))
        if d == 1:
            leaves = 1
        elif d == 2:
            leaves = q ** (dim - (n - rank(a)) if nilpotent else dim)
        elif dim == n * n:
            leaves = rest
        elif dim == n:
            leaves = q ** ((n - 1 if nilpotent else n) * (d - 1))
        else:
            leaves = 0
            for chain in _chains([a], d - 1, keep):
                if nilpotent:
                    leaves += sum(_nilpotent(Matrix(F, n, n, e)) for e in _centralizer(chain))
                else:
                    leaves += q ** len(_kernel(_koszul_rows(chain, chain, 0), n * n, F))
        total += size * leaves
    return total


def orbit_census_walk(n: int, d: int, q: int) -> list[tuple[Orbit, frozenset]]:
    """The orbit census by walking every tuple of the commuting variety and
    conjugating it by all of GL_n, found by inverting every matrix, each
    Orbit with its orbit as the set of its tuples' coordinate entries.

    Each distinct coordinate matrix a is conjugated by all of GL_n in one
    product: the conjugation maps of the group, stacked, times vec(a).  The
    g-th conjugate of a tuple is then the tuple of the g-th conjugates of
    its coordinates, and orbits are keyed on those entries.  Representatives
    are the first tuples of their orbit in enumeration order.  Each check
    raises RuntimeError: |GL_n(F_q)| group elements; every conjugate in the
    walked variety; nilpotency constant along the orbit (read on every
    conjugate); |orbit| * |Aut| = |GL_n(F_q)| against a directly counted
    stabilizer; orbits partitioning the variety.
    """
    glo = gl_order(n, q)
    F = GF(q)
    # one tuple object per distinct coordinate matrix, however often it recurs
    interned: dict[tuple[int, ...], tuple[int, ...]] = {}
    variety = [tuple(interned.setdefault(a.entries, a.entries) for a in chain)
               for chain, _ in walk(n, d, q, all_matrices)]
    group = [(g, g_inv) for g, _ in all_matrices(n, q) if (g_inv := inverse(g)) is not None]
    if len(group) != glo:
        raise RuntimeError("group enumeration disagrees with |GL_n|")
    stacked = _conjugation_map(group, n, q)
    size = n * n

    @cache
    def conjugates(a: tuple[int, ...]) -> list[tuple[int, ...]]:
        out = F.dots([a], stacked)
        cuts = (tuple(out[g * size:(g + 1) * size]) for g in range(glo))
        return [interned.setdefault(c, c) for c in cuts]

    nilpotent = cache(lambda a: _nilpotent(Matrix(F, n, n, a)))
    walked = set(variety)
    seen: set[tuple] = set()
    orbits: list[tuple[Orbit, frozenset]] = []
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
        orbits.append((Orbit(rep, len(orbit), stabilizer, flags.pop()), frozenset(orbit)))
    if sum(len(orbit) for _, orbit in orbits) != len(variety):
        raise RuntimeError("orbits do not partition the variety")
    return orbits


def _partitions(n: int, largest: int):
    if n == 0:
        yield []
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield [part] + rest


def pair_strata(n: int, q: int) -> tuple[dict, Fraction]:
    """Per-stratum census of commuting n x n pairs over F_q: ({alpha: count},
    unsplit count), alpha[i-1] being the number of support points of
    multiplicity i.

    A split pair is the direct sum of its local pieces, so a stratum with
    parts m_1..m_k counts the choices of k distinct points of F_q^2 (up to
    permuting equal parts), times the |GL_n|/prod |GL_m_j| decompositions
    of F_q^n into subspaces of those dimensions, times a punctual pair on
    each subspace, translated to its point.
    """
    punctual = feit_fine_pairs(n, q, punctual=True)
    strata = {}
    for parts in _partitions(n, n):
        alpha = tuple(parts.count(i) for i in range(1, n + 1))
        count = Fraction(gl_count(n, q))
        for j in range(len(parts)):
            count *= q * q - j
        for a in alpha:
            for j in range(1, a + 1):
                count /= j
        for m in parts:
            count *= Fraction(punctual[m], gl_count(m, q))
        if count:
            strata[alpha] = count
    unsplit = feit_fine_pairs(n, q, punctual=False)[n] - sum(strata.values())
    return strata, unsplit


# ---------------------------------------------------------------------------
# Ext dimensions from the package's Koszul differentials


def ext_dims(s: CommutingTuple, t: CommutingTuple) -> list[int]:
    """dim Ext^i(s, t) for i = 0..d: the cohomology of the Koszul complex
    Hom(s, t) (x) L^i k^d, dim ker delta^i - rank delta^(i-1), with each
    rank the hand rank of the package's rows ``_koszul_rows(s, t, i)``."""
    p, d, size = char_of_field(s.field), s.d, s.n * t.n
    ranks = [hand_rank(_koszul_rows(s.mats, t.mats, i), p) for i in range(d)] + [0]
    return [comb(d, i) * size - ranks[i] - (ranks[i - 1] if i else 0) for i in range(d + 1)]


# ---------------------------------------------------------------------------
# bridges from library objects to plain rows (read-only access)


def rows_of(m) -> Rows:
    return [[m.entry(i, j) for j in range(m.cols)] for i in range(m.rows)]


def char_of_field(field) -> Optional[int]:
    return field.characteristic if field.characteristic else None
