"""Exact arithmetic on plain nested lists, independent of commvar.

A field is named by ``p``: ``None`` for Q (scalars are ``Fraction``),
a prime for F_p (scalars are int residues in [0, p)).  Everything here is
textbook and deliberately shares no code with the program under test, so
the oracles built on it are an independent check.
"""
from __future__ import annotations

from fractions import Fraction


def norm(x, p):
    return x % p if p else Fraction(x)


def zero(p):
    return 0 if p else Fraction(0)


def one(p):
    return 1 if p else Fraction(1)


def identity(n, p):
    return [[one(p) if i == j else zero(p) for j in range(n)] for i in range(n)]


def zeros(r, c, p):
    return [[zero(p)] * c for _ in range(r)]


def mat_mul(a, b, p):
    if not a:
        return []
    k, m = len(b), len(b[0]) if b else 0
    out = []
    for row in a:
        new = []
        for j in range(m):
            acc = 0
            for t in range(k):
                if row[t]:
                    acc += row[t] * b[t][j]
            new.append(acc % p if p else Fraction(acc))
        out.append(new)
    return out


def mat_add(a, b, p):
    return [[(x + y) % p if p else x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(a, c, p):
    return [[(c * x) % p if p else c * x for x in row] for row in a]


def add_scalar(a, c, p):
    """a + c*I."""
    return [
        [((x + c) % p if p else x + c) if i == j else x for j, x in enumerate(row)]
        for i, row in enumerate(a)
    ]


def is_zero(a):
    return all(x == 0 for row in a for x in row)


def block_diag(blocks, p):
    n = sum(len(b) for b in blocks)
    out = zeros(n, n, p)
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[off + i][off + j] = x
        off += len(b)
    return out


def rref_rank(rows, p):
    """Rank by plain Gauss-Jordan elimination on a copy."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p) if p else 1 / m[r][c]
        m[r] = [(x * inv) % p if p else x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [(x - f * y) % p if p else x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def inverse(a, p):
    """Exact inverse by Gauss-Jordan on [a | I], or None if singular."""
    n = len(a)
    m = [list(row) + e for row, e in zip(a, identity(n, p))]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        inv = pow(m[c][c], -1, p) if p else 1 / m[c][c]
        m[c] = [(x * inv) % p if p else x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [(x - f * y) % p if p else x - f * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


def is_invertible(a, p):
    return rref_rank(a, p) == len(a)


def mat_pow(a, k, p):
    out = identity(len(a), p)
    for _ in range(k):
        out = mat_mul(out, a, p)
    return out


def is_nilpotent(a, p):
    return is_zero(mat_pow(a, len(a), p)) if a else True


def fmt(x, p):
    """Canonical document scalar: a reduced fraction over Q, a residue over F_p."""
    return str(x % p) if p else str(Fraction(x))


def parse(s, p):
    return int(s) % p if p else Fraction(s)


def parse_matrix(rows, p):
    return [[parse(x, p) for x in row] for row in rows]


def field_name(p):
    return f"Fp:{p}" if p else "Q"


def intertwining_dim(src, dst, p):
    """dim {h : h A_i = B_i h for all i}, h of shape len(dst) x len(src).

    Unknown h_ab sits at column a*ns + b; the coefficient of h_ab in
    (h A - B h)_ij is [a = i] A_bj - B_ia [b = j].
    """
    ns, nt = len(src[0]) if src else 0, len(dst[0]) if dst else 0
    if ns == 0 or nt == 0:
        return ns * nt
    rows = []
    for A, B in zip(src, dst):
        for i in range(nt):
            for j in range(ns):
                row = [zero(p)] * (nt * ns)
                for b in range(ns):
                    row[i * ns + b] += A[b][j]
                for a in range(nt):
                    row[a * ns + j] -= B[i][a]
                rows.append([norm(x, p) for x in row])
    return nt * ns - rref_rank(rows, p)


def tangent_dim(mats, p):
    """dim of {(X_k) : [X_i, A_j] + [A_i, X_j] = 0 for all i < j}."""
    d, n = len(mats), len(mats[0])
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    if not pairs or n == 0:
        return d * n * n
    N = n * n
    rows = []
    for i, j in pairs:
        A_i, A_j = mats[i], mats[j]
        for r in range(n):
            for c in range(n):
                row = [zero(p)] * (d * N)
                # [X_i, A_j]_rc = sum_k X_i[r][k] A_j[k][c] - A_j[r][k] X_i[k][c]
                # [A_i, X_j]_rc = sum_k A_i[r][k] X_j[k][c] - X_j[r][k] A_i[k][c]
                for k in range(n):
                    row[i * N + r * n + k] += A_j[k][c]
                    row[i * N + k * n + c] -= A_j[r][k]
                    row[j * N + k * n + c] += A_i[r][k]
                    row[j * N + r * n + k] -= A_i[k][c]
                rows.append([norm(x, p) for x in row])
    return d * N - rref_rank(rows, p)
