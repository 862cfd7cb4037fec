"""Dense exact matrices and the elimination kernels.

Everything is row-major over a single Field; 0x0 matrices are legal
everywhere (det = 1, char poly = 1).  Elimination pivots on the first
nonzero entry in column order, so all outputs are deterministic.

``rref`` is the one elimination; ``kernel_basis``, ``solve``, ``inverse``
and ``rank`` read its output.  It runs one of two kernels on plain int rows:
over F_p, residue rows updated in place along the pivot row's nonzero
entries; over Q, fraction-free Gauss-Jordan on rows cleared of denominators
and kept primitive by a row-content gcd, converted to ``Fraction`` once at
the end.  The reduced row echelon form is unique, so R, rank and pivots,
down to the scalar types, are the same as those of textbook elimination
with field operations.  "Is m invertible?" is asked of ``inverse``, which
answers it and returns the inverse in the same elimination.

``det`` is the one other elimination: integer Bareiss on the residues over
F_p and on rows cleared of denominators over Q.  Inside the package only
``cycles.det_pushforward`` calls it.

Products have one kernel, ``_dot_products``, behind ``Matrix.__mul__``,
``Matrix.mat_vec`` and the Berkowitz steps of ``char_poly``.  It also runs
on plain ints: over F_p each entry is one integer dot product reduced once;
over Q each row of the left factor and each column of the right is cleared
of denominators once, and each entry is one ``Fraction`` of an integer dot
product over the two denominators.  Entries come out canonical, as ``Field``
arithmetic would give them.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, mul
from typing import Optional, Sequence

from .errors import (
    ArityMismatchError,
    MixedFieldsError,
    NotSquareError,
    SizeMismatchError,
)
from .fields import Field, Scalar
from .polynomials import MultiPoly, UniPoly


@dataclass(frozen=True)
class Matrix:
    field: Field
    rows: int
    cols: int
    entries: tuple[Scalar, ...]  # row-major

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise SizeMismatchError("negative dimension")
        if len(self.entries) != self.rows * self.cols:
            raise SizeMismatchError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries, "
                f"got {len(self.entries)}"
            )

    @classmethod
    def zero(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls(field, rows, cols, (field.zero(),) * (rows * cols))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        return cls(field, n, n, tuple(o if i == j else z for i in range(n) for j in range(n)))

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence]) -> "Matrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        entries = []
        for r in rows:
            if len(r) != nc:
                raise SizeMismatchError("ragged rows")
            for x in r:
                entries.append(field.of(x) if isinstance(x, int) else x)
        return cls(field, nr, nc, tuple(entries))

    @classmethod
    def diagonal(cls, field: Field, diag: Sequence) -> "Matrix":
        n = len(diag)
        m = [[field.zero()] * n for _ in range(n)]
        for i, x in enumerate(diag):
            m[i][i] = field.of(x) if isinstance(x, int) else x
        return cls.from_rows(field, m)

    def entry(self, i: int, j: int) -> Scalar:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Scalar, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[Scalar, ...]:
        return self.entries[j :: self.cols] if self.cols else ()

    def to_rows(self) -> list[list[Scalar]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def _same_shape(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise MixedFieldsError("matrices over different fields")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise SizeMismatchError(
                f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        F = self.field
        return Matrix(
            F, self.rows, self.cols,
            tuple(F.add(a, b) for a, b in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        F = self.field
        return Matrix(
            F, self.rows, self.cols,
            tuple(F.sub(a, b) for a, b in zip(self.entries, other.entries)),
        )

    def __neg__(self) -> "Matrix":
        F = self.field
        return Matrix(F, self.rows, self.cols, tuple(F.neg(a) for a in self.entries))

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise MixedFieldsError("matrices over different fields")
        if self.cols != other.rows:
            raise SizeMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        k, m = self.cols, other.cols
        a, b = self.entries, other.entries
        entries = _dot_products(
            self.field.characteristic,
            [a[i * k : (i + 1) * k] for i in range(self.rows)],
            [b[j::m] for j in range(m)],
        )
        return Matrix(self.field, self.rows, m, tuple(entries))

    def scale(self, s: Scalar) -> "Matrix":
        F = self.field
        return Matrix(F, self.rows, self.cols, tuple(F.mul(s, a) for a in self.entries))

    def mat_vec(self, v: Sequence[Scalar]) -> tuple[Scalar, ...]:
        if len(v) != self.cols:
            raise SizeMismatchError(f"vector length {len(v)} vs {self.cols} columns")
        return tuple(
            _dot_products(self.field.characteristic, [self.row(i) for i in range(self.rows)], [v])
        )

    def transpose(self) -> "Matrix":
        return Matrix(
            self.field, self.cols, self.rows,
            tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise NotSquareError(f"trace of {self.rows}x{self.cols}")
        F = self.field
        acc = F.zero()
        for i in range(self.rows):
            acc = F.add(acc, self.entry(i, i))
        return acc

    def is_zero(self) -> bool:
        z = self.field.zero()
        return all(a == z for a in self.entries)

    def power(self, k: int) -> "Matrix":
        if self.rows != self.cols:
            raise NotSquareError("power of a nonsquare matrix")
        if k < 0:
            raise ValueError("negative power")
        if k == 0:
            return Matrix.identity(self.field, self.rows)
        # square up to the lowest set bit of k, so no product has the identity
        base = self
        while not k & 1:
            base = base * base
            k >>= 1
        out = base
        k >>= 1
        while k:
            base = base * base
            if k & 1:
                out = out * base
            k >>= 1
        return out

    def __str__(self) -> str:
        F = self.field
        return "[" + ", ".join(
            "[" + ", ".join(F.format(x) for x in self.row(i)) + "]"
            for i in range(self.rows)
        ) + "]"


def _dot_products(
    p: int, rows: Sequence[Sequence[Scalar]], cols: Sequence[Sequence[Scalar]]
) -> list[Scalar]:
    """The product kernel: the dot product of each row with each column,
    row-major, i.e. the entries of rows · cols over F_p (p > 0) or Q (p = 0).

    Over F_p every entry is an integer sum reduced once.  Over Q every row
    and every column is cleared of denominators once, and each entry is
    ``Fraction(dot, d_row * d_col)``, which lowers it to canonical form
    (``Fraction(dot)`` when that denominator is 1, which needs no gcd).
    """
    if p:
        return [sum(map(mul, r, c)) % p for r in rows for c in cols]
    zero = Fraction(0)
    cleared_cols = [_clear_denominators(c) for c in cols]
    out: list[Scalar] = []
    for dr, r in map(_clear_denominators, rows):
        for dc, c in cleared_cols:
            s = sum(map(mul, r, c))
            d = dr * dc
            out.append(zero if not s else Fraction(s) if d == 1 else Fraction(s, d))
    return out


_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")


def _clear_denominators(v: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(d, w) with d the lcm of the denominators of v and w = d·v, in ints."""
    dens = list(map(_denominator, v))
    d = lcm(*dens)
    if d == 1:
        return 1, list(map(_numerator, v))
    return d, [x * (d // e) for x, e in zip(map(_numerator, v), dens)]


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return a * b - b * a


def hstack(ms: Sequence[Matrix]) -> Matrix:
    if not ms:
        raise SizeMismatchError("hstack of nothing")
    F = ms[0].field
    nr = ms[0].rows
    for m in ms:
        if m.field != F:
            raise MixedFieldsError("hstack over different fields")
        if m.rows != nr:
            raise SizeMismatchError("hstack with differing row counts")
    out = []
    for i in range(nr):
        for m in ms:
            out.extend(m.row(i))
    return Matrix(F, nr, sum(m.cols for m in ms), tuple(out))


def block_diag(ms: Sequence[Matrix], field: Optional[Field] = None) -> Matrix:
    if not ms and field is None:
        raise SizeMismatchError("block_diag of nothing needs an explicit field")
    F = field if field is not None else ms[0].field
    for m in ms:
        if m.field != F:
            raise MixedFieldsError("blocks over different fields")
    nr = sum(m.rows for m in ms)
    nc = sum(m.cols for m in ms)
    z = F.zero()
    grid = [[z] * nc for _ in range(nr)]
    r0 = c0 = 0
    for m in ms:
        for i in range(m.rows):
            for j in range(m.cols):
                grid[r0 + i][c0 + j] = m.entry(i, j)
        r0 += m.rows
        c0 += m.cols
    return Matrix.from_rows(F, grid) if nr else Matrix(F, 0, nc, ())


def columns_matrix(field: Field, n: int, cols: Sequence[Sequence[Scalar]]) -> Matrix:
    """Assemble column vectors of length n into an n x len(cols) matrix."""
    for v in cols:
        if len(v) != n:
            raise SizeMismatchError("column of wrong length")
    return Matrix(
        field, n, len(cols), tuple(cols[j][i] for i in range(n) for j in range(len(cols)))
    )


def intertwining_system(sources: Sequence[Matrix], targets: Sequence[Matrix]) -> Matrix:
    """Coefficient matrix of the linear map h -> (h A_i - B_i h)_i, where
    A_i = sources[i] is ns x ns, B_i = targets[i] is nt x nt and h is nt x ns.

    Unknowns are row-major: h_ab is column a*ns + b.  Rows are (i, r, c) in
    lexicographic order, one per entry (r, c) of h A_i - B_i h; the
    coefficient of h_ab there is [a = r] A_i[b, c] - B_i[r, a] [b = c].
    Its kernel is Hom(A, B).  Entries are written directly; no matrix
    products are formed.
    """
    if not sources or len(sources) != len(targets):
        raise ArityMismatchError(
            f"need matching nonempty tuples, got {len(sources)} and {len(targets)}"
        )
    F = sources[0].field
    ns, nt = sources[0].rows, targets[0].rows
    width = nt * ns
    zero = F.zero()
    out: list[Scalar] = []
    for a_mat, b_mat in zip(sources, targets):
        a, b = a_mat.entries, b_mat.entries
        for r in range(nt):
            for c in range(ns):
                row = [zero] * width
                row[r * ns : (r + 1) * ns] = a[c::ns]
                for k in range(nt):
                    x = b[r * nt + k]
                    if x != zero:
                        row[k * ns + c] = F.sub(row[k * ns + c], x)
                out.extend(row)
    return Matrix(F, len(out) // width if width else 0, width, tuple(out))


def rref(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form; returns (R, rank, pivot columns).

    The work runs on plain int rows: ``_rref_mod_p`` over F_p,
    ``_rref_fraction_free`` over Q.  Both pivot on the first nonzero entry
    down each column and R is unique, so the output, including the scalar
    types (``Fraction`` over Q, ``int`` in [0, p) over F_p), does not depend
    on which kernel ran.
    """
    if not m.rows:
        return m, 0, ()
    e, nc = m.entries, m.cols
    rows = [list(e[i * nc : (i + 1) * nc]) for i in range(m.rows)]
    p = m.field.characteristic
    if p:
        pivots = _rref_mod_p(rows, nc, p)
    else:
        pivots = _rref_fraction_free(rows, nc)
    entries: list[Scalar] = []
    for row in rows:
        entries.extend(row)
    return Matrix(m.field, m.rows, nc, tuple(entries)), len(pivots), tuple(pivots)


def _rref_mod_p(rows: list[list[int]], ncols: int, p: int) -> list[int]:
    """Gauss-Jordan on residue rows, in place; returns the pivot columns.

    Each update loops over the pivot row's nonzero entries only, since the
    intertwining systems are sparse.
    """
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        prow = rows[i]
        rows[r], rows[i] = prow, rows[r]
        pv = prow[c]
        if pv != 1:
            inv = pow(pv, -1, p)
            prow[:] = [x * inv % p for x in prow]
        nz = [(j, y) for j, y in enumerate(prow) if y]
        for row in rows:
            f = row[c]
            if f and row is not prow:
                for j, y in nz:
                    row[j] = (row[j] - f * y) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _rref_fraction_free(rows: list[list], ncols: int) -> list[int]:
    """Gauss-Jordan over Q on integer rows, in place; returns the pivot
    columns and leaves each row as Fractions.

    Denominators are cleared row by row.  A row with entry f in the pivot
    column becomes a*row - b*prow, where a/b = pv/f in lowest terms, and is
    then divided by its content, so entries stay small.  Pivot row k divided
    by its pivot is row k of R.
    """
    for i, row in enumerate(rows):
        rows[i] = _primitive(_clear_denominators(row)[1])
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        prow = rows[i]
        rows[r], rows[i] = prow, rows[r]
        pv = prow[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                g = gcd(pv, f)
                a, b = pv // g, f // g
                rows[i] = _primitive([a * x - b * y for x, y in zip(row, prow)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    zero = Fraction(0)
    for k, row in enumerate(rows):
        if k < r:
            pv = row[pivots[k]]
            rows[k] = [Fraction(x, pv) if x else zero for x in row]
        else:
            rows[k] = [zero] * ncols
    return pivots


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def rank(m: Matrix) -> int:
    return rref(m)[1]


def kernel_basis(m: Matrix) -> list[tuple[Scalar, ...]]:
    """Basis of the right kernel {v : m v = 0}, one vector per free column.

    Vectors are ordered by ascending free-column index; each satisfies
    m v = 0 exactly.
    """
    F = m.field
    R, rk, pivots = rref(m)
    pivot_set = set(pivots)
    basis = []
    zero, one = F.zero(), F.one()
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = [zero] * m.cols
        v[free] = one
        for prow, pcol in enumerate(pivots):
            v[pcol] = F.neg(R.entry(prow, free))
        basis.append(tuple(v))
    return basis


def _bareiss_int(rows: list[list[int]], n: int) -> int:
    """Fraction-free Bareiss determinant of an integer matrix (destructive)."""
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for j in range(k + 1, n):
                if rows[j][k] != 0:
                    rows[k], rows[j] = rows[j], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        pkk = rows[k][k]
        for i in range(k + 1, n):
            aik = rows[i][k]
            ri, rk_ = rows[i], rows[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pkk - aik * rk_[j]) // prev
            ri[k] = 0
        prev = pkk
    return sign * rows[n - 1][n - 1]


def det(m: Matrix) -> Scalar:
    """Determinant by integer Bareiss elimination, the one algorithm for
    both fields.

    Over F_p the residues themselves are the integer rows and the integer
    determinant is reduced mod p at the end; over Q each row is cleared of
    denominators first and the result divided by their product.
    """
    if m.rows != m.cols:
        raise NotSquareError(f"determinant of {m.rows}x{m.cols}")
    F = m.field
    n = m.rows
    if n == 0:
        return F.one()
    p = F.characteristic
    rows = [list(m.row(i)) for i in range(n)]
    if p:
        return _bareiss_int(rows, n) % p
    scale = 1
    for i, row in enumerate(rows):
        mult, rows[i] = _clear_denominators(row)
        scale *= mult
    return Fraction(_bareiss_int(rows, n), scale)


def inverse(m: Matrix) -> Optional[Matrix]:
    """Exact inverse, or None if singular (or nonsquare: raises)."""
    if m.rows != m.cols:
        raise NotSquareError("inverse of a nonsquare matrix")
    n = m.rows
    if n == 0:
        return m
    aug = hstack([m, Matrix.identity(m.field, n)])
    R, _, pivots = rref(aug)
    # the identity block forces full row rank, so the rank of aug is
    # always n; m is invertible iff no pivot escapes into that block
    if pivots[:n] != tuple(range(n)):
        return None
    rows = [list(R.row(i))[n:] for i in range(n)]
    return Matrix.from_rows(m.field, rows)


def solve(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """One exact solution X of a X = b, or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if a.field != b.field:
        raise MixedFieldsError("solve over different fields")
    if a.rows != b.rows:
        raise SizeMismatchError("solve with mismatched row counts")
    if b.cols == 0 or a.cols == 0:
        zero_x = Matrix.zero(a.field, a.cols, b.cols)
        return zero_x if (a * zero_x - b).is_zero() else None
    R, rk, pivots = rref(hstack([a, b]))
    # Any pivot in the b-block marks an inconsistent system.
    if any(p >= a.cols for p in pivots):
        return None
    F = a.field
    x = [[F.zero()] * b.cols for _ in range(a.cols)]
    for prow, pcol in enumerate(pivots):
        for j in range(b.cols):
            x[pcol][j] = R.entry(prow, a.cols + j)
    return Matrix.from_rows(F, x)


def char_poly(m: Matrix) -> UniPoly:
    """Characteristic polynomial det(tI - m), by the division-free
    Berkowitz recurrence (valid over F_p for every p, including p <= n).
    """
    if m.rows != m.cols:
        raise NotSquareError(f"char poly of {m.rows}x{m.cols}")
    F = m.field
    char = F.characteristic
    n = m.rows
    zero = F.zero()
    # coeffs descending for the trailing principal submatrix, starting empty
    p = [F.one()]
    for k in range(n - 1, -1, -1):
        s = n - k
        a_kk = m.entry(k, k)
        R = [m.entry(k, j) for j in range(k + 1, n)]
        C = [m.entry(i, k) for i in range(k + 1, n)]
        sub = [[m.entry(i, j) for j in range(k + 1, n)] for i in range(k + 1, n)]
        c = [F.one(), F.neg(a_kk)]
        w = C
        for i in range(2, s + 1):
            c.append(F.neg(_dot_products(char, [R], [w])[0]))
            if i < s:
                w = _dot_products(char, sub, [w])
        newp = []
        for i in range(s + 1):
            acc = zero
            for j, pj in enumerate(p):
                if 0 <= i - j < len(c):
                    acc = F.add(acc, F.mul(c[i - j], pj))
            newp.append(acc)
        p = newp
    return UniPoly.make(F, reversed(p))


def eval_multipoly(f: MultiPoly, mats: Sequence[Matrix]) -> Matrix:
    """Evaluate f on square matrices, monomials expanded in the given order
    (A1^e1 A2^e2 ... ; the callers only feed commuting matrices, where order
    is immaterial).
    """
    if len(mats) != f.nvars:
        raise ArityMismatchError(
            f"{f.nvars}-variable polynomial applied to {len(mats)} matrices"
        )
    if not mats:
        raise ArityMismatchError("need at least one matrix")
    F = mats[0].field
    if f.field != F:
        raise MixedFieldsError("polynomial and matrices over different fields")
    n = mats[0].rows
    for m in mats:
        if m.field != F:
            raise MixedFieldsError("matrices over different fields")
        if m.rows != m.cols or m.rows != n:
            raise SizeMismatchError("matrices must be square of equal size")
    powers: dict[tuple[int, int], Matrix] = {}

    def power_of(i: int, e: int) -> Matrix:
        key = (i, e)
        if key not in powers:
            powers[key] = mats[i].power(e)
        return powers[key]

    total = Matrix.zero(F, n, n)
    for exps, coeff in f.terms:
        term = None
        for i, e in enumerate(exps):
            if e:
                term = power_of(i, e).scale(coeff) if term is None else term * power_of(i, e)
        total = total + (Matrix.identity(F, n).scale(coeff) if term is None else term)
    return total
