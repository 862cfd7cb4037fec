"""Dense exact matrices and the elimination kernels.

Everything is row-major over a single Field; 0x0 matrices are legal
everywhere (det = 1, char poly = 1).  Outputs are deterministic.

``_eliminate`` is the one elimination; ``rref``, ``rank``,
``kernel_basis``, ``solve`` and ``inverse`` (``solve`` against the
identity) read their answers off the int rows it leaves.  It runs one of
two kernels on plain int rows: over F_p, residue rows updated in place
along the pivot row's nonzero entries, pivoting on the first nonzero entry
down each column; over Q, fraction-free Gauss-Jordan on rows cleared of
denominators, pivoting on the entry of smallest magnitude (the first +-1
ends the search), so that most updates subtract an integer multiple of the
pivot row along its nonzero entries.  The reduced row echelon form is
unique, so R, rank and pivots, down to the scalar types, are the same as
those of textbook elimination with field operations, and so are the kernel
vectors and solutions read off it.  "Is m invertible?" is asked of
``inverse``, which answers it and returns the inverse in the same
elimination, or, when only the answer is wanted, of the rank.

Over Q, ``Fraction``s are made only where an answer holds them: ``rref``
divides its integer rows by their pivots once at the end, ``kernel_basis``
and ``solve`` divide only the entries they read, and ``rank`` reads the
pivots of the integer rows.  ``rref`` is the only code that builds R, and
no library code calls it: it is public API only.  The intertwining system
h -> (h A_i - B_i h)_i (Hom spaces and centralizers) is built in one place,
``_intertwining_system``, as integer rows, each coordinate pair scaled by
its own common denominator; the tangent spaces in ``modules`` are built on
the same per-pair rows, ``_intertwining_rows``.  Hom and tangent
dimensions read the rank of those rows, and Hom and centralizer bases the
kernel ``_kernel`` reads off them.
``intertwines`` checks h a = b h on the cleared integer matrices.

Products have one kernel, ``_dot_products``, behind ``Matrix.__mul__`` and
``Matrix.mat_vec``.  It also runs on plain ints: over F_p each entry is one
integer dot product reduced once; over Q each row of the left factor and
each column of the right is cleared of denominators once, and each entry is
one ``Fraction`` of an integer dot product over the two denominators.
Entries come out canonical, as ``Field`` arithmetic would give them.
``char_poly`` runs the division-free Berkowitz recurrence on residues, or
on the integer matrix D m over Q, and ``det`` is read off it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
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


def _int_products(rows: Sequence[Sequence[int]], cols: Sequence[Sequence[int]]) -> list[int]:
    """rows · cols on plain ints, unreduced: the products of integer
    matrices over Q."""
    return [sum(map(mul, r, c)) for r in rows for c in cols]


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return a * b - b * a


def intertwines(h: Matrix, a: Matrix, b: Matrix) -> bool:
    """Is h a = b h, for h of shape b.rows x a.rows?  Over Q it compares the
    integer products H A db and B H da of the cleared matrices h = H/dh,
    a = A/da and b = B/db, which dh divides out of."""
    if h.field.characteristic:
        return h * a == b * h
    ns, nt = a.rows, b.rows
    H = _clear_denominators(h.entries)[1]
    da, A = _clear_denominators(a.entries)
    db, B = (da, A) if b is a else _clear_denominators(b.entries)
    ha = _int_products([H[i * ns : (i + 1) * ns] for i in range(nt)], [A[j::ns] for j in range(ns)])
    bh = _int_products([B[i * nt : (i + 1) * nt] for i in range(nt)], [H[j::ns] for j in range(ns)])
    if da == db:
        return ha == bh
    return all(x * db == y * da for x, y in zip(ha, bh))


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
    return Matrix(F, nr, nc, tuple(x for row in grid for x in row))


def columns_matrix(field: Field, n: int, cols: Sequence[Sequence[Scalar]]) -> Matrix:
    """Assemble column vectors of length n into an n x len(cols) matrix."""
    for v in cols:
        if len(v) != n:
            raise SizeMismatchError("column of wrong length")
    return Matrix(
        field, n, len(cols), tuple(cols[j][i] for i in range(n) for j in range(len(cols)))
    )


def _intertwining_system(sources: Sequence[Matrix], targets: Sequence[Matrix]) -> list[list[int]]:
    """The linear map h -> (h A_i - B_i h)_i as int rows, where
    A_i = sources[i] is ns x ns, B_i = targets[i] is nt x nt and h is nt x ns.

    Unknowns are row-major: h_ab is column a*ns + b.  Rows are (i, r, c) in
    lexicographic order, one per entry (r, c) of h A_i - B_i h; the
    coefficient of h_ab there is [a = r] A_i[b, c] - B_i[r, a] [b = c],
    times the lcm of the denominators of A_i and B_i over Q (residues over
    F_p).  Its kernel is Hom(A, B).
    """
    if not sources or len(sources) != len(targets):
        raise ArityMismatchError(
            f"need matching nonempty tuples, got {len(sources)} and {len(targets)}"
        )
    return [row for a, b in zip(sources, targets)
            for row in _intertwining_rows(a, b, _common_denominator(a, b))]


def _common_denominator(*mats: Matrix) -> int:
    """The lcm of the denominators of the entries of mats (1 over F_p)."""
    if mats[0].field.characteristic:
        return 1
    return lcm(*(x.denominator for m in mats for x in m.entries))


def _intertwining_rows(a: Matrix, b: Matrix, d: int) -> list[list[int]]:
    """One pair's rows of ``_intertwining_system``, those of h -> h a - b h,
    times d, as ints.

    Over Q, d is a multiple of every denominator of a and b; over F_p it is
    +-1 and the rows are residues.  Entries are written directly; no matrix
    products are formed.
    """
    p = a.field.characteristic
    ns, nt = a.rows, b.rows
    if p:
        ea = a.entries if d == 1 else [x * d % p for x in a.entries]
        eb = b.entries if d == 1 else [x * d % p for x in b.entries]
    else:
        ea = [x.numerator * (d // x.denominator) for x in a.entries]
        eb = [x.numerator * (d // x.denominator) for x in b.entries]
    out = []
    for r in range(nt):
        for c in range(ns):
            row = [0] * (nt * ns)
            row[r * ns : (r + 1) * ns] = ea[c::ns]
            for k in range(nt):
                x = eb[r * nt + k]
                if x:
                    j = k * ns + c
                    row[j] = (row[j] - x) % p if p else row[j] - x
            out.append(row)
    return out


def rref(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form; returns (R, rank, pivot columns).

    The work runs on plain int rows: ``_rref_mod_p`` over F_p,
    ``_rref_fraction_free`` over Q, whose row k < rank is then divided by
    its pivot.  R is unique, so the output, including the scalar types
    (``Fraction`` over Q, ``int`` in [0, p) over F_p), does not depend on
    which kernel ran or where it pivoted.
    """
    if not m.rows:
        return m, 0, ()
    rows = _int_rows(m)
    pivots = _eliminate(rows, m.cols, m.field.characteristic)
    if not m.field.characteristic:
        zero = Fraction(0)
        rows = [[Fraction(x, row[c]) if x else zero for x in row] for row, c in zip(rows, pivots)]
        rows += [[zero] * m.cols] * (m.rows - len(pivots))
    entries: list[Scalar] = []
    for row in rows:
        entries.extend(row)
    return Matrix(m.field, m.rows, m.cols, tuple(entries)), len(pivots), tuple(pivots)


def _int_rows(m: Matrix) -> list[list[int]]:
    """The rows of m as int lists: residues over F_p, and over Q each row
    cleared of its denominators."""
    e, nc = m.entries, m.cols
    rows = [e[i * nc : (i + 1) * nc] for i in range(m.rows)]
    if m.field.characteristic:
        return [list(row) for row in rows]
    return [_clear_denominators(row)[1] for row in rows]


def _eliminate(rows: list[list[int]], ncols: int, p: int) -> list[int]:
    """Gauss-Jordan on int rows in place, by the kernel of F_p (p > 0) or
    Q (p = 0); returns the pivot columns."""
    return _rref_mod_p(rows, ncols, p) if p else _rref_fraction_free(rows, ncols)


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


def _rref_fraction_free(rows: list[list[int]], ncols: int) -> list[int]:
    """Gauss-Jordan over Q on integer rows, in place; returns the pivot
    columns.  Row k < rank ends as an integer multiple of row k of R, and
    the rows below it as zeros.

    Each column pivots on its entry of smallest magnitude among the rows
    not yet used, and the first +-1 ends the search.  A row whose entry f
    the pivot pv divides loses f/pv times the pivot row, along the pivot
    row's nonzero entries only.  Any other row becomes a*row - b*prow, where
    a/b = pv/f in lowest terms, and is divided by its content, so entries
    stay small.
    """
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        best = size = 0
        for i in range(r, nrows):
            x = rows[i][c]
            if x and (not size or abs(x) < size):
                best, size = i, abs(x)
                if size == 1:
                    break
        if not size:
            continue
        prow = rows[best]
        rows[r], rows[best] = prow, rows[r]
        pv = prow[c]
        nz = [(j, y) for j, y in enumerate(prow) if y]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                q, rem = divmod(f, pv)
                if rem:
                    g = gcd(pv, f)
                    a, b = pv // g, f // g
                    rows[i] = _primitive([a * x - b * y for x, y in zip(row, prow)])
                else:
                    for j, y in nz:
                        row[j] -= q * y
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def rank(m: Matrix) -> int:
    return len(_eliminate(_int_rows(m), m.cols, m.field.characteristic))


def kernel_basis(m: Matrix) -> list[tuple[Scalar, ...]]:
    """Basis of the right kernel {v : m v = 0}, one vector per free column.

    Vectors are ordered by ascending free-column index; each satisfies
    m v = 0 exactly.
    """
    return _kernel(_int_rows(m), m.cols, m.field.characteristic)


def _kernel(rows: list[list[int]], ncols: int, p: int) -> list[tuple[Scalar, ...]]:
    """``kernel_basis`` of the int rows of an F_p (p > 0) or Q (p = 0)
    system, which it eliminates in place.  The vector of a free column has 1
    there and -R[k][free] at pivot column k, read off the eliminated rows:
    -row[free] mod p over F_p, where pivots are 1, and
    Fraction(-row[free], row[c]) over Q."""
    pivots = _eliminate(rows, ncols, p)
    pivot_set = set(pivots)
    zero, one = (0, 1) if p else (Fraction(0), Fraction(1))
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [zero] * ncols
        v[free] = one
        for row, c in zip(rows, pivots):
            x = row[free]
            if x:
                v[c] = -x % p if p else Fraction(-x, row[c])
        basis.append(tuple(v))
    return basis


def det(m: Matrix) -> Scalar:
    """Determinant, (-1)^n times the constant term of ``char_poly``, whose
    division-free recurrence holds over F_p for every p."""
    if m.rows != m.cols:
        raise NotSquareError(f"determinant of {m.rows}x{m.cols}")
    c = char_poly(m).coeffs[0]
    return m.field.neg(c) if m.rows % 2 else c


def inverse(m: Matrix) -> Optional[Matrix]:
    """Exact inverse, or None if singular (or nonsquare: raises)."""
    if m.rows != m.cols:
        raise NotSquareError("inverse of a nonsquare matrix")
    return solve(m, Matrix.identity(m.field, m.rows))


def solve(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """One exact solution X of a X = b, or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.  It
    eliminates the int rows of [a | b] and reads x[c] off the b-block of the
    row whose pivot is c: as it stands over F_p, where pivots are 1, and
    divided by the pivot over Q.
    """
    if a.field != b.field:
        raise MixedFieldsError("solve over different fields")
    if a.rows != b.rows:
        raise SizeMismatchError("solve with mismatched row counts")
    p, n = a.field.characteristic, a.cols
    rows = _int_rows(hstack([a, b]))
    pivots = _eliminate(rows, n + b.cols, p)
    # pivots ascend, so a pivot in the b-block shows up last: inconsistent
    if pivots and pivots[-1] >= n:
        return None
    zero = a.field.zero()
    x = [(zero,) * b.cols] * n
    for row, c in zip(rows, pivots):
        pv = row[c]
        x[c] = row[n:] if p else [Fraction(y, pv) if y else zero for y in row[n:]]
    return Matrix(a.field, n, b.cols, tuple(y for row in x for y in row))


def char_poly(m: Matrix) -> UniPoly:
    """Characteristic polynomial det(tI - m), by the division-free
    Berkowitz recurrence (valid over F_p for every p, including p <= n).

    It runs on ints: residues over F_p, and over Q the integer matrix D m,
    D the lcm of m's denominators, whose coefficient of t^(n-k) is D^k times
    m's.  Each step reads R, C and the trailing submatrix as slices of the
    entries, and the Toeplitz step p <- T p is one more product.
    """
    if m.rows != m.cols:
        raise NotSquareError(f"char poly of {m.rows}x{m.cols}")
    F = m.field
    char = F.characteristic
    if char:
        den, e, dots = 1, m.entries, partial(_dot_products, char)
    else:
        (den, e), dots = _clear_denominators(m.entries), _int_products
    n = m.rows
    # coeffs descending for the trailing principal submatrix, starting empty
    p = [1]
    for k in range(n - 1, -1, -1):
        s = n - k
        R = e[k * n + k + 1 : (k + 1) * n]
        sub = [e[i * n + k + 1 : (i + 1) * n] for i in range(k + 1, n)]
        c = [1, -e[k * n + k]]
        w = e[(k + 1) * n + k :: n]  # column k below the diagonal
        for i in range(2, s + 1):
            c.append(-dots([R], [w])[0])
            if i < s:
                w = dots(sub, [w])
        # p <- T p, T the (s+1) x s lower-triangular Toeplitz matrix with first column c
        p = dots([(c[i::-1] + [0] * s)[:s] for i in range(s + 1)], [p])
    if not char:
        p = [Fraction(x, den**k) for k, x in enumerate(p)]
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
