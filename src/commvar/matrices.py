"""Dense exact matrices and the linear algebra on them.

Everything is row-major over a single Field; 0x0 matrices are legal
everywhere (det = 1, char poly = 1).  Outputs are deterministic.

The arithmetic runs on plain int rows, and the field owns it (see
``fields``): ``clear`` holds scalars as ints, ``eliminate`` is the one
Gauss-Jordan, ``products`` and ``dots`` multiply, and ``lift`` turns ints
over a denominator back into scalars.  Nothing here reads the
characteristic.  ``rref``, ``rank``, ``kernel_basis``, ``solve`` and
``inverse`` (``solve`` against the identity) read their answers off the
eliminated rows of ``_int_rows``, or, in ``solve``, of [a | b] cleared a
row of a and a row of b at a time.  The reduced row echelon form is unique,
so R, rank and pivots, down to the scalar types, are the same as those of
textbook elimination with field operations, and so are the kernel vectors
and solutions read off it.  "Is m invertible?" is asked of ``inverse``,
which answers it and returns the inverse in the same elimination, or, when
only the answer is wanted, of the rank.

Scalars are made only where an answer holds them: ``rref`` lifts its rows
over their pivots once at the end, ``kernel_basis`` and ``solve`` lift
only the entries they read, and ``rank`` reads the pivots.  ``rref`` is the
only code that builds R, and no library code calls it: it is public API
only.  The Koszul differentials delta^i on Hom(M, N) (x) L^i k^d, whose
cohomology is Ext^i(M, N), are built in one place, ``_koszul_rows``, as int
rows, from the rows ``_intertwining_rows`` of h -> h A - B h for one pair
of coordinates, which the census walk adds one coordinate at a time.
delta^0 is h -> (h A_i - B_i h)_i: Hom and centralizer bases are the
kernel ``_kernel`` reads off it, and Hom and End dimensions and generator
counts (Hom into the point module) read its rank.  Tangent dimensions read
the rank of delta^1 on Hom(M, M).  ``intertwines`` checks h a = b h on the
cleared int matrices.

``Matrix.__mul__`` and ``Matrix.mat_vec`` are the field's ``dots``, whose
entries come out canonical, as ``Field`` arithmetic would give them.
``char_poly`` runs the division-free Berkowitz recurrence on the cleared
int matrix with the field's ``products``, and ``det`` is read off it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
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

    def __hash__(self) -> int:
        # equal matrices have equal entries; the field and shape add little
        return hash(self.entries)

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
        entries = self.field.dots(
            [a[i * k : (i + 1) * k] for i in range(self.rows)], [b[j::m] for j in range(m)]
        )
        return Matrix(self.field, self.rows, m, tuple(entries))

    def scale(self, s: Scalar) -> "Matrix":
        F = self.field
        return Matrix(F, self.rows, self.cols, tuple(F.mul(s, a) for a in self.entries))

    def mat_vec(self, v: Sequence[Scalar]) -> tuple[Scalar, ...]:
        if len(v) != self.cols:
            raise SizeMismatchError(f"vector length {len(v)} vs {self.cols} columns")
        return tuple(self.field.dots([self.row(i) for i in range(self.rows)], [v]))

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


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return a * b - b * a


def intertwines(h: Matrix, a: Matrix, b: Matrix) -> bool:
    """Is h a = b h, for h of shape b.rows x a.rows?  It compares the int
    products H A db and B H da of the cleared matrices h = H/dh, a = A/da
    and b = B/db, which dh divides out of; no scalar is built."""
    F = h.field
    ns, nt = a.rows, b.rows
    H = F.clear(h.entries)[1]
    da, A = F.clear(a.entries)
    db, B = (da, A) if b is a else F.clear(b.entries)
    ha = F.products([H[i * ns : (i + 1) * ns] for i in range(nt)], [A[j::ns] for j in range(ns)])
    bh = F.products([B[i * nt : (i + 1) * nt] for i in range(nt)], [H[j::ns] for j in range(ns)])
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


def _koszul_rows(sources: Sequence[Matrix], targets: Sequence[Matrix], i: int) -> list[list[int]]:
    """The Koszul differential delta^i : Hom(M, N) (x) L^i -> Hom(M, N) (x) L^(i+1)
    as int rows, L^i the i-th exterior power of k^d, M and N the modules of
    A = sources (ns x ns) and B = targets (nt x nt).  On an (i+1)-subset
    K = (k_0 < ... < k_i) of the d coordinates it is
    (delta phi)_K = sum_s (-1)^s (phi_{K - k_s} A_{k_s} - B_{k_s} phi_{K - k_s}).

    Unknowns are the i-subsets J in lexicographic order, each a block of
    nt*ns columns holding phi_J row-major; rows are the (i+1)-subsets K in
    the same order, nt*ns per K, one per entry of (delta phi)_K.  Each K's
    rows are the ``_intertwining_rows`` of its pairs over one common
    denominator, the d of the field's ``clear`` on them, negated for odd s.
    delta^0 is h -> (h A_k - B_k h)_k, whose kernel is Hom(M, N): each K is
    one coordinate k, and its rows are the ``_intertwining_rows`` of A_k, B_k.
    """
    d = len(sources)
    if not d or d != len(targets):
        raise ArityMismatchError(f"need matching nonempty tuples, got {d} and {len(targets)}")
    F, size = sources[0].field, targets[0].rows * sources[0].rows
    block = {J: c * size for c, J in enumerate(itertools.combinations(range(d), i))}
    out = []
    for K in itertools.combinations(range(d), i + 1):
        den = F.clear([x for k in K for x in sources[k].entries + targets[k].entries])[0]
        rows = [[0] * (len(block) * size) for _ in range(size)]
        for s, k in enumerate(K):
            c = block[K[:s] + K[s + 1 :]]
            part = _intertwining_rows(sources[k], targets[k], -den if s % 2 else den)
            for row, x in zip(rows, part):
                row[c : c + size] = x
        out += rows
    return out


def _intertwining_rows(a: Matrix, b: Matrix, d: Optional[int] = None) -> list[list[int]]:
    """The rows of h -> h a - b h, one pair's rows of ``_koszul_rows``,
    times d, as the ints the field's ``clear`` holds them in; d must be a
    multiple of every denominator of a and b, and is by default the d of
    the field's ``clear`` on both.

    Row (r, c) holds column c of d a in the block of unknowns h_r*, and row r
    of -d b down column c of the blocks; the one entry in both, at h_rc,
    holds d a_cc - d b_rr.  No matrix products are formed.
    """
    F = a.field
    ns, nt = a.rows, b.rows
    d, ea = F.clear(a.entries + b.entries, d)
    eb = F.clear(b.entries, -d)[1]
    # the sums d a_cc + (-d b_rr) of held ints, held as the field holds ints
    diag = F.clear([x + y for y in eb[:: nt + 1] for x in ea[: ns * ns : ns + 1]], 1)[1]
    out = []
    for r in range(nt):
        for c in range(ns):
            row = [0] * (nt * ns)
            row[r * ns : (r + 1) * ns] = ea[c : ns * ns : ns]
            row[c::ns] = eb[r * nt : (r + 1) * nt]
            row[r * ns + c] = diag[r * ns + c]
            out.append(row)
    return out


def rref(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form; returns (R, rank, pivot columns).

    The field eliminates the int rows of m, and R's row k < rank is the
    lift of row k over its pivot entry.  R is unique, so the output,
    including the scalar types (``Fraction`` over Q, ``int`` in [0, p) over
    F_p), does not depend on where the field's kernel pivoted.
    """
    if not m.rows:
        return m, 0, ()
    F = m.field
    rows = _int_rows(m)
    pivots = F.eliminate(rows, m.cols)
    lift = F.lift
    entries = [lift(x, row[c]) for row, c in zip(rows, pivots) for x in row]
    entries += [F.zero()] * ((m.rows - len(pivots)) * m.cols)
    return Matrix(F, m.rows, m.cols, tuple(entries)), len(pivots), tuple(pivots)


def _int_rows(m: Matrix) -> list[list[int]]:
    """The rows of m as int lists, each cleared by the field."""
    e, nc, clear = m.entries, m.cols, m.field.clear
    return [clear(e[i * nc : (i + 1) * nc])[1] for i in range(m.rows)]


def rank(m: Matrix) -> int:
    return len(m.field.eliminate(_int_rows(m), m.cols))


def kernel_basis(m: Matrix) -> list[tuple[Scalar, ...]]:
    """Basis of the right kernel {v : m v = 0}, one vector per free column.

    Vectors are ordered by ascending free-column index; each satisfies
    m v = 0 exactly.
    """
    return _kernel(_int_rows(m), m.cols, m.field)


def _kernel(rows: list[list[int]], ncols: int, F: Field) -> list[tuple[Scalar, ...]]:
    """``kernel_basis`` of int rows held by F, which F eliminates in place.
    The vector of a free column has 1 there and -R[k][free] at pivot column
    k, the lift of -row[free] over the pivot entry of row k."""
    pivots = F.eliminate(rows, ncols)
    pivot_set = set(pivots)
    zero, one, lift = F.zero(), F.one(), F.lift
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [zero] * ncols
        v[free] = one
        for row, c in zip(rows, pivots):
            x = row[free]
            if x:
                v[c] = lift(-x, row[c])
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

    Free variables are set to zero, so the answer is deterministic.  The
    field eliminates the int rows of [a | b], each cleared from a row of a
    and a row of b, and x[c] is the lift of the b-block of the row whose
    pivot is c over that pivot entry.
    """
    if a.field != b.field:
        raise MixedFieldsError("solve over different fields")
    if a.rows != b.rows:
        raise SizeMismatchError("solve with mismatched row counts")
    F, n, m = a.field, a.cols, b.cols
    ea, eb, clear = a.entries, b.entries, F.clear
    rows = [clear(ea[i * n:(i + 1) * n] + eb[i * m:(i + 1) * m])[1] for i in range(a.rows)]
    pivots = F.eliminate(rows, n + m)
    # pivots ascend, so a pivot in the b-block shows up last: inconsistent
    if pivots and pivots[-1] >= n:
        return None
    lift = F.lift
    x = [(F.zero(),) * m] * n
    for row, c in zip(rows, pivots):
        pv = row[c]
        x[c] = [lift(y, pv) for y in row[n:]]
    return Matrix(F, n, m, tuple(y for row in x for y in row))


def char_poly(m: Matrix) -> UniPoly:
    """Characteristic polynomial det(tI - m), by the division-free
    Berkowitz recurrence (valid over F_p for every p, including p <= n).

    It runs on the ints D m that the field's ``clear`` gives, D a common
    denominator of m, with the field's int ``products``: the coefficient of
    t^(n-k) is D^k times m's, and it is lifted over D^k at the end.  Each
    step reads R, C and the trailing submatrix as slices of the entries,
    and the Toeplitz step p <- T p is one more product.
    """
    if m.rows != m.cols:
        raise NotSquareError(f"char poly of {m.rows}x{m.cols}")
    F = m.field
    den, e = F.clear(m.entries)
    dots = F.products
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
    return UniPoly.make(F, reversed([F.lift(x, den**k) for k, x in enumerate(p)]))


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
