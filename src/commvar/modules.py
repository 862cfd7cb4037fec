"""Commuting matrix tuples and their basic operations.

A d-tuple of pairwise commuting n x n matrices over k is the same thing as
a k[x_1..x_d]-module structure on k^n; simultaneous conjugation by GL_n
does not change the isomorphism class.  n = 0 (the empty module) is legal
everywhere.

The CommutingTuple constructor trusts its input; build untrusted tuples
through validate(), which reports the first offending pair.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    ArityMismatchError,
    MixedFieldsError,
    NotCommutingError,
    NotMonicError,
    NotSquareError,
    NotYoungDiagramError,
    SingularGroupElementError,
    SizeMismatchError,
)
from .fields import Field, Scalar
from .matrices import (
    Matrix,
    block_diag,
    commutator,
    eval_multipoly,
    hstack,
    intertwining_system,
    inverse,
    kernel_basis,
)
from .polynomials import MultiPoly, UniPoly


@dataclass(frozen=True)
class CommutingTuple:
    field: Field
    n: int
    d: int
    mats: tuple[Matrix, ...]

    def __post_init__(self):
        if self.d < 1:
            raise ArityMismatchError("a tuple needs d >= 1 coordinates")
        if len(self.mats) != self.d:
            raise ArityMismatchError(f"expected {self.d} matrices, got {len(self.mats)}")
        for m in self.mats:
            if m.field != self.field:
                raise MixedFieldsError("coordinate matrices over different fields")
            if m.rows != m.cols:
                raise NotSquareError("coordinate matrices must be square")
            if m.rows != self.n:
                raise SizeMismatchError(
                    f"coordinate matrix is {m.rows}x{m.cols}, tuple size is {self.n}"
                )


def validate(mats: Sequence[Matrix]) -> CommutingTuple:
    """Check shapes and pairwise commutation; return the tuple.

    The error for a failing pair carries the 1-based indices and the
    commutator, smallest (i, j) first.
    """
    mats = tuple(mats)
    if not mats:
        raise ArityMismatchError("a tuple needs d >= 1 coordinates")
    field = mats[0].field
    n = mats[0].rows
    t = CommutingTuple(field, n, len(mats), mats)
    for i in range(t.d):
        for j in range(i + 1, t.d):
            if mats[i] * mats[j] != mats[j] * mats[i]:
                raise NotCommutingError(
                    f"coordinates {i + 1} and {j + 1} do not commute",
                    pair=(i + 1, j + 1),
                    commutator=str(commutator(mats[i], mats[j])),
                )
    return t


def empty_tuple(field: Field, d: int) -> CommutingTuple:
    return CommutingTuple(field, 0, d, tuple(Matrix.zero(field, 0, 0) for _ in range(d)))


@dataclass(frozen=True)
class GroupElement:
    """An invertible matrix with its exact inverse.

    group_element() builds one from a matrix; callers that already hold
    the inverse pair the two directly instead of eliminating a second time:
    certificates and seeded draws that have just run ``inverse``, and
    framed equality, whose h = K_t K_s^-1 has the inverse K_s K_t^-1.
    """

    matrix: Matrix
    inv: Matrix


def group_element(m: Matrix) -> GroupElement:
    if m.rows != m.cols:
        raise NotSquareError("group elements are square")
    m_inv = inverse(m)
    if m_inv is None:
        raise SingularGroupElementError("matrix is not invertible", matrix=str(m))
    return GroupElement(m, m_inv)


def identity_element(field: Field, n: int) -> GroupElement:
    i = Matrix.identity(field, n)
    return GroupElement(i, i)


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    return GroupElement(g.matrix * h.matrix, h.inv * g.inv)


def conjugate(t: CommutingTuple, g: GroupElement) -> CommutingTuple:
    """Simultaneous conjugation (g A_1 g^-1, ..., g A_d g^-1)."""
    if g.matrix.field != t.field:
        raise MixedFieldsError("group element over a different field")
    if g.matrix.rows != t.n:
        raise SizeMismatchError(f"group element is {g.matrix.rows}x{g.matrix.cols}, tuple size {t.n}")
    return validate([g.matrix * a * g.inv for a in t.mats])


def direct_sum(s: CommutingTuple, t: CommutingTuple) -> CommutingTuple:
    if s.d != t.d:
        raise ArityMismatchError(f"direct sum needs equal d, got {s.d} and {t.d}")
    if s.field != t.field:
        raise MixedFieldsError("direct sum over different fields")
    return validate(
        [block_diag([a, b], field=s.field) for a, b in zip(s.mats, t.mats)]
    )


def translate(t: CommutingTuple, c: Sequence[Scalar]) -> CommutingTuple:
    """Shift the module by c: (A_1 + c_1 I, ..., A_d + c_d I).

    Support moves by +c; commutation is preserved.
    """
    if len(c) != t.d:
        raise ArityMismatchError(f"translation vector has {len(c)} entries, d = {t.d}")
    eye = Matrix.identity(t.field, t.n)
    shifted = [a + eye.scale(t.field.of(ci)) for a, ci in zip(t.mats, c)]
    return validate(shifted)


def is_punctual(t: CommutingTuple) -> bool:
    """True when every coordinate is nilpotent (support concentrated at 0)."""
    return all(a.power(t.n).is_zero() for a in t.mats)


def check_relations(t: CommutingTuple, rels: Iterable[MultiPoly]) -> bool:
    """True when every relation vanishes on the tuple."""
    for f in rels:
        if f.nvars != t.d:
            raise ArityMismatchError(
                f"relation in {f.nvars} variables applied to a d = {t.d} tuple"
            )
        if t.n == 0:
            continue
        if not eval_multipoly(f, t.mats).is_zero():
            return False
    return True


def _check_triple(mats: Sequence[Matrix]) -> tuple[Matrix, Matrix, Matrix]:
    if len(mats) != 3:
        raise ArityMismatchError(f"the potential takes exactly 3 matrices, got {len(mats)}")
    a, b, c = mats
    n = a.rows
    for m in mats:
        if m.field != a.field:
            raise MixedFieldsError("matrices over different fields")
        if m.rows != m.cols:
            raise NotSquareError("potential of nonsquare matrices")
        if m.rows != n:
            raise SizeMismatchError("matrices of different sizes")
    return a, b, c


def trace_potential(mats: Sequence[Matrix]) -> Scalar:
    """Tr(A1 [A2, A3]) for three square matrices (they need not commute)."""
    a, b, c = _check_triple(mats)
    if a.rows == 0:
        return a.field.zero()
    return (a * commutator(b, c)).trace()


def potential_gradient(mats: Sequence[Matrix]) -> tuple[Matrix, Matrix, Matrix]:
    """Entrywise gradient of the trace potential, row-major convention.

    d/dA1 Tr(A1 [A2, A3]) = [A2, A3]^T, and cyclically; the gradient
    vanishes exactly on pairwise commuting triples.
    """
    a, b, c = _check_triple(mats)
    return (
        commutator(b, c).transpose(),
        commutator(c, a).transpose(),
        commutator(a, b).transpose(),
    )


def tangent_space_dim(t: CommutingTuple) -> int:
    """Dimension of the solution space of the linearized commutation system
    {[X_i, A_j] + [A_i, X_j] = 0, i < j} in d*n^2 unknowns.

    For d = 1 there are no equations and the answer is n^2.
    """
    n, d = t.n, t.d
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    if not pairs or n == 0:
        return d * n * n
    # The (i, j) row block is [X_i, A_j] + [A_i, X_j]; with K(A) the system
    # of X -> X A - A X, that is K(A_j) on X_i and -K(A_i) on X_j.
    F = t.field
    n2 = n * n
    k = [intertwining_system([a], [a]) for a in t.mats]
    zero_block = Matrix.zero(F, n2, n2)
    blocks = [
        hstack([k[j] if c == i else -k[i] if c == j else zero_block for c in range(d)])
        for (i, j) in pairs
    ]
    system = Matrix(F, len(pairs) * n2, d * n2, tuple(x for b in blocks for x in b.entries))
    return len(kernel_basis(system))


@dataclass(frozen=True)
class Staircase:
    """A finite Young-diagram set of cells (i, j): closed under moving
    one step toward either axis."""

    cells: tuple[tuple[int, int], ...]  # sorted

    @property
    def size(self) -> int:
        return len(self.cells)


def staircase(cells: Iterable[tuple[int, int]]) -> Staircase:
    cs = sorted(set((int(i), int(j)) for i, j in cells))
    cell_set = set(cs)
    for (i, j) in cs:
        if i < 0 or j < 0:
            raise NotYoungDiagramError(f"cell {(i, j)} has a negative coordinate", cell=[i, j])
        if i > 0 and (i - 1, j) not in cell_set:
            raise NotYoungDiagramError(
                f"cell {(i, j)} present but {(i - 1, j)} missing", cell=[i, j]
            )
        if j > 0 and (i, j - 1) not in cell_set:
            raise NotYoungDiagramError(
                f"cell {(i, j)} present but {(i, j - 1)} missing", cell=[i, j]
            )
    return Staircase(tuple(cs))


def from_staircase(s: Staircase, field: Field) -> CommutingTuple:
    """The commuting pair attached to a staircase of n cells.

    Basis vectors are the cells in sorted order; the first matrix moves a
    cell one step down in i, the second one step down in j (cells on the
    axes map to zero).  Both matrices are nilpotent and the number of
    maximal cells is the minimal generator count, so staircases sample the
    generator stratification.
    """
    cells = s.cells
    index = {c: b for b, c in enumerate(cells)}
    n = len(cells)
    zero, one = field.zero(), field.one()

    def shift_matrix(di: int, dj: int) -> Matrix:
        rows = [[zero] * n for _ in range(n)]
        for b, (i, j) in enumerate(cells):
            target = (i + di, j + dj)
            if target in index:
                rows[index[target]][b] = one
        return Matrix.from_rows(field, rows) if n else Matrix.zero(field, 0, 0)

    mx = shift_matrix(-1, 0)
    my = shift_matrix(0, -1)
    return validate([mx, my])


def companion(f: UniPoly) -> CommutingTuple:
    """The 1-tuple (multiplication by t on k[t]/(f)) for monic f;
    char_poly of the result is f again."""
    if not f.is_monic:
        raise NotMonicError("companion matrix needs a monic polynomial")
    F = f.field
    n = f.degree
    zero, one = F.zero(), F.one()
    rows = [[zero] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = one
    for i in range(n):
        rows[i][n - 1] = F.neg(f.coeffs[i])
    m = Matrix.from_rows(F, rows) if n else Matrix.zero(F, 0, 0)
    return CommutingTuple(F, n, 1, (m,))
