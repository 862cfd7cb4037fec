"""Framed modules: commuting tuples with marked vectors.

A frame of r vectors corresponds to a map k^r -> M; the framed module is a
quotient-scheme point exactly when the frame generates M under the
coordinate action.  Equality of framed points is a linear problem: the
intertwiner matching the frames is unique when it exists, because frames
generate, so one elimination of the intertwining system with the frame
rows decides both its existence and its uniqueness.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    ArityMismatchError,
    MixedFieldsError,
    NotSurjectiveError,
    SizeMismatchError,
    WrongFrameCountError,
)
from .fields import Scalar
from .matrices import Matrix, columns_matrix, hstack, intertwining_system, inverse, rank, rref
from .modules import CommutingTuple, GroupElement


@dataclass(frozen=True)
class FramedModule:
    module: CommutingTuple
    frame: tuple[tuple[Scalar, ...], ...]  # r vectors of length n

    def __post_init__(self):
        for v in self.frame:
            if len(v) != self.module.n:
                raise SizeMismatchError(
                    f"frame vector of length {len(v)}, module size {self.module.n}"
                )

    @property
    def r(self) -> int:
        return len(self.frame)

    def frame_matrix(self) -> Matrix:
        """Frame vectors as the columns of an n x r matrix."""
        return columns_matrix(self.module.field, self.module.n, list(self.frame))


class _EchelonSpan:
    """Incremental row space in reduced echelon form, for Krylov saturation."""

    def __init__(self, field, width: int):
        self.field = field
        self.width = width
        self.rows: list[tuple[int, list[Scalar]]] = []  # (pivot index, row)

    def add(self, vec: Sequence[Scalar]) -> bool:
        F = self.field
        v = list(vec)
        for pivot, row in self.rows:
            if v[pivot] != F.zero():
                f = v[pivot]
                v = [F.sub(x, F.mul(f, y)) for x, y in zip(v, row)]
        for i in range(self.width):
            if v[i] != F.zero():
                inv = F.inv(v[i])
                v = [F.mul(inv, x) for x in v]
                self.rows.append((i, v))
                self.rows.sort(key=lambda pr: pr[0])
                return True
        return False

    @property
    def dim(self) -> int:
        return len(self.rows)

    def vectors(self) -> list[tuple[Scalar, ...]]:
        return [tuple(row) for _, row in self.rows]


def is_generating(f: FramedModule) -> bool:
    """Does the frame generate the module under the coordinate action?

    Krylov saturation: seed with the frame vectors in order, then multiply
    the current spanning set by A_1..A_d round robin, re-echelonizing after
    each batch; the span stabilizes within n rounds.
    """
    t = f.module
    if t.n == 0:
        return True
    span = _EchelonSpan(t.field, t.n)
    for v in f.frame:
        span.add(v)
    for _ in range(t.n):
        if span.dim == t.n:
            return True
        grew = False
        for a in t.mats:
            for v in span.vectors():
                if span.add(a.mat_vec(v)):
                    grew = True
        if not grew:
            break
    return span.dim == t.n


def forget_frame(f: FramedModule) -> CommutingTuple:
    """Drop the frame of a generating framed module (the underlying point)."""
    if not is_generating(f):
        raise NotSurjectiveError("frame does not generate the module")
    return f.module


def is_atlas_point(f: FramedModule) -> bool:
    """With r = n: is the frame matrix itself invertible (of rank n)?

    These framed points form the open locus where the frame is a basis.
    """
    t = f.module
    if f.r != t.n:
        raise WrongFrameCountError(f"atlas check needs r = n, got r = {f.r}, n = {t.n}")
    return rank(f.frame_matrix()) == t.n


def quot_equal(f: FramedModule, g: FramedModule) -> Optional[GroupElement]:
    """Decide equality of two framed points: an isomorphism of modules
    carrying frame to frame, or None.

    One elimination of the intertwining system with the frame-matching
    rows, augmented by the target frame, decides both questions: a pivot in
    the right-hand column means no solution, and since frames generate the
    coefficient part always has full column rank, so a solution is unique
    (and invertible, as the sizes agree).
    """
    s, t = f.module, g.module
    if s.field != t.field:
        raise MixedFieldsError("framed modules over different fields")
    if s.d != t.d:
        raise ArityMismatchError(f"different arity: {s.d} vs {t.d}")
    if f.r != g.r:
        raise WrongFrameCountError(f"different frame counts: {f.r} vs {g.r}")
    if not is_generating(f):
        raise NotSurjectiveError("left frame does not generate")
    if not is_generating(g):
        raise NotSurjectiveError("right frame does not generate")
    if s.n != t.n:
        return None
    F = s.field
    n = s.n
    if n == 0:
        e = Matrix.zero(F, 0, 0)
        return GroupElement(e, e)
    # Unknown h (n x n), row-major; frame row (v, r) asks (h v)_r = w_r.
    zero = F.zero()
    frame_rows = [
        [zero] * (r * n) + list(v) + [zero] * ((n - 1 - r) * n) for v in f.frame for r in range(n)
    ]
    system = intertwining_system(s.mats, t.mats, extra_rows=frame_rows)
    rhs = [zero] * (s.d * n * n) + [x for w in g.frame for x in w]
    R, rk, pivots = rref(hstack([system, columns_matrix(F, system.rows, [rhs])]))
    if n * n in pivots:
        return None
    if rk != n * n:
        raise RuntimeError("intertwiner not unique although frames generate")
    h = Matrix(F, n, n, R.col(n * n)[: n * n])
    h_inv = inverse(h)
    if h_inv is None:
        raise RuntimeError("frame-matching intertwiner must be invertible")
    return GroupElement(h, h_inv)


def gl_action_on_atlas(f: FramedModule, g: GroupElement) -> FramedModule:
    """Right-multiply the frame matrix by g (reindex the covering sections);
    the module is untouched, atlas membership is preserved."""
    t = f.module
    if f.r != t.n:
        raise WrongFrameCountError(f"atlas action needs r = n, got r = {f.r}, n = {t.n}")
    if g.matrix.field != t.field:
        raise MixedFieldsError("group element over a different field")
    if g.matrix.rows != t.n:
        raise SizeMismatchError("group element of wrong size")
    new_frame_matrix = f.frame_matrix() * g.matrix
    new_frame = tuple(new_frame_matrix.col(j) for j in range(f.r))
    return FramedModule(t, new_frame)
