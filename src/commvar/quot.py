"""Framed modules: commuting tuples with marked vectors.

A frame of r vectors corresponds to a map k^r -> M; the framed module is a
quotient-scheme point exactly when the frame generates M under the
coordinate action.  Both questions run on one Krylov basis: the span of the
frame under A_1..A_d, built level by level, each basis vector recorded with
the word that makes it.  Each level reads its new vectors off the pivots of
one elimination of int rows, which builds no reduced row echelon matrix.
The frame generates when the basis has n vectors.
Two framed points are equal when the same words on the other frame give an
invertible K_t and h = K_t K_s^-1 intertwines and matches frame to frame;
any frame-matching intertwiner sends each word to the same word, so h is the
only candidate and the certificate is unique.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import (
    ArityMismatchError,
    MixedFieldsError,
    NotSurjectiveError,
    SizeMismatchError,
    WrongFrameCountError,
)
from .fields import Scalar
from .matrices import Matrix, _int_rows, columns_matrix, intertwines, inverse, rank
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


Word = tuple[Optional[int], int]  # (None, j): frame vector j; (i, k): A_i times basis vector k


def _krylov(f: FramedModule) -> tuple[list[tuple[Scalar, ...]], list[Word]]:
    """A basis of the span of the frame under A_1..A_d, with the word that
    makes each basis vector.

    Level 0 offers the frame vectors, level l + 1 offers A_i times the
    vectors level l added, vector-major, with one product per coordinate.
    One elimination of the int rows of [basis | offers] per level: the
    pivot columns past the basis are the new vectors.  The span is closed
    once a level adds nothing.
    """
    t = f.module
    F = t.field
    basis: list[tuple[Scalar, ...]] = []
    words: list[Word] = []
    offers = [(None, j, v) for j, v in enumerate(f.frame)]
    while offers and len(basis) < t.n:
        b = len(basis)
        cols = basis + [v for _, _, v in offers]
        for c in F.eliminate(_int_rows(columns_matrix(F, t.n, cols)), len(cols))[b:]:
            i, k, v = offers[c - b]
            basis.append(v)
            words.append((i, k))
        if len(basis) < t.n:
            # one product per coordinate: column k of A_i [new vectors] is A_i v_k
            new = basis[b:]
            images = [F.dots([a.row(r) for r in range(t.n)], new) for a in t.mats]
            offers = [
                (i, b + k, tuple(image[k::len(new)]))
                for k in range(len(new)) for i, image in enumerate(images)
            ]
    return basis, words


def is_generating(f: FramedModule) -> bool:
    """Does the frame generate the module under the coordinate action?"""
    return len(_krylov(f)[0]) == f.module.n


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

    K_s holds f's Krylov basis as columns and K_t the same words run on g's
    frame under the B_i.  A frame-matching intertwiner sends each word on f
    to the same word on g, so it can only be h = K_t K_s^-1; h is returned
    if K_t is invertible, h A_i = B_i h for every i and h carries every
    frame vector (also those the basis skipped) to its partner.  An
    invertible K_t spans g's module from g's frame, so g generates.
    """
    s, t = f.module, g.module
    if s.field != t.field:
        raise MixedFieldsError("framed modules over different fields")
    if s.d != t.d:
        raise ArityMismatchError(f"different arity: {s.d} vs {t.d}")
    if f.r != g.r:
        raise WrongFrameCountError(f"different frame counts: {f.r} vs {g.r}")
    basis, words = _krylov(f)
    if len(basis) != s.n:
        raise NotSurjectiveError("left frame does not generate")
    k_t = k_t_inv = None
    if s.n == t.n:
        images: list[tuple[Scalar, ...]] = []
        for i, k in words:
            images.append(g.frame[k] if i is None else t.mats[i].mat_vec(images[k]))
        k_t = columns_matrix(t.field, t.n, images)
        k_t_inv = inverse(k_t)
    if k_t_inv is None:
        if not is_generating(g):
            raise NotSurjectiveError("right frame does not generate")
        return None
    k_s = columns_matrix(s.field, s.n, basis)
    k_s_inv = inverse(k_s)
    if k_s_inv is None:
        raise RuntimeError("Krylov basis of the left frame is singular")
    h = k_t * k_s_inv
    if not all(intertwines(h, a, b) for a, b in zip(s.mats, t.mats)):
        return None
    if any(h.mat_vec(v) != tuple(w) for v, w in zip(f.frame, g.frame)):
        return None
    return GroupElement(h, k_s * k_t_inv)


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
