"""Seeded deterministic samplers used by tests, demos and the CLI.

All randomness flows through an explicit random.Random instance, so the
same seed reproduces the same objects everywhere.
"""
from __future__ import annotations

import random

from .errors import ArityMismatchError
from .fields import Field, Scalar
from .matrices import Matrix, inverse
from .modules import (
    CommutingTuple,
    GroupElement,
    Staircase,
    companion,
    conjugate,
    direct_sum,
    empty_tuple,
    from_staircase,
    staircase,
    translate,
    validate,
)
from .polynomials import UniPoly


def random_scalar(field: Field, rng: random.Random, span: int = 3) -> Scalar:
    if field.characteristic:
        return rng.randrange(field.characteristic)
    return field.of(rng.randint(-span, span))


def random_matrix(field: Field, n: int, rng: random.Random) -> Matrix:
    return Matrix(field, n, n, tuple(random_scalar(field, rng) for _ in range(n * n)))


def random_group_element(field: Field, n: int, rng: random.Random) -> GroupElement:
    """Redraw random_matrix until one is invertible; one ``inverse`` per draw."""
    while True:
        m = random_matrix(field, n, rng)
        m_inv = inverse(m)
        if m_inv is not None:
            return GroupElement(m, m_inv)


def random_staircase(rng: random.Random, n_cells: int) -> Staircase:
    """A uniform-ish random Young diagram with the given number of cells."""
    rows: list[int] = []
    remaining = n_cells
    cap = max(n_cells, 1)
    while remaining > 0:
        r = rng.randint(1, min(cap, remaining))
        rows.append(r)
        cap = r
        remaining -= r
    cells = [(i, j) for j, width in enumerate(rows) for i in range(width)]
    return staircase(cells)


def random_punctual_tuple(
    field: Field, d: int, size: int, rng: random.Random
) -> CommutingTuple:
    """A punctual (nilpotent) tuple of the given size: staircase pair for
    the first two coordinates, polynomial combinations of them after that."""
    if d < 1:
        raise ArityMismatchError("a tuple needs d >= 1 coordinates")
    if size == 0:
        return empty_tuple(field, d)
    if d == 1:
        # any strictly upper triangular matrix is punctual
        rows = [
            [random_scalar(field, rng) if j > i else field.zero() for j in range(size)]
            for i in range(size)
        ]
        return validate([Matrix.from_rows(field, rows)])
    pair = from_staircase(random_staircase(rng, size), field)
    mx, my = pair.mats
    mats = [mx, my]
    for _ in range(d - 2):
        extra = Matrix.zero(field, size, size)
        for basis_el in (mx, my, mx * my, mx * mx):
            c = random_scalar(field, rng, span=2)
            if c != field.zero():
                extra = extra + basis_el.scale(c)
        mats.append(extra)
    return validate(mats)


def random_split_tuple(
    field: Field,
    d: int,
    rng: random.Random,
    max_pieces: int = 3,
    max_piece_size: int = 3,
    coord_span: int = 2,
) -> tuple[CommutingTuple, list[tuple[tuple[Scalar, ...], int]]]:
    """A tuple with known split support: punctual pieces translated to
    pairwise distinct rational points, summed, then conjugated.

    Returns (tuple, ground truth) where the ground truth lists
    (point, size) by construction, independent of any cycle computation.
    """
    # No more pieces than distinct candidate points (random_scalar draws
    # from F_p, or from [-coord_span, coord_span] over Q), or the redraw
    # loop below never ends.
    candidates = (field.characteristic or 2 * coord_span + 1) ** d
    pieces = min(rng.randint(1, max_pieces), candidates)
    points: list[tuple[Scalar, ...]] = []
    while len(points) < pieces:
        p = tuple(random_scalar(field, rng, coord_span) for _ in range(d))
        if p not in points:
            points.append(p)
    total = empty_tuple(field, d)
    truth: dict[tuple[Scalar, ...], int] = {}
    for p in points:
        size = rng.randint(1, max_piece_size)
        block = translate(random_punctual_tuple(field, d, size, rng), list(p))
        total = direct_sum(total, block)
        truth[p] = truth.get(p, 0) + size
    total = conjugate(total, random_group_element(field, total.n, rng))
    return total, sorted(truth.items())


def sample_companion_of_roots(field: Field, roots: list[Scalar]) -> CommutingTuple:
    """companion((t - r_1)...(t - r_k)) for explicit roots."""
    f = UniPoly.one(field)
    for r in roots:
        f = f * UniPoly.make(field, [field.neg(field.of(r)), field.one()])
    return companion(f)
