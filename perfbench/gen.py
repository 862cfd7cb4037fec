"""Seeded input generation on plain lists, independent of ``commvar.sampling``.

Every module is built with its ground truth: the support points with their
local blocks (staircase modules translated to the point), the unconjugated
direct sum D, and the conjugator g with M = g D g^-1.  A later change to the
program's own samplers cannot change these inputs.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from exact import add_scalar, block_diag, field_name, fmt, identity, inverse, mat_add, mat_mul, scale, zeros


def rand_scalar(rng: random.Random, p, span: int = 2):
    return rng.randrange(p) if p else Fraction(rng.randint(-span, span))


def staircase_cells(heights) -> list[tuple[int, int]]:
    """Cells (i, j) of a Young diagram with column j of the given height."""
    return sorted((i, j) for j, h in enumerate(heights) for i in range(h))


def shift(cells, di: int, dj: int, p) -> list[list]:
    """The nilpotent shift moving cell (i, j) to (i + di, j + dj) where present."""
    index = {c: k for k, c in enumerate(cells)}
    m = zeros(len(cells), len(cells), p)
    for k, (i, j) in enumerate(cells):
        t = index.get((i + di, j + dj))
        if t is not None:
            m[t][k] = 1 if p else Fraction(1)
    return m


def generator_cells(cells, d: int) -> list[int]:
    """Indices of cells that generate the staircase module: cells no move
    reaches (tops of columns for d = 1, outer corners for d >= 2)."""
    s = set(cells)
    return [
        k for k, (i, j) in enumerate(cells)
        if (i + 1, j) not in s and (d == 1 or (i, j + 1) not in s)
    ]


def local_block(rng: random.Random, p, d: int, cells) -> list[list[list]]:
    """A punctual d-tuple on the staircase: the shifts X, Y and, for d = 3,
    a polynomial in them.  Every coordinate lies in k[X, Y] and X, Y lie
    in the algebra the tuple generates, so the generator cells generate."""
    x = shift(cells, -1, 0, p)
    if d == 1:
        return [x]
    y = shift(cells, 0, -1, p)
    c = rand_scalar(rng, p)
    mats = [x, mat_add(y, scale(x, c, p), p)]
    if d == 3:
        z = zeros(len(cells), len(cells), p)
        for term in (x, y, mat_mul(x, y, p), mat_mul(x, x, p)):
            z = mat_add(z, scale(term, rand_scalar(rng, p), p), p)
        mats.append(z)
    return mats


def rand_conjugator(rng: random.Random, p, n: int):
    """(g, g^-1).  Over Q, g = P L U with unit triangular L, U with entries
    in {-1, 0, 1}, so g and g^-1 are integral and entry sizes stay steady;
    over F_p, a uniform invertible matrix."""
    if p:
        while True:
            g = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            g_inv = inverse(g, p)
            if g_inv is not None:
                return g, g_inv
    lower = identity(n, p)
    upper = identity(n, p)
    for i in range(n):
        for j in range(i):
            lower[i][j] = Fraction(rng.randint(-1, 1))
            upper[j][i] = Fraction(rng.randint(-1, 1))
    perm = list(range(n))
    rng.shuffle(perm)
    g = [mat_mul(lower, upper, p)[k] for k in perm]
    return g, inverse(g, p)


def conjugate(mats, g, g_inv, p):
    return [mat_mul(mat_mul(g, a, p), g_inv, p) for a in mats]


@dataclass
class Module:
    """M = g D g^-1 with D the direct sum of local blocks at distinct points."""

    p: object
    d: int
    points: list[tuple]
    cells: list[list[tuple[int, int]]]
    blocks: list[list[list[list]]]  # per point: d translated local matrices
    direct: list[list[list]]        # D
    g: list[list]
    g_inv: list[list]
    mats: list[list[list]]          # M

    @property
    def n(self) -> int:
        return len(self.g)

    def support(self) -> list[tuple[tuple, int]]:
        return sorted((pt, len(c)) for pt, c in zip(self.points, self.cells))


def distinct_points(rng: random.Random, p, d: int, k: int) -> list[tuple]:
    pts: list[tuple] = []
    while len(pts) < k:
        pt = tuple(rand_scalar(rng, p) for _ in range(d))
        if pt not in pts:
            pts.append(pt)
    return pts


def build_module(rng: random.Random, p, d: int, heights, points=None) -> Module:
    """A conjugated split module with one local staircase piece per entry of
    ``heights`` (the column heights of its Young diagram)."""
    points = points or distinct_points(rng, p, d, len(heights))
    cells = [staircase_cells(h) for h in heights]
    blocks = []
    for pt, cs in zip(points, cells):
        local = local_block(rng, p, d, cs)
        blocks.append([add_scalar(a, c, p) for a, c in zip(local, pt)])
    direct = [block_diag([b[i] for b in blocks], p) for i in range(d)]
    g, g_inv = rand_conjugator(rng, p, len(direct[0]))
    return Module(p, d, list(points), cells, blocks, direct, g, g_inv, conjugate(direct, g, g_inv, p))


def reconjugate(rng: random.Random, mod: Module) -> Module:
    """The same direct sum D under a fresh conjugator: an isomorphic twin."""
    g, g_inv = rand_conjugator(rng, mod.p, mod.n)
    return Module(mod.p, mod.d, mod.points, mod.cells, mod.blocks, mod.direct, g, g_inv,
                  conjugate(mod.direct, g, g_inv, mod.p))


def document(p, mats, frame=None) -> str:
    """A module document in the program's JSON format."""
    n = len(mats[0])
    doc = {
        "field": field_name(p),
        "n": n,
        "d": len(mats),
        "matrices": [[[fmt(x, p) for x in row] for row in m] for m in mats],
    }
    if frame is not None:
        doc["frame"] = [[fmt(x, p) for x in v] for v in frame]
    return json.dumps(doc)
