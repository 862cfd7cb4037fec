"""The workloads: fixed operation mixes whose inputs come from a seed.

Each workload is a fixed schedule of shapes (field, d, staircase pieces); the
seed picks the support points, coefficients and conjugators, so two seeds
give different documents with the same mix of operation kinds and similar
cost.  ``build`` returns the operations with
the documents written under ``workdir``; each operation carries the
oracle that checks its report.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import gen
import oracles
from exact import mat_mul, one, zero

Q = None


@dataclass
class Op:
    kind: str            # operation kind, e.g. "isom-sum" or "census-per-stratum"
    argv: list[str]      # the CLI invocation
    label: str           # the input, for failure listings
    check: Callable      # (exit code, parsed report) -> (status, detail)


@dataclass
class Writer:
    workdir: str
    count: int = 0

    def doc(self, tag: str, text: str) -> str:
        path = os.path.join(self.workdir, f"{self.count:03d}-{tag}.json")
        self.count += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


def _label(p, d, mod, pieces) -> str:
    shapes = "+".join("".join(map(str, h)) for h in pieces)
    return f"{'F%d' % p if p else 'Q'} d={d} n={mod.n} pieces={shapes}"


# ---------------------------------------------------------------------------
# modules: split modules over Q, F_5 and a minority over F_2, plus twins

# (field, d, pieces): each piece is a staircase given by its column heights.
# The shapes are fixed so that every seed costs about the same; the seed
# draws the points, the coefficients and the conjugators.
MODULE_SCHEDULE = [
    (Q, 2, ((2,), (1, 1), (1,))), (Q, 3, ((1, 1), (1,), (1,))), (Q, 1, ((2, 1), (1, 1), (1,))),
    (Q, 3, ((2, 1), (1, 1))), (Q, 2, ((1, 1), (1,))),
    (5, 3, ((2, 1), (3,), (1, 1, 1))), (5, 2, ((2, 1), (1, 1, 1), (2,))),
    (5, 1, ((3,), (2, 1), (1, 1, 1))), (5, 2, ((1, 1), (2,), (1,))), (5, 3, ((2,), (1,))),
    (2, 1, ((2, 1), (1, 1))), (2, 2, ((2,), (1, 1))), (2, 2, ((1, 1), (1,), (1,))),
    (2, 3, ((2,), (1, 1), (1,))),
]
# local twins over Q at one point: (left shape, right shape); equal shapes are
# two conjugates of one module, different shapes have different annihilators
TWINS = [
    ((2, 2, 1), (2, 2, 1)), ((3, 2), (2, 2, 1)), ((2, 1, 1), (2, 2)), ((3, 1), (3, 1)),
]
TANGENT_MAX = 50  # run `tangent` only where d * n^2 stays at most this


def build_modules(rng: random.Random, w: Writer) -> list[Op]:
    ops: list[Op] = []
    for p, d, pieces in MODULE_SCHEDULE:
        mod = gen.build_module(rng, p, d, pieces)
        label = _label(p, d, mod, pieces)
        m_path = w.doc("m", gen.document(p, mod.mats))
        d_path = w.doc("sum", gen.document(p, mod.direct))
        ops += [
            Op("cycle", ["cycle", m_path], label, partial(oracles.check_cycle, mod)),
            Op("localize", ["localize", m_path], label, partial(oracles.check_localize, mod)),
            Op("isom-sum", ["isom", m_path, d_path], label, partial(oracles.check_isom_sum, mod)),
            Op("homdim", ["homdim", m_path, d_path], label, partial(oracles.check_homdim, mod)),
        ]
        if d * mod.n**2 <= TANGENT_MAX:
            ops.append(Op("tangent", ["tangent", m_path], label, partial(oracles.check_tangent, mod)))
    for lam, mu in TWINS:
        point = gen.distinct_points(rng, Q, 2, 1)
        left = gen.build_module(rng, Q, 2, [lam], points=point)
        if lam == mu:
            right = gen.reconjugate(rng, left)
        else:
            right = gen.build_module(rng, Q, 2, [mu], points=point)
        a = w.doc("twin", gen.document(Q, left.mats))
        b = w.doc("twin", gen.document(Q, right.mats))
        at = ",".join(str(x) for x in point[0])
        label = f"Q twins {''.join(map(str, lam))} vs {''.join(map(str, mu))} at ({at})"
        ops.append(Op("isom-twin", ["isom", a, b], label, partial(oracles.check_twin, left, right, lam == mu)))
    return ops


# ---------------------------------------------------------------------------
# framed: framed points over Q and F_5


def _apply(g, v, p):
    return [row[0] for row in mat_mul(g, [[x] for x in v], p)]


def _unit(n, k, p):
    v = [zero(p)] * n
    v[k] = one(p)
    return v


def _offsets(mod) -> list[int]:
    out, off = [], 0
    for c in mod.cells:
        out.append(off)
        off += len(c)
    return out


def generating_frame(mod) -> list[list]:
    """Frame vectors (in M coordinates) that generate M: the k-th vector is
    the sum over pieces of each piece's k-th generator cell.  The primary
    projections are polynomials in the coordinates, so the sums generate."""
    gens = [gen.generator_cells(c, mod.d) for c in mod.cells]
    r = max(len(g) for g in gens)
    frame = []
    for k in range(r):
        v = [zero(mod.p)] * mod.n
        for off, g in zip(_offsets(mod), gens):
            v[off + g[k % len(g)]] = one(mod.p)
        frame.append(_apply(mod.g, v, mod.p))
    return frame


def one_piece_frame(mod, r: int) -> list[list]:
    """r vectors that all lie in the first local piece."""
    size = len(mod.cells[0])
    return [_apply(mod.g, _unit(mod.n, k % size, mod.p), mod.p) for k in range(r)]


# (field, d, pieces) as for the modules workload.  Many operations of graded
# size keep the latency percentiles inside a dense part of the distribution.
FRAMED_TRANSPORT = [
    (Q, 1, ((2,), (1, 1))), (Q, 2, ((1, 1), (2,))), (Q, 2, ((2,), (1, 1), (1,))),
    (Q, 3, ((2, 1), (1, 1))), (Q, 1, ((2, 1), (1, 1, 1))), (Q, 2, ((2, 1), (1, 1), (1,))),
    (Q, 3, ((2, 1), (1, 1), (1,))),
    (5, 2, ((2, 1), (2,), (1,))), (5, 3, ((2, 1), (1, 1, 1), (1,))), (5, 2, ((2, 1), (1, 1, 1), (2,))),
    (5, 1, ((3,), (2, 1), (1, 1, 1))), (5, 3, ((2, 1), (3,), (1, 1, 1))),
    (5, 2, ((2, 1), (3,), (1, 1, 1))), (5, 1, ((3,), (2, 1), (1, 1))), (5, 3, ((2, 1), (1, 1, 1), (2,))),
    (5, 2, ((2, 1), (2, 1), (1, 1))),
]
FRAMED_UNEQUAL = [
    (Q, 2, ((2,), (1, 1))), (Q, 3, ((2, 1), (1, 1))),
    (5, 2, ((2, 1), (1, 1), (2,))), (5, 2, ((2, 1), (3,), (1, 1, 1))),
]
FRAMED_SWAPPED = [
    (Q, 1, ((2,), (1,))), (Q, 2, ((1, 1), (2,))), (5, 3, ((2,), (1, 1), (1,))), (5, 1, ((2, 1), (1, 1, 1))),
]
FRAMED_CHECKS = [
    (Q, 2, ((2, 1), (1, 1, 1), (3,))), (Q, 3, ((2, 1), (1, 1))), (Q, 1, ((2, 1), (1, 1), (1,))),
    (5, 2, ((2, 1), (3,), (1, 1, 1))), (5, 1, ((2,), (1, 1))), (5, 3, ((2, 1), (2,), (1, 1))),
    (5, 2, ((1, 1), (2,))), (5, 1, ((3,), (2, 1), (1,))),
]


def build_framed(rng: random.Random, w: Writer) -> list[Op]:
    ops: list[Op] = []
    for p, d, pieces in FRAMED_TRANSPORT:
        mod = gen.build_module(rng, p, d, pieces)
        frame = generating_frame(mod)
        g0, g0_inv = gen.rand_conjugator(rng, p, mod.n)
        moved = gen.conjugate(mod.mats, g0, g0_inv, p)
        a = w.doc("framed", gen.document(p, mod.mats, frame))
        b = w.doc("moved", gen.document(p, moved, [_apply(g0, v, p) for v in frame]))
        ops.append(Op("quot-transport", ["quot-equal", a, b], _label(p, d, mod, pieces),
                      partial(oracles.check_quot_transport, g0, p)))
    for p, d, pieces in FRAMED_UNEQUAL:
        mod = gen.build_module(rng, p, d, pieces)
        # the same pieces with one point moved off the support: not isomorphic
        points = list(mod.points)
        while points[0] in mod.points:
            points[0] = tuple(gen.rand_scalar(rng, p) for _ in range(d))
        other = gen.build_module(rng, p, d, pieces, points=points)
        fa, fb = generating_frame(mod), generating_frame(other)
        r = max(len(fa), len(fb))
        fa, fb = (fa * r)[:r], (fb * r)[:r]
        a = w.doc("framed", gen.document(p, mod.mats, fa))
        b = w.doc("moved-point", gen.document(p, other.mats, fb))
        ops.append(Op("quot-unequal", ["quot-equal", a, b], _label(p, d, mod, pieces) + " vs moved point",
                      oracles.check_quot_unequal))
    for p, d, pieces in FRAMED_SWAPPED:
        mod = gen.build_module(rng, p, d, pieces)
        # eigenframes: the basis adapted to the pieces, and the same basis with
        # the first vectors of two pieces at different points swapped
        basis = [_apply(mod.g, _unit(mod.n, k, p), p) for k in range(mod.n)]
        swapped = list(basis)
        k = _offsets(mod)[1]
        swapped[0], swapped[k] = basis[k], basis[0]
        a = w.doc("eigenframe", gen.document(p, mod.mats, basis))
        b = w.doc("swapped", gen.document(p, mod.mats, swapped))
        ops.append(Op("quot-swapped", ["quot-equal", a, b], _label(p, d, mod, pieces) + " swapped eigenframe",
                      oracles.check_quot_unequal))
    for p, d, pieces in FRAMED_CHECKS:
        mod = gen.build_module(rng, p, d, pieces)
        label = _label(p, d, mod, pieces)
        frame = generating_frame(mod)
        g_frame, _ = gen.rand_conjugator(rng, p, mod.n)
        atlas = [[row[k] for row in mat_mul(mod.g, g_frame, p)] for k in range(mod.n)]
        cases = [
            ("frame-check", "generating", frame, True),
            ("frame-check", "generating", one_piece_frame(mod, len(frame)), False),
            ("atlas-check", "atlas_point", atlas, True),
            ("atlas-check", "atlas_point", one_piece_frame(mod, mod.n), False),
        ]
        for cmd, key, fr, want in cases:
            path = w.doc(cmd, gen.document(p, mod.mats, fr))
            ops.append(Op(f"{cmd}-{str(want).lower()}", [cmd, path], label,
                          partial(oracles.check_flag, key, want)))
    return ops


# ---------------------------------------------------------------------------
# census: the (n, d, q) ladder

LADDER = [(2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 2, 5), (2, 3, 2), (2, 3, 3)]
NILPOTENT = [(2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2)]
PER_STRATUM = [(2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2)]
ORBITS = [(2, 1, 2), (2, 1, 3), (2, 2, 2), (2, 3, 2)]


def build_census(rng: random.Random, w: Writer) -> list[Op]:
    ops = []
    for kind, rungs in (("census", LADDER), ("census-nilpotent", NILPOTENT),
                        ("census-per-stratum", PER_STRATUM), ("orbit-census", ORBITS)):
        for n, d, q in rungs:
            req = {"n": n, "d": d, "q": q, "nilpotent": kind == "census-nilpotent",
                   "per_stratum": kind == "census-per-stratum"}
            argv = ["orbit-census" if kind == "orbit-census" else "census",
                    "--n", str(n), "--d", str(d), "--q", str(q)]
            if req["nilpotent"]:
                argv.append("--nilpotent")
            if req["per_stratum"]:
                argv.append("--per-stratum")
            check = oracles.check_orbits if kind == "orbit-census" else oracles.check_census
            ops.append(Op(kind, argv, f"n={n} d={d} q={q}", partial(check, req)))
    # the seed orders the ladder; the census inputs are otherwise fixed
    rng.shuffle(ops)
    return ops


# The framed operations run inside the modules workload: two workloads leave
# each run twice as long as three would, which the drifting speed of the
# machine the benchmark was written on needs for steady figures.
BUILDERS = {"modules": (build_modules, build_framed), "census": (build_census,)}


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    os.makedirs(workdir, exist_ok=True)
    rng, writer = random.Random(f"{workload}:{seed}"), Writer(workdir)
    return [op for builder in BUILDERS[workload] for op in builder(rng, writer)]
