"""Exact oracles for every benchmark operation.

Expected values come from construction (support points, the transporting
g0, staircase shapes), from closed forms (Feit-Fine, the stratum formula,
Burnside), or from this package's own brute force and plain-list
elimination.  Nothing here calls commvar.

A check returns ``(status, detail)``: ``"ok"``; ``"fail"`` for a wrong
answer or an unexpected refusal; or ``"known"`` for a failure that matches
one of the two defects listed in ROADMAP.md, which still counts as failed.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from exact import (
    add_scalar, block_diag, fmt, intertwining_dim, is_invertible, is_nilpotent,
    mat_mul, parse, parse_matrix, tangent_dim,
)

OK = ("ok", "")

# ROADMAP item 3: the separating-form search gives up on split modules.
KNOWN_GENERICITY = "GENERICITY_EXHAUSTED on a split module (ROADMAP item 3)"
# ROADMAP item 4: per-stratum census files exhausted split tuples as unsplit.
KNOWN_MISFILED = "per-stratum census files split tuples as unsplit (ROADMAP item 4)"


def fail(msg: str):
    return ("fail", msg)


def refusal(code: int, report) -> str:
    if isinstance(report, dict) and "error" in report:
        return f"exit {code}: {report['error']}"
    return f"exit {code}"


def split_refusal(code: int, report):
    """Outcome for a refused operation on a module whose support is split."""
    if code == 1 and isinstance(report, dict) and report.get("error") == "GENERICITY_EXHAUSTED":
        return ("known", KNOWN_GENERICITY)
    return fail("unexpected refusal " + refusal(code, report))


# ---------------------------------------------------------------------------
# modules


def check_cycle(mod, code, report):
    if code != 0:
        return split_refusal(code, report)
    got = sorted((tuple(parse(x, mod.p) for x in e["point"]), e["mult"]) for e in report["cycle"])
    if got != mod.support():
        return fail(f"cycle {got} != support {mod.support()}")
    alpha = [0] * mod.n
    for _, m in mod.support():
        alpha[m - 1] += 1
    if report["stratum"] != alpha:
        return fail(f"stratum {report['stratum']} != {alpha}")
    return OK


def check_localize(mod, code, report):
    if code != 0:
        return split_refusal(code, report)
    p = mod.p
    summands = report["summands"]
    got = sorted((tuple(parse(x, p) for x in s["point"]), s["n"]) for s in summands)
    if got != mod.support():
        return fail(f"summands {got} != support {mod.support()}")
    g = parse_matrix(report["change_of_basis"], p)
    if not is_invertible(g, p):
        return fail("change of basis is singular")
    blocks = [[parse_matrix(m, p) for m in s["matrices"]] for s in summands]
    for s, bl in zip(summands, blocks):
        point = [parse(x, p) for x in s["point"]]
        for a, c in zip(bl, point):
            if not is_nilpotent(add_scalar(a, -c, p), p):
                return fail(f"block at {s['point']} is not supported at its point")
    for i, a in enumerate(mod.mats):
        target = block_diag([bl[i] for bl in blocks], p)
        if mat_mul(g, a, p) != mat_mul(target, g, p):
            return fail(f"g A_{i + 1} g^-1 is not the block sum")
    return OK


def check_certificate(left, right, p, report):
    """An isomorphism certificate h with h A_i = B_i h and det h != 0."""
    if report.get("isomorphic") is not True or report.get("certificate") is None:
        return fail("expected a certificate, got none")
    h = parse_matrix(report["certificate"], p)
    if not is_invertible(h, p):
        return fail("certificate is singular")
    for i, (a, b) in enumerate(zip(left, right)):
        if mat_mul(h, a, p) != mat_mul(b, h, p):
            return fail(f"certificate does not intertwine coordinate {i + 1}")
    return OK


def check_isom_sum(mod, code, report):
    if code != 0:
        return fail("unexpected refusal " + refusal(code, report))
    return check_certificate(mod.mats, mod.direct, mod.p, report)


def check_twin(left, right, same_shape, code, report):
    if code != 0:
        return fail("unexpected refusal " + refusal(code, report))
    if same_shape:
        return check_certificate(left.mats, right.mats, left.p, report)
    if report.get("isomorphic") is not False or report.get("certificate") is not None:
        return fail("different staircases have different annihilators, expected absent")
    return OK


@lru_cache(maxsize=None)
def _end_dim(key):
    p, mats = key
    mats = [[list(r) for r in m] for m in mats]
    return intertwining_dim(mats, mats, p)


def _frozen(p, mats):
    return (p, tuple(tuple(tuple(r) for r in m) for m in mats))


def expected_homdim(mod) -> int:
    """dim Hom(M, D) = sum of dim End over the local blocks: homs between
    modules supported at different points vanish."""
    return sum(_end_dim(_frozen(mod.p, b)) for b in mod.blocks)


def check_homdim(mod, code, report):
    if code != 0:
        return fail("unexpected refusal " + refusal(code, report))
    want = expected_homdim(mod)
    if report["hom_dim"] != want:
        return fail(f"hom_dim {report['hom_dim']} != {want}")
    return OK


def check_tangent(mod, code, report):
    if code != 0:
        return fail("unexpected refusal " + refusal(code, report))
    # the tangent dimension is conjugation invariant: solve on D, not M
    want = tangent_dim(mod.direct, mod.p)
    if report["tangent_dim"] != want or report["ambient_dim"] != mod.d * mod.n**2:
        return fail(f"tangent {report['tangent_dim']} != {want}")
    return OK


# ---------------------------------------------------------------------------
# framed modules


def check_quot_transport(g0, p, code, report):
    if code != 0:
        return fail("unexpected refusal " + refusal(code, report))
    want = [[fmt(x, p) for x in row] for row in g0]
    if report.get("equal") is not True or report.get("certificate") != want:
        return fail("expected exactly the transporting g0")
    return OK


def check_quot_unequal(code, report):
    if code != 0:
        return fail("unexpected refusal " + refusal(code, report))
    if report.get("equal") is not False or report.get("certificate") is not None:
        return fail("expected not equal")
    return OK


def check_flag(key, want, code, report):
    if code != 0:
        return fail("unexpected refusal " + refusal(code, report))
    if report.get(key) is not want:
        return fail(f"{key} {report.get(key)} != {want}")
    return OK


# ---------------------------------------------------------------------------
# census


def gl_order(n: int, q: int) -> int:
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def _series_mul(a, b, N):
    out = [Fraction(0)] * (N + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(N + 1 - i):
                out[i + j] += x * b[j]
    return out


@lru_cache(maxsize=None)
def feit_fine(N: int, q: int, punctual: bool) -> tuple[int, ...]:
    """Commuting pairs of n x n matrices over F_q for n <= N (punctual:
    both nilpotent), from prod_{i>=1} prod_{j>=0} (1 - q^(1-j) x^i)^-1,
    or, for punctual pairs, with the j = 0 factors dropped and q^-j in
    place of q^(1-j).

    The j-product is Euler's: its y^k coefficient is c^k / prod_{m<=k}
    (1 - q^-m) with c = q, or c = 1/q in the punctual case.
    """
    c = Fraction(1, q) if punctual else Fraction(q)
    series = [Fraction(1)] + [Fraction(0)] * N
    for i in range(1, N + 1):
        factor = [Fraction(0)] * (N + 1)
        denom = Fraction(1)
        for k in range(N // i + 1):
            if k:
                denom *= 1 - Fraction(1, q**k)
            factor[i * k] = c**k / denom
        series = _series_mul(series, factor, N)
    out = []
    for n, coeff in enumerate(series):
        count = coeff * gl_order(n, q)
        assert count.denominator == 1
        out.append(int(count))
    return tuple(out)


def _all_mats(n, q):
    return [
        tuple(tuple(e[i * n:(i + 1) * n]) for i in range(n))
        for e in itertools.product(range(q), repeat=n * n)
    ]


def _mul(a, b, q):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % q for j in range(n)) for i in range(n)
    )


@lru_cache(maxsize=None)
def _commute_table(n, q):
    mats = _all_mats(n, q)
    cent = {}
    for a in mats:
        cent[a] = [b for b in mats if _mul(a, b, q) == _mul(b, a, q)]
    return mats, cent


def _nilp(a, q):
    return is_nilpotent([list(r) for r in a], q)


@lru_cache(maxsize=None)
def brute_counts(n: int, d: int, q: int) -> tuple[int, int]:
    """(commuting d-tuples, nilpotent commuting d-tuples) by brute force
    over pairwise-commuting chains; only for tiny n and q."""
    mats, cent = _commute_table(n, q)
    nil = {a for a in mats if _nilp(a, q)}
    total = 0
    punct = 0

    def extend(prefix, candidates):
        nonlocal total, punct
        if len(prefix) == d:
            total += 1
            punct += all(a in nil for a in prefix)
            return
        for b in candidates:
            extend(prefix + [b], [c for c in candidates if c in cent_sets[b]])

    cent_sets = {a: set(cs) for a, cs in cent.items()}
    extend([], mats)
    return total, punct


def raw_count(n, d, q, nilpotent=False) -> int:
    if d == 2:
        return feit_fine(n, q, nilpotent)[n]
    return brute_counts(n, d, q)[1 if nilpotent else 0]


def partitions_of(n, cap=None):
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    return [(k,) + r for k in range(min(n, cap), 0, -1) for r in partitions_of(n - k, k)]


def notation(parts) -> str:
    """The program's stratum notation: '1^2 2^1' for parts (2, 1, 1)."""
    return " ".join(f"{s}^{parts.count(s)}" for s in sorted(set(parts)))


def strata(n, d, q) -> dict[str, int]:
    """Split tuples by support stratum: choose the points (parts of equal
    size are unordered), weight by |GL_n| / prod |GL_{m_i}|, and put a
    punctual tuple of size m_i at each point."""
    points = q**d
    out = {}
    for parts in partitions_of(n):
        if len(parts) > points:
            continue
        ways = Fraction(1)
        for k in range(len(parts)):
            ways *= points - k
        for s in set(parts):
            for k in range(1, parts.count(s) + 1):
                ways /= k
        weight = Fraction(gl_order(n, q))
        for m in parts:
            weight *= Fraction(raw_count(m, d, q, nilpotent=True), gl_order(m, q))
        count = ways * weight
        assert count.denominator == 1
        out[notation(parts)] = int(count)
    return out


def _check_header(req, report):
    n, d, q = req["n"], req["d"], req["q"]
    if (report.get("n"), report.get("d"), report.get("q")) != (n, d, q):
        return fail("size echo mismatch")
    glo = gl_order(n, q)
    if report.get("gl_order") != str(glo):
        return fail(f"gl_order {report.get('gl_order')} != {glo}")
    return None


def check_census(req, code, report):
    if code != 0:
        return fail("unexpected refusal " + refusal(code, report))
    bad = _check_header(req, report)
    if bad:
        return bad
    n, d, q = req["n"], req["d"], req["q"]
    raw = raw_count(n, d, q, req["nilpotent"])
    if report["raw_count"] != str(raw):
        return fail(f"raw_count {report['raw_count']} != {raw}")
    g = Fraction(raw, gl_order(n, q))
    if report["groupoid_count"] != {"num": str(g.numerator), "den": str(g.denominator)}:
        return fail("groupoid count is not raw / |GL_n|")
    if report["filter"] != {"nilpotent": req["nilpotent"], "relations": []}:
        return fail("filter echo mismatch")
    if not req["per_stratum"]:
        if report["per_stratum"] is not None or report["unsplit_count"] is not None:
            return fail("unrequested per-stratum payload")
        return OK
    want = strata(n, d, q)
    want_unsplit = raw - sum(want.values())
    got = {k: int(v) for k, v in report["per_stratum"].items()}
    got_unsplit = int(report["unsplit_count"])
    if got == want and got_unsplit == want_unsplit:
        return OK
    missing = {k: want[k] - got.get(k, 0) for k in want}
    if (
        set(got) <= set(want)
        and all(v >= 0 for v in missing.values())
        and got_unsplit - want_unsplit == sum(missing.values())
    ):
        return ("known", f"{KNOWN_MISFILED}: {sum(missing.values())} split tuples filed as unsplit")
    return fail(f"strata {got} + unsplit {got_unsplit} != {want} + {want_unsplit}")


@lru_cache(maxsize=None)
def burnside_orbits(n, d, q) -> int:
    """Number of GL_n orbits on commuting d-tuples: the average over g of
    the commuting d-tuples inside the centralizer of g."""
    mats, cent = _commute_table(n, q)
    cent_sets = {a: set(cs) for a, cs in cent.items()}
    group = [g for g in mats if is_invertible([list(r) for r in g], q)]
    fixed = 0
    for g in group:
        inside = cent[g]

        def count(prefix_cands, depth):
            if depth == d:
                return 1
            return sum(count([c for c in prefix_cands if c in cent_sets[b]], depth + 1) for b in prefix_cands)

        fixed += count(inside, 0)
    assert fixed % len(group) == 0
    return fixed // len(group)


def check_orbits(req, code, report):
    if code != 0:
        return fail("unexpected refusal " + refusal(code, report))
    bad = _check_header(req, report)
    if bad:
        return bad
    n, d, q = req["n"], req["d"], req["q"]
    glo = gl_order(n, q)
    raw = raw_count(n, d, q)
    orbits = report["orbits"]
    if report["orbit_count"] != len(orbits) or len(orbits) != burnside_orbits(n, d, q):
        return fail(f"{len(orbits)} orbits, Burnside gives {burnside_orbits(n, d, q)}")
    total = Fraction(0)
    size_sum = 0
    seen = set()
    for o in orbits:
        size, aut = int(o["orbit_size"]), int(o["aut_order"])
        if size * aut != glo:
            return fail("orbit size times stabilizer order is not |GL_n|")
        mats = [parse_matrix(m, q) for m in o["matrices"]]
        key = repr(mats)
        if key in seen:
            return fail("repeated representative")
        seen.add(key)
        for a, b in itertools.combinations(mats, 2):
            if mat_mul(a, b, q) != mat_mul(b, a, q):
                return fail("representative does not commute")
        if o["nilpotent"] != all(is_nilpotent(a, q) for a in mats):
            return fail("wrong nilpotent flag")
        total += Fraction(1, aut)
        size_sum += size
    if size_sum != raw or total != Fraction(raw, glo):
        return fail("orbit sizes or 1/|Aut| do not sum to the census")
    if report["groupoid_count"] != {"num": str(total.numerator), "den": str(total.denominator)}:
        return fail("groupoid count mismatch")
    return OK


def classified_tuples(report) -> int:
    """Commuting tuples a census operation classified: its raw count, or
    the orbit sizes summed for an orbit census."""
    if "raw_count" in report:
        return int(report["raw_count"])
    return sum(int(o["orbit_size"]) for o in report["orbits"])
