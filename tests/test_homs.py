import dataclasses
import hashlib
import itertools
import random
import time
from fractions import Fraction

import pytest

import oracles
from commvar import homs
from commvar.census import orbit_census
from commvar.config import DEFAULT_CONFIG
from commvar.errors import (
    GridBudgetExceededError,
    MixedFieldsError,
    NotPunctualError,
    SingularGroupElementError,
)
from commvar.fields import GF, QQ, PrimeField, RationalField
from commvar.homs import aut_dim, hom_basis, hom_dim, is_isomorphic, min_generators
from commvar.matrices import Matrix, char_poly, kernel_basis
from commvar.modules import (
    companion,
    conjugate,
    direct_sum,
    empty_tuple,
    from_staircase,
    group_element,
    is_punctual,
    staircase,
    tangent_space_dim,
    translate,
    validate,
)
from commvar.polynomials import UniPoly
from commvar.sampling import random_group_element, random_punctual_tuple, random_split_tuple


def qmat(rows):
    return Matrix.from_rows(QQ, [[QQ.of(x) for x in r] for r in rows])


J2 = qmat([[0, 1], [0, 0]])
Z2 = qmat([[0, 0], [0, 0]])
J3 = qmat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
Z3 = qmat([[0, 0, 0], [0, 0, 0], [0, 0, 0]])


def test_hom_basis_satisfies_intertwining():
    rng = random.Random(30)
    for _ in range(10):
        s, _ = random_split_tuple(QQ, 2, rng, max_pieces=2, max_piece_size=2)
        t, _ = random_split_tuple(QQ, 2, rng, max_pieces=2, max_piece_size=2)
        hs = hom_basis(s, t)
        assert hs.dim == len(hs.basis)
        for e in hs.basis:
            for a_s, a_t in zip(s.mats, t.mats):
                assert e * a_s == a_t * e


def test_hom_dim_jordan_to_zero():
    # maps E with E J2 = 0: first column of E free to be zero only;
    # explicitly E e2 arbitrary... E J2 has columns (0, E e1), so E e1 = 0
    s = validate([J2])
    z = validate([Z2])
    assert hom_basis(s, z).dim == 2
    assert hom_basis(z, s).dim == 2
    assert hom_basis(s, s).dim == 2
    assert hom_basis(z, z).dim == 4


def test_aut_dim_values():
    assert aut_dim(validate([J2, Z2])) == 2
    assert aut_dim(validate([Z2, Z2])) == 4
    assert aut_dim(validate([J3])) == 3
    assert aut_dim(empty_tuple(QQ, 2)) == 0


def test_aut_dim_conjugation_invariant():
    rng = random.Random(31)
    t = validate([J3, J3 * J3])
    for _ in range(10):
        g = random_group_element(QQ, 3, rng)
        assert aut_dim(conjugate(t, g)) == aut_dim(t)


def test_is_isomorphic_distinguishes_the_two_length2_types():
    s = validate([J2, Z2])
    z = validate([Z2, Z2])
    assert is_isomorphic(s, z) is None
    assert is_isomorphic(z, s) is None


def test_is_isomorphic_certificate_verified():
    rng = random.Random(32)
    for _ in range(15):
        t, _ = random_split_tuple(QQ, 2, rng, max_pieces=2, max_piece_size=3)
        g = random_group_element(QQ, t.n, rng)
        u = conjugate(t, g)
        cert = is_isomorphic(t, u)
        assert cert is not None
        # certificate h satisfies h A = A' h exactly
        for a, b in zip(t.mats, u.mats):
            assert cert.matrix * a == b * cert.matrix
        hand_inv = oracles.cramer_inverse(oracles.rows_of(cert.matrix), None)
        assert hand_inv == oracles.rows_of(cert.inv)


def test_is_isomorphic_over_prime_field():
    rng = random.Random(33)
    F5 = GF(5)
    for _ in range(10):
        t, _ = random_split_tuple(F5, 2, rng, max_pieces=2, max_piece_size=2)
        g = random_group_element(F5, t.n, rng)
        assert is_isomorphic(t, conjugate(t, g)) is not None


def test_is_isomorphic_size_mismatch_is_fast_no():
    assert is_isomorphic(validate([J2]), validate([J3])) is None


def test_is_isomorphic_char_poly_fast_path():
    s = validate([qmat([[1, 0], [0, 2]])])
    t = validate([qmat([[1, 0], [0, 3]])])
    assert is_isomorphic(s, t) is None


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=["Q", "F2"])
def test_hom_basis_with_an_empty_side(field):
    e = empty_tuple(field, 2)
    t = from_staircase(staircase([(0, 0), (1, 0)]), field)
    assert hom_basis(e, t).dim == hom_basis(t, e).dim == aut_dim(e) == 0


def test_is_isomorphic_empty_modules():
    cert = is_isomorphic(empty_tuple(QQ, 2), empty_tuple(QQ, 2))
    assert cert is not None
    assert cert.matrix.rows == 0


def test_is_isomorphic_same_cycle_different_modules():
    # (J3, 0) vs (J3, J3^2): same size, same coordinate char polys,
    # same support cycle, same aut_dim, yet not isomorphic: hom dim 2
    # against End dim 3 decides it after the first 2 search points, so
    # even a grid budget of 1 answers "absent"
    s = validate([J3, Z3])
    t = validate([J3, J3 * J3])
    assert hom_basis(s, t).dim == 2
    assert aut_dim(s) == aut_dim(t) == 3
    tight = dataclasses.replace(DEFAULT_CONFIG, grid_budget=1)
    for config in (DEFAULT_CONFIG, tight):
        assert is_isomorphic(s, t, config) is None
        assert is_isomorphic(t, s, config) is None


def test_is_isomorphic_different_cycles_same_char_polys():
    # supports {(0,0), (1,1)} and {(0,1), (1,0)}: every coordinate has char
    # poly t(t - 1), but Hom(s, t) = 0 against End dim 2, so even a grid
    # budget of 1 answers "absent"
    d01 = qmat([[0, 0], [0, 1]])
    s = validate([d01, d01])
    t = validate([d01, qmat([[1, 0], [0, 0]])])
    assert (hom_basis(s, t).dim, aut_dim(s)) == (0, 2)
    tight = dataclasses.replace(DEFAULT_CONFIG, grid_budget=1)
    for config in (DEFAULT_CONFIG, tight):
        assert is_isomorphic(s, t, config) is None
        assert is_isomorphic(t, s, config) is None


def test_first_candidate_needs_one_hom_basis(monkeypatch):
    # an isomorphic pair settled by a basis element or the basis sum computes
    # one Hom basis, and neither End(s) nor End(t)
    calls = []
    real = homs.hom_basis

    def counting(s, t):
        calls.append((s, t))
        return real(s, t)

    monkeypatch.setattr(homs, "hom_basis", counting)
    s = validate([J2, Z2])
    g = random_group_element(QQ, 2, random.Random(38))
    assert is_isomorphic(s, conjugate(s, g)) is not None
    assert len(calls) == 1


@pytest.mark.parametrize("n,d,q", [(2, 2, 2), (2, 3, 2), (2, 2, 3), (3, 1, 2)])
def test_is_isomorphic_against_orbit_census(n, d, q):
    # orbit_census finds its orbits by conjugating with GL_n and the
    # centralizers in it, not from hom spaces: a verified certificate must
    # come back exactly for the pairs in one orbit
    reps = [o.representative for o in orbit_census(n, d, q)]
    rng = random.Random(100 * n + 10 * d + q)

    def verified(s, t):
        cert = is_isomorphic(s, t)
        if cert is None:
            return False
        p = oracles.char_of_field(s.field)
        h = oracles.rows_of(cert.matrix)
        for a, b in zip(s.mats, t.mats):
            assert oracles.mat_mul(h, oracles.rows_of(a), p) == oracles.mat_mul(oracles.rows_of(b), h, p)
        assert oracles.cramer_inverse(h, p) == oracles.rows_of(cert.inv)
        return True

    for i, s in enumerate(reps):
        for j, t in enumerate(reps):
            assert verified(s, t) == (i == j)
        assert verified(s, conjugate(s, random_group_element(s.field, n, rng)))


def test_dimension_check_decides_cube_of_maximal_ideal_against_its_dual(monkeypatch):
    # k[x,y]/(x,y)^3 (n = 6) against its transpose dual: End dims 6 and 6,
    # hom dim 9, so the modules differ; the grid would exceed its budget.
    # The 9 basis elements, their sum and the first 9 grid points are tested
    # by their rank first, and only then is End(cube) computed, once: it
    # already differs from the hom dim, so End(dual) is never computed.
    cube = from_staircase(staircase([(i, j) for i in range(3) for j in range(3 - i)]), QQ)
    dual = validate([a.transpose() for a in cube.mats])
    assert (aut_dim(cube), aut_dim(dual), hom_basis(cube, dual).dim) == (6, 6, 9)
    events = []
    real_eliminate, real_aut_dim = RationalField.eliminate, homs.aut_dim

    def eliminating(field, rows, ncols):
        if (len(rows), ncols) == (6, 6):
            events.append("rank")
        return real_eliminate(field, rows, ncols)

    def counting(t):
        events.append("aut_dim")
        return real_aut_dim(t)

    monkeypatch.setattr(RationalField, "eliminate", eliminating)
    monkeypatch.setattr(homs, "aut_dim", counting)
    t0 = time.monotonic()
    assert is_isomorphic(cube, dual) is None
    assert time.monotonic() - t0 < 1.0
    assert events == ["rank"] * (10 + 9) + ["aut_dim"]


def _scalar_piece_pair():
    # F_5, d = 1: J3 at 0, J2 + J1 at 1 and the scalar 3 x 3 piece at 2, so
    # Hom dim 17 > grid budget 8 and, as p = 5 <= n = 9, the seeded draws
    # are residues; against a seeded conjugate
    s = _pieces_at_points(GF(5), 1, [ROW3, [(0, 0), (1, 0), (0, 1)], COL3], [(0,), (1,), (2,)])
    return s, conjugate(s, random_group_element(s.field, s.n, random.Random(2020)))


def test_pairs_certified_by_the_first_draws_compute_no_end(monkeypatch):
    # every first candidate is singular, and a seeded draw among the first
    # dim Hom ones is invertible: End(s) and End(t) are never computed
    z4 = validate([Matrix.zero(QQ, 4, 4)])
    pairs = [(z4, conjugate(z4, random_group_element(QQ, 4, random.Random(34)))), _scalar_piece_pair()]
    calls = []
    real = homs.aut_dim

    def counting(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(homs, "aut_dim", counting)
    for s, t in pairs:
        hom = hom_basis(s, t)
        assert hom.dim > DEFAULT_CONFIG.grid_budget
        assert homs._certify(hom, homs._first_candidates(hom.dim)) is None
        cert = is_isomorphic(s, t)
        assert cert is not None
        for a, b in zip(s.mats, t.mats):
            assert cert.matrix * a == b * cert.matrix
    assert calls == []


# Over F_2: dim Hom(s, t) = dim End(s) = dim End(t) = 3 but dim Hom(t, s) = 4,
# so only the last of the four dimensions says "absent".  No non-isomorphic
# pair with all four equal is known (none at (3,2,2), (3,3,2), (4,2,2),
# (3,2,3) or (2,3,3)), so the tests of the grid reach it on this pair by
# the fixture ``equal_f2_dimensions``, which reports dim Hom(t, s) = 3.  The
# grid, which over F_2 with n = 3 enumerates the whole hom space, then says
# "absent".
F2 = GF(2)
F2_A = Matrix.from_rows(F2, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
F2_S = validate([F2_A, Matrix.from_rows(F2, [[0, 0, 0], [1, 0, 1], [0, 0, 0]])])
F2_T = validate([F2_A, Matrix.from_rows(F2, [[0, 1, 0], [0, 0, 0], [0, 1, 0]])])


def test_reverse_hom_dimension_decides_f2_pair():
    assert hom_basis(F2_S, F2_T).dim == aut_dim(F2_S) == aut_dim(F2_T) == 3
    assert hom_basis(F2_T, F2_S).dim == 4
    assert is_isomorphic(F2_S, F2_T) is None
    # before the grid, so within any budget
    tight = dataclasses.replace(DEFAULT_CONFIG, grid_budget=1)
    assert is_isomorphic(F2_S, F2_T, tight) is None
    assert len(list(homs._candidates(F2_S, F2_T, 3, DEFAULT_CONFIG))) == 4 + 3


def test_grid_is_scanned_in_full_within_budget(monkeypatch, equal_f2_dimensions):
    # within budget "absent" rests on the whole grid: the 4 first
    # candidates, then the 4 of the 2^3 points with two or more nonzero
    # coefficients (the zero vector and the basis vectors are skipped, as
    # the first candidates cover them), each tested by the rank of its 3 x 3
    # integer rows: 8 rank tests.  The 1,024 seeded draws would test some
    # 500 points instead.  None is invertible, so ``inverse`` is never asked.  No
    # isomorphic pair can tell the two apart: over F_2 with n <= 4 at least
    # 1/16 of Hom(s, t) is invertible, so the draws would all miss with
    # probability about (15/16)^1024.
    rank_tests, inverses = [], []
    real_eliminate, real_inverse = PrimeField.eliminate, homs.inverse

    def eliminating(field, rows, ncols):
        if (len(rows), ncols) == (3, 3):  # not the 9-column Hom and End systems
            rank_tests.append(rows)
        return real_eliminate(field, rows, ncols)

    def inverting(m):
        inverses.append(m)
        return real_inverse(m)

    monkeypatch.setattr(PrimeField, "eliminate", eliminating)
    monkeypatch.setattr(homs, "inverse", inverting)
    assert is_isomorphic(F2_S, F2_T) is None
    assert len(rank_tests) == 8
    assert inverses == []
    values = [F2.of(0), F2.of(1)]
    for dim in range(DEFAULT_CONFIG.grid_budget + 1):
        assert list(map(tuple, homs._search(F2, 3, dim, DEFAULT_CONFIG))) == list(
            itertools.product(values, repeat=dim)
        )


@pytest.mark.parametrize("attr,value", [("inverse", lambda m: None), ("intertwines", lambda h, a, b: False)])
def test_certificate_checks_raise_not_assert(monkeypatch, attr, value):
    # a full-rank candidate that ``inverse`` calls singular, or one that
    # fails the re-check, is a bug: it raises, also under python -O
    monkeypatch.setattr(homs, attr, value)
    s = validate([J2, Z2])
    with pytest.raises(RuntimeError):
        is_isomorphic(s, conjugate(s, random_group_element(QQ, 2, random.Random(39))))


def test_grid_budget_exceeded_is_loud(equal_f2_dimensions):
    # a grid budget of 1 forces the randomized fallback, which cannot
    # certify absence and must fail loudly instead
    tight = dataclasses.replace(DEFAULT_CONFIG, grid_budget=1)
    with pytest.raises(GridBudgetExceededError) as exc:
        is_isomorphic(F2_S, F2_T, tight)
    assert exc.value.detail["hom_dim"] == 3
    assert exc.value.detail["grid_budget"] == 1


def test_randomized_fallback_still_finds_certificates():
    # over the grid budget but isomorphic: the seeded trials succeed
    rng = random.Random(34)
    z4 = validate([Matrix.zero(QQ, 4, 4)])  # hom dim 16 > budget 8
    g = random_group_element(QQ, 4, rng)
    cert = is_isomorphic(z4, conjugate(z4, g), DEFAULT_CONFIG)
    assert cert is not None


def test_is_isomorphic_mixed_fields_rejected():
    with pytest.raises(MixedFieldsError):
        is_isomorphic(validate([J2]), validate([Matrix.zero(GF(5), 2, 2)]))


def test_is_isomorphic_symmetry_on_samples():
    rng = random.Random(35)
    for _ in range(8):
        s, _ = random_split_tuple(QQ, 2, rng, max_pieces=2, max_piece_size=2)
        t, _ = random_split_tuple(QQ, 2, rng, max_pieces=2, max_piece_size=2)
        assert (is_isomorphic(s, t) is None) == (is_isomorphic(t, s) is None)


def test_direct_sum_order_is_isomorphic():
    rng = random.Random(36)
    for _ in range(8):
        s, _ = random_split_tuple(QQ, 2, rng, max_pieces=1, max_piece_size=2)
        t, _ = random_split_tuple(QQ, 2, rng, max_pieces=1, max_piece_size=2)
        assert is_isomorphic(direct_sum(s, t), direct_sum(t, s)) is not None


def test_min_generators_values():
    assert min_generators(validate([J2, Z2])) == 1
    assert min_generators(validate([Z2, Z2])) == 2
    # L-shape staircase needs two generators (two maximal cells)
    l_shape = from_staircase(staircase([(0, 0), (1, 0), (0, 1)]), QQ)
    assert min_generators(l_shape) == 2
    # a full column is cyclic
    col = from_staircase(staircase([(0, 0), (0, 1), (0, 2)]), QQ)
    assert min_generators(col) == 1
    assert min_generators(empty_tuple(QQ, 2)) == 0


def test_min_generators_requires_punctual():
    t = companion(UniPoly.make(QQ, [QQ.of(2), QQ.of(-3), QQ.of(1)]))
    with pytest.raises(NotPunctualError):
        min_generators(t)


def test_min_generators_conjugation_invariant():
    rng = random.Random(37)
    l_shape = from_staircase(staircase([(0, 0), (1, 0), (0, 1)]), QQ)
    for _ in range(10):
        g = random_group_element(QQ, 3, rng)
        assert min_generators(conjugate(l_shape, g)) == 2


def test_min_generators_additive_over_distinct_points():
    # generators add up when supports are disjoint... for punctual pieces
    # at the same point (the only case min_generators accepts) they add too
    a = from_staircase(staircase([(0, 0), (0, 1)]), QQ)
    b = from_staircase(staircase([(0, 0)]), QQ)
    assert min_generators(direct_sum(a, b)) == 2


# ---------------------------------------------------------------------------
# dimensions read off the rank of integer-built systems, against hand ranks


def _hand_intertwining_rows(sources, targets):
    """The system of h -> (h A_i - B_i h)_i entry by entry: the coefficient
    of h_ab in entry (r, c) of block i is [a = r] A_i[b, c] - B_i[r, a] [b = c]."""
    ns, nt = sources[0].rows, targets[0].rows
    zero = sources[0].field.zero()
    rows = []
    for a_mat, b_mat in zip(sources, targets):
        for r in range(nt):
            for c in range(ns):
                rows.append([
                    (a_mat.entry(b, c) if a == r else zero) - (b_mat.entry(r, a) if b == c else zero)
                    for a in range(nt) for b in range(ns)
                ])
    return rows


def _mixed_denominator_tuple(rng, field, n, d):
    """d commuting matrices, polynomials in one matrix; over Q its entries
    have denominators 3, 7 and 2^40."""
    def scalar(den):
        k = rng.randint(-4, 4)
        return field.of(k) if field.characteristic else Fraction(k, den)
    dens = [3, 7, 2**40, 1]
    m = Matrix(field, n, n, tuple(scalar(rng.choice(dens)) if rng.random() < 0.6 else field.zero()
                                  for _ in range(n * n)))
    eye = Matrix.identity(field, n)
    return validate([eye.scale(scalar(7)) + m.scale(scalar(3)) + (m * m).scale(scalar(1)) for _ in range(d)])


@pytest.mark.parametrize("field", [QQ, GF(5), GF(2)], ids=["Q", "F5", "F2"])
def test_dimensions_from_the_rank_equal_kernel_counts(field):
    rng = random.Random(1719 + field.characteristic)
    p = oracles.char_of_field(field)
    for _ in range(10):
        n, d = rng.randint(1, 3), rng.randint(1, 3)
        s = _mixed_denominator_tuple(rng, field, n, d)
        g = random_group_element(field, n, rng)
        scalars = validate([Matrix.identity(field, n).scale(field.of(k)) for k in range(d)])
        others = [s, conjugate(s, g), scalars, _mixed_denominator_tuple(rng, field, rng.randint(1, 3), d)]
        for t in others:
            hand = n * t.n - oracles.hand_rank(_hand_intertwining_rows(s.mats, t.mats), p)
            assert hom_dim(s, t) == hom_basis(s, t).dim == hand
        assert aut_dim(s) == n * n - oracles.hand_rank(_hand_intertwining_rows(s.mats, s.mats), p)
        # the tangent system: block (i, j) is K(A_j) on X_i and -K(A_i) on X_j
        n2 = n * n
        ks = [_hand_intertwining_rows([a], [a]) for a in s.mats]
        rows = []
        for i in range(d):
            for j in range(i + 1, d):
                for r in range(n2):
                    row = [field.zero()] * (d * n2)
                    row[i * n2 : (i + 1) * n2] = ks[j][r]
                    row[j * n2 : (j + 1) * n2] = [field.neg(x) for x in ks[i][r]]
                    rows.append(row)
        system = Matrix(field, len(rows), d * n2, tuple(x for row in rows for x in row))
        assert tangent_space_dim(s) == len(kernel_basis(system)) == d * n2 - oracles.hand_rank(rows, p)


def test_koszul_ext_dimensions_satisfy_serre_duality_and_the_tangent_identity():
    # for finite-length modules over k[x1..xd], dim Ext^i(M, N) =
    # dim Ext^(d-i)(N, M) and the Euler characteristic is 0, here read off
    # the Koszul rows by hand rank on 60 seeded pairs; 41 have every Ext
    # nonzero.  At d = 2 these give Ext^1(M, M) = 2 dim End(M), so the
    # tangent dimension n^2 - dim End + dim Ext^1 is n^2 + dim End, checked up
    # to n = 8
    nonzero = 0
    for field in (QQ, GF(2), GF(5)):
        rng = random.Random(37 + field.characteristic)
        for d in (1, 2, 3):
            for k in range(7 if d < 3 else 6):
                if k % 2:
                    s, t = (random_split_tuple(field, d, rng, 2, 2, coord_span=1)[0] for _ in "st")
                else:
                    s, t = (random_punctual_tuple(field, d, rng.randint(1, 4), rng) for _ in "st")
                ext = oracles.ext_dims(s, t)
                assert ext == oracles.ext_dims(t, s)[::-1]
                assert sum((-1) ** i * e for i, e in enumerate(ext)) == 0
                assert ext[0] == hom_dim(s, t)
                nonzero += all(ext)
        rng = random.Random(38 + field.characteristic)
        for n in range(1, 9):
            for m in (random_punctual_tuple(field, 2, n, rng),
                      random_split_tuple(field, 2, rng, 4, 2)[0]):
                assert tangent_space_dim(m) == m.n * m.n + aut_dim(m)
    assert nonzero == 41


@pytest.mark.parametrize("n,d,q,pairs", [(3, 2, 2, 4), (3, 3, 2, 56)])
def test_reverse_hom_dimension_separates_orbits(n, d, q, pairs):
    # among pairs of distinct orbits with equal coordinate char polys, no
    # pair has all four of dim Hom(s, t), dim End(s), dim End(t) and
    # dim Hom(t, s) equal, and in these ordered pairs only the last differs.
    # Each answers "absent" before the grid: its stream of candidates ends
    # after the first ones, and a grid budget of 1 raises nothing.  At
    # (3,2,2) brute-force orbits show s and t are not conjugate; at (3,3,2)
    # they are representatives of distinct census orbits.
    reps = [o.representative for o in orbit_census(n, d, q)]
    by_polys = {}
    for r in reps:
        by_polys.setdefault(tuple(map(char_poly, r.mats)), []).append(r)
    aut = {id(r): aut_dim(r) for r in reps}
    found = []
    for group in by_polys.values():
        for s, t in itertools.permutations(group, 2):
            dim = hom_dim(s, t)
            if dim == aut[id(s)] == aut[id(t)]:
                assert hom_dim(t, s) != dim
                found.append((s, t, dim))
    assert len(found) == pairs
    tight = dataclasses.replace(DEFAULT_CONFIG, grid_budget=1)
    for s, t, dim in found:
        assert len(list(homs._candidates(s, t, dim, DEFAULT_CONFIG))) <= 2 * dim + 1
        assert is_isomorphic(s, t, tight) is None
    if (n, d, q) == (3, 2, 2):
        orbit_of = {}
        for orbit, _, _ in oracles.orbits(n, d, q):
            for key in orbit:
                orbit_of[key] = orbit
        for s, t, _ in found:
            assert orbit_of[tuple(a.entries for a in s.mats)] != orbit_of[tuple(a.entries for a in t.mats)]


# ---------------------------------------------------------------------------
# the certificate against a hand search over the Hom basis


def _pieces_at_points(field, d, shapes, points):
    """A direct sum of staircase pieces (given by their cells), the first d
    coordinates of each translated to its own point."""
    out = None
    for cells, point in zip(shapes, points):
        piece = validate(list(from_staircase(staircase(cells), field).mats[:d]))
        piece = translate(piece, [field.of(c) for c in point])
        out = piece if out is None else direct_sum(out, piece)
    return out


def _mixed_denominator_conjugator(rng, n):
    """An invertible rational matrix whose entries have denominators 3, 7
    and 2^40."""
    while True:
        m = Matrix(QQ, n, n, tuple(
            Fraction(rng.randint(-3, 3), rng.choice([1, 3, 7, 2**40])) for _ in range(n * n)
        ))
        try:
            return group_element(m)
        except SingularGroupElementError:
            continue


def _hand_certificate(hom, n):
    """The first candidate, in the order of the first candidates (each basis
    element, then their sum) and then of the lexicographic grid, whose
    cofactor determinant is nonzero; each candidate is formed from the basis
    in Fraction or residue arithmetic.  Returns (h, index) or (None, count)."""
    p = oracles.char_of_field(hom.source.field)
    basis = [oracles.rows_of(b) for b in hom.basis]
    dim = len(basis)
    units = [[int(i == j) for j in range(dim)] for i in range(dim)]
    firsts = units + ([[1] * dim] if dim > 1 else [])
    values = range(p if p and p <= n else n + 1)
    k = -1
    for k, coeffs in enumerate(itertools.chain(firsts, itertools.product(values, repeat=dim))):
        h = [[oracles.s_zero(p)] * n for _ in range(n)]
        for c, b in zip(coeffs, basis):
            h = [[oracles.s_add(x, oracles.s_mul(c, y, p), p) for x, y in zip(hr, br)]
                 for hr, br in zip(h, b)]
        if oracles.cofactor_det(h, p) != oracles.s_zero(p):
            return h, k
    return None, k + 1


# (field, d, pieces, points): split modules, each paired with a conjugate in
# both orders.  Two pieces at one point make every first candidate
# singular, so the grid decides; pieces at distinct points are settled by a
# basis element or the basis sum.
ROW1, ROW2, ROW3, COL2 = [(0, 0)], [(0, 0), (1, 0)], [(0, 0), (1, 0), (2, 0)], [(0, 0), (0, 1)]
COL3 = [(0, 0), (0, 1), (0, 2)]
CERTIFICATE_CASES = [
    (QQ, 1, [ROW2, ROW1, ROW1], [(0,), (1,), (1,)]),
    (QQ, 1, [ROW2, ROW1, ROW1], [(0,), (1,), (0,)]),
    (QQ, 1, [ROW3, ROW2, ROW1], [(0,), (1,), (-2,)]),
    (QQ, 2, [ROW2, COL2, ROW1], [(0, 0), (1, 2), (-1, 1)]),
    (GF(5), 1, [ROW2, ROW1, ROW1], [(1,), (4,), (4,)]),
    (GF(5), 1, [ROW2, ROW1], [(3,), (3,)]),
    (GF(5), 2, [ROW2, COL2, ROW1], [(0, 0), (1, 3), (4, 1)]),
    (F2, 1, [ROW2, ROW1, ROW1], [(0,), (1,), (1,)]),
    (F2, 2, [ROW2, ROW1], [(0, 0), (1, 1)]),
]


def _certificate_pairs():
    rng = random.Random(1818)
    for field, d, shapes, points in CERTIFICATE_CASES:
        s = _pieces_at_points(field, d, shapes, points)
        if field.characteristic:
            g = random_group_element(field, s.n, rng)
            yield s, conjugate(s, g)
            yield conjugate(s, g), s
        else:
            g, h = (_mixed_denominator_conjugator(rng, s.n) for _ in range(2))
            yield s, conjugate(s, g)
            yield conjugate(s, g), s
            yield conjugate(s, g), conjugate(s, h)


def test_certificate_is_the_first_candidate_with_nonzero_hand_determinant(monkeypatch):
    inverses = []
    real = homs.inverse

    def inverting(m):
        inverses.append(m)
        return real(m)

    monkeypatch.setattr(homs, "inverse", inverting)
    decided_by = set()
    for s, t in _certificate_pairs():
        hom = hom_basis(s, t)
        want, index = _hand_certificate(hom, s.n)
        del inverses[:]
        cert = is_isomorphic(s, t)
        assert len(inverses) == 1
        p = oracles.char_of_field(s.field)
        assert oracles.rows_of(cert.matrix) == want
        assert oracles.rows_of(cert.inv) == oracles.cramer_inverse(want, p)
        by_grid = index >= hom.dim + (hom.dim > 1)
        decided_by.add((p, by_grid))
        if not p:
            # the basis mixes denominators, and so do grid certificates
            assert len({x.denominator for b in hom.basis for x in b.entries}) > 1
            if by_grid:
                assert any(x.denominator > 1 for x in cert.matrix.entries)
    assert decided_by == {(p, by_grid) for p in (None, 5, 2) for by_grid in (True, False)}
    # the absent F_2 pair: no candidate of the whole grid is invertible
    hom = hom_basis(F2_S, F2_T)
    assert _hand_certificate(hom, 3) == (None, 4 + 2**3)
    del inverses[:]
    assert is_isomorphic(F2_S, F2_T) is None and inverses == []


# ---------------------------------------------------------------------------
# byte pins of every output read off the Hom, End and tangent systems


def _pinned_lines():
    """Each seeded module's End and tangent dimensions (and generator count,
    when punctual), then for pairs of them and their conjugates the Hom
    dimension, the Hom basis and the certificate, as text."""
    for field in (QQ, GF(2), GF(5)):
        for d in (1, 2, 3):
            rng = random.Random(3700 + 10 * d + field.characteristic)
            mods = []
            for _ in range(3):
                mods.append(random_split_tuple(field, d, rng, max_pieces=2, max_piece_size=3)[0])
                mods.append(random_punctual_tuple(field, d, rng.randint(1, 6), rng))
            for m in mods:
                yield f"{field.kind} d={d} n={m.n} aut={aut_dim(m)} tangent={tangent_space_dim(m)}"
                if is_punctual(m):
                    yield f"mingen={min_generators(m)}"
            pairs = [(m, conjugate(m, random_group_element(field, m.n, rng))) for m in mods]
            pairs += [(s, t) for s in mods for t in mods if s is not t and s.n == t.n]
            for s, t in pairs:
                hom = hom_basis(s, t)
                yield f"hom={hom_dim(s, t)} " + " ".join(map(str, hom.basis))
                cert = is_isomorphic(s, t)
                yield "absent" if cert is None else f"{cert.matrix} {cert.inv}"


def test_hom_end_tangent_generator_and_certificate_outputs_are_pinned():
    # 286 lines over Q, F_2 and F_5 at d = 1..3 and n <= 6: 62 certificates
    # and 38 absent pairs
    lines = list(_pinned_lines())
    assert (len(lines), lines.count("absent")) == (286, 38)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "f6def27a03a23db731df0903fc61b272d630afa3c37aee607eebc1946bf001ae"
    )
