import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

import oracles
from commvar import cycles, matrices
from commvar.cycles import (
    Cycle,
    cycle,
    det_pushforward,
    localize,
    partition_notation,
    stratum,
)
from commvar.errors import ArityMismatchError, MixedFieldsError, NotSplitError
from commvar.fields import GF, QQ
from commvar.matrices import Matrix, block_diag
from commvar.modules import (
    companion,
    conjugate,
    direct_sum,
    empty_tuple,
    is_punctual,
    translate,
    validate,
)
from commvar.polynomials import MultiPoly, UniPoly
from commvar.sampling import random_group_element, random_split_tuple
from oracles import random_multipoly


def qpoly(*coeffs):
    return UniPoly.make(QQ, [QQ.of(c) for c in coeffs])


def qmat(rows):
    return Matrix.from_rows(QQ, [[QQ.of(x) for x in r] for r in rows])


def entries_as_plain(c):
    return [(tuple(p), m) for p, m in c.entries]


def test_cycle_of_companion_two_distinct_roots():
    t = companion(qpoly(2, -3, 1))  # (t-1)(t-2)
    c = cycle(t)
    assert entries_as_plain(c) == [((Fraction(1),), 1), ((Fraction(2),), 1)]
    assert stratum(c) == (2, 0)


def test_cycle_of_jordan_block_single_fat_point():
    j2 = qmat([[0, 1], [0, 0]])
    c = cycle(validate([j2]))
    assert entries_as_plain(c) == [((Fraction(0),), 2)]
    assert stratum(c) == (0, 1)
    assert partition_notation(stratum(c)) == "2^1"


def test_cycle_total_equals_n():
    rng = random.Random(20)
    for _ in range(20):
        t, _ = random_split_tuple(QQ, 2, rng)
        assert cycle(t).total == t.n


def test_cycle_empty_module():
    c = cycle(empty_tuple(QQ, 2))
    assert c.entries == ()
    assert stratum(c) == ()
    assert partition_notation(()) == "()"


def test_cycle_matches_construction_ground_truth():
    # the sampler reports its support by construction; the cycle
    # computation must recover it through a random change of basis
    for field, seeds in ((QQ, range(50)), (GF(5), range(30))):
        for seed in seeds:
            rng = random.Random(1000 + seed)
            t, truth = random_split_tuple(field, 2, rng)
            c = cycle(t)
            assert entries_as_plain(c) == [(tuple(p), m) for p, m in truth]


def test_cycle_three_coordinates():
    rng = random.Random(21)
    for _ in range(10):
        t, truth = random_split_tuple(QQ, 3, rng)
        assert entries_as_plain(cycle(t)) == [(tuple(p), m) for p, m in truth]


def test_split_sampler_never_wants_more_points_than_exist():
    # F_3^1 has 3 points, and coord_span 0 leaves Q only the origin; the
    # sampler caps the pieces there instead of redrawing forever
    rng = random.Random(4)
    for field, span, available in ((GF(3), 1, 3), (GF(2), 1, 2), (QQ, 0, 1)):
        for _ in range(20):
            t, truth = random_split_tuple(field, 1, rng, max_pieces=4, coord_span=span)
            assert 1 <= len(truth) <= available
            assert entries_as_plain(cycle(t)) == [(tuple(p), m) for p, m in truth]


def test_cycle_char_poly_factorization_per_coordinate():
    # char_poly(A_i) = prod over cycle points (t - p_i)^mult
    from commvar.matrices import char_poly

    rng = random.Random(22)
    for _ in range(15):
        t, _ = random_split_tuple(QQ, 2, rng)
        c = cycle(t)
        for i, a in enumerate(t.mats):
            expect = UniPoly.one(QQ)
            for p, m in c.entries:
                lin = UniPoly.make(QQ, [QQ.neg(p[i]), QQ.one()])
                for _ in range(m):
                    expect = expect * lin
            assert char_poly(a).coeffs == expect.coeffs


def test_not_split_over_q():
    t = companion(qpoly(1, 0, 1))  # t^2 + 1
    with pytest.raises(NotSplitError) as exc:
        cycle(t)
    assert 2 in exc.value.detail["degrees"]


def test_not_split_partial_factor():
    # (t^2+1)(t-3): one rational root, one irreducible factor -> still an error
    t = companion(qpoly(1, 0, 1) * qpoly(-3, 1))
    with pytest.raises(NotSplitError):
        cycle(t)


def test_not_split_over_f2():
    F2 = GF(2)
    t = companion(UniPoly.make(F2, [1, 1, 1]))
    with pytest.raises(NotSplitError):
        cycle(t)


def test_not_split_in_restriction():
    # first coordinate splits (zero matrix), second is irreducible:
    # the failure is only visible after restricting to the eigenspace
    F2 = GF(2)
    a1 = Matrix.zero(F2, 2, 2)
    a2 = Matrix.from_rows(F2, [[0, 1], [1, 1]])  # char t^2+t+1
    with pytest.raises(NotSplitError):
        cycle(validate([a1, a2]))


def conjugated_split_pair(p, points, rng):
    """Plain rows of a commuting pair over F_p with support multiset
    `points`: each distinct point of multiplicity m gives the block
    point_i * I + c_i * J_m (J_m the nilpotent Jordan block, c_i seeded),
    and the block sum is conjugated by a seeded invertible g."""
    n = len(points)
    mats = [[[0] * n for _ in range(n)] for _ in range(2)]
    k = 0
    for point, m in sorted(Counter(points).items()):
        for a, x in zip(mats, point):
            c = rng.randrange(p)
            for r in range(k, k + m):
                a[r][r] = x
                if r + 1 < k + m:
                    a[r][r + 1] = c
        k += m
    while True:
        g = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if oracles.cofactor_det(g, p) != 0:
            break
    g_inv = oracles.cramer_inverse(g, p)
    return [oracles.mat_mul(oracles.mat_mul(g, a, p), g_inv, p) for a in mats]


def check_support_against_construction(p, points, rows):
    """cycle equals the multiset; localize gives blocks supported at their
    points whose sum is g A_i g^-1 for the returned change of basis g."""
    t = validate([Matrix.from_rows(GF(p), a) for a in rows])
    want = sorted(Counter(points).items())
    assert entries_as_plain(cycle(t)) == want
    summands = localize(t)
    assert [(tuple(s.point), s.local_module.n) for s in summands] == want
    g = oracles.rows_of(summands[0].change_of_basis.matrix)
    assert oracles.cofactor_det(g, p) != 0
    blocks = [[oracles.rows_of(m) for m in s.local_module.mats] for s in summands]
    for s, bl in zip(summands, blocks):
        m = s.local_module.n
        for b, x in zip(bl, s.point):
            power = oracles.mat_identity(m, p)
            scalar = [[x if i == j else 0 for j in range(m)] for i in range(m)]
            shifted = oracles.mat_sub(b, scalar, p)
            for _ in range(m):
                power = oracles.mat_mul(power, shifted, p)
            assert oracles.mat_is_zero(power, p)
    n = len(points)
    for i, a in enumerate(rows):
        target = [[0] * n for _ in range(n)]
        k = 0
        for bl in blocks:
            for r, row in enumerate(bl[i]):
                target[k + r][k : k + len(row)] = row
            k += len(bl[i])
        assert oracles.mat_mul(g, a, p) == oracles.mat_mul(target, g, p)


def test_every_f2_multiset_of_at_most_four_points_splits():
    # over F_2 no linear form separates three or more points of F_2^2
    rng = random.Random(28)
    plane = list(itertools.product(range(2), repeat=2))
    for size in range(1, 5):
        for points in itertools.combinations_with_replacement(plane, size):
            check_support_against_construction(2, points, conjugated_split_pair(2, points, rng))
    # the unconjugated three-point example
    check_support_against_construction(2, [(0, 0), (1, 0), (0, 1)], [
        [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
    ])


def test_seeded_f3_multisets_split():
    rng = random.Random(29)
    plane = list(itertools.product(range(3), repeat=2))
    cases = [
        [(0, 0), (1, 0), (0, 1), (1, 1), (2, 2)],  # no separating form over F_3
        [(0, 1), (0, 2)],  # A_1 = 0 does not split, A_2 does
    ]
    cases += [[rng.choice(plane) for _ in range(rng.randint(1, 6))] for _ in range(30)]
    for points in cases:
        check_support_against_construction(3, points, conjugated_split_pair(3, points, rng))


def test_same_module_splits_over_larger_field():
    # the F_2 module of the test above, read over F_3
    F3 = GF(3)
    a1 = Matrix.diagonal(F3, [0, 1, 0])
    a2 = Matrix.diagonal(F3, [0, 0, 1])
    c = cycle(validate([a1, a2]))
    assert entries_as_plain(c) == [((0, 0), 1), ((0, 1), 1), ((1, 0), 1)]


def test_cycle_conjugation_invariant():
    rng = random.Random(23)
    for _ in range(20):
        t, _ = random_split_tuple(QQ, 2, rng)
        g = random_group_element(QQ, t.n, rng)
        assert cycle(conjugate(t, g)) == cycle(t)


def test_cycle_translation_shifts():
    rng = random.Random(24)
    for _ in range(20):
        t, _ = random_split_tuple(QQ, 2, rng)
        c = [QQ.of(rng.randint(-2, 2)) for _ in range(2)]
        assert cycle(translate(t, c)) == cycle(t).shift(c)


def test_cycle_additive_under_direct_sum():
    rng = random.Random(25)
    for _ in range(10):
        s, _ = random_split_tuple(QQ, 2, rng)
        t, _ = random_split_tuple(QQ, 2, rng)
        assert cycle(direct_sum(s, t)) == cycle(s) + cycle(t)


def test_stratum_padding_and_notation():
    c = Cycle.make(QQ, 1, [((QQ.of(1),), 1), ((QQ.of(2),), 3)])
    assert stratum(c) == (1, 0, 1, 0)
    assert partition_notation(stratum(c)) == "1^1 3^1"


def test_localize_round_trip():
    rng = random.Random(26)
    for _ in range(15):
        t, truth = random_split_tuple(QQ, 2, rng)
        summands = localize(t)
        assert [(tuple(s.point), s.local_module.n) for s in summands] == [
            (tuple(p), m) for p, m in truth
        ]
        if not summands:
            continue
        g = summands[0].change_of_basis
        # conjugating by the shared change of basis block-diagonalizes
        conj = conjugate(t, g)
        blocks = [
            block_diag([s.local_module.mats[i] for s in summands], field=QQ)
            for i in range(t.d)
        ]
        assert list(conj.mats) == blocks
        # each block recentered at its point is punctual
        for s in summands:
            neg = [QQ.neg(x) for x in s.point]
            assert is_punctual(translate(s.local_module, neg))


def count_calls(monkeypatch, name):
    """The argument tuples of every call of matrices.<name>, through each
    binding of it in the package."""
    real = getattr(matrices, name)
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    for key, module in list(sys.modules.items()):
        if key.partition(".")[0] == "commvar" and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counting)
    return calls


def test_cycle_and_localize_call_no_solve(monkeypatch):
    # every piece carries its coordinates in its own basis, so no coordinate
    # is restricted by ``solve``: cycle solves nothing, and localize only
    # inverts [V_lam ...], once per piece that splits and at its size
    solves = count_calls(monkeypatch, "solve")
    inverses = count_calls(monkeypatch, "inverse")
    f2 = GF(2)
    q_pair = [qmat([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]]),
              qmat([[3, 0, 0, 0], [0, 5, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]])]
    f2_pair = [Matrix.diagonal(f2, [0, 1, 0]), Matrix.diagonal(f2, [0, 0, 1])]
    for mats, sizes in ((q_pair, [4, 3]), (f2_pair, [3, 2])):
        t = validate(mats)
        cycle(t)
        assert solves == inverses == []
        localize(t)
        assert [m.rows for m, in inverses] == sizes
        # each solve is an inverse's, against the identity
        assert [b.rows for _, b in solves] == sizes
        solves.clear()
        inverses.clear()


def test_support_split_checks_raise_not_assert(monkeypatch):
    # an eigenspace of the wrong dimension, or eigenspaces that do not span
    # their piece, is a bug: it raises, also under python -O
    t = companion(qpoly(2, -3, 1))
    monkeypatch.setattr(cycles, "inverse", lambda m: None)
    cycle(t)  # cycle inverts nothing
    with pytest.raises(RuntimeError, match="do not span"):
        localize(t)
    monkeypatch.setattr(cycles, "kernel_basis", lambda m: [])
    with pytest.raises(RuntimeError, match="wrong dimension"):
        cycle(t)


def test_localize_empty_module():
    assert localize(empty_tuple(QQ, 2)) == []


def test_det_pushforward_product_formula():
    rng = random.Random(27)
    for _ in range(15):
        t, _ = random_split_tuple(QQ, 2, rng)
        f = random_multipoly(QQ, 2, rng)
        c = cycle(t)
        expect = QQ.one()
        for p, m in c.entries:
            v = oracles.multipoly_eval(f, p, None)
            for _ in range(m):
                expect = QQ.mul(expect, v)
        assert det_pushforward(f, t) == expect


def test_det_pushforward_multiplicative_over_direct_sum():
    rng = random.Random(28)
    for _ in range(10):
        s, _ = random_split_tuple(QQ, 2, rng)
        t, _ = random_split_tuple(QQ, 2, rng)
        f = random_multipoly(QQ, 2, rng)
        assert det_pushforward(f, direct_sum(s, t)) == QQ.mul(
            det_pushforward(f, s), det_pushforward(f, t)
        )


def test_det_pushforward_arity_and_empty():
    t = companion(qpoly(2, -3, 1))
    f3 = MultiPoly.make(QQ, 3, {(1, 0, 0): QQ.of(1)})
    with pytest.raises(ArityMismatchError):
        det_pushforward(f3, t)
    f = MultiPoly.make(QQ, 2, {(1, 1): QQ.of(1)})
    assert det_pushforward(f, empty_tuple(QQ, 2)) == 1
    # the zero module takes the general path, field check included
    with pytest.raises(MixedFieldsError):
        det_pushforward(MultiPoly.make(GF(3), 2, {(1, 1): 1}), empty_tuple(QQ, 2))


def test_cycle_shift_and_add_guards():
    c = cycle(companion(qpoly(2, -3, 1)))
    with pytest.raises(ArityMismatchError):
        c.shift([QQ.of(1), QQ.of(2)])
    c2 = cycle(validate([Matrix.zero(GF(5), 1, 1)]))
    from commvar.errors import MixedFieldsError

    with pytest.raises(MixedFieldsError):
        c + c2
