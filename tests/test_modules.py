import random
from fractions import Fraction

import pytest

import oracles
from commvar.errors import (
    ArityMismatchError,
    MixedFieldsError,
    NotCommutingError,
    NotMonicError,
    NotYoungDiagramError,
    SingularGroupElementError,
)
from commvar.fields import GF, QQ
from commvar.matrices import Matrix, commutator
from commvar.modules import (
    CommutingTuple,
    check_relations,
    companion,
    compose,
    conjugate,
    direct_sum,
    empty_tuple,
    from_staircase,
    group_element,
    identity_element,
    is_punctual,
    potential_gradient,
    staircase,
    tangent_space_dim,
    trace_potential,
    translate,
    validate,
)
from commvar.polynomials import MultiPoly, UniPoly
from commvar.sampling import random_group_element, random_punctual_tuple


def qmat(rows):
    return Matrix.from_rows(QQ, [[QQ.of(x) for x in r] for r in rows])


J2 = qmat([[0, 1], [0, 0]])
Z2 = qmat([[0, 0], [0, 0]])
E21 = qmat([[0, 0], [1, 0]])


def test_validate_accepts_commuting():
    t = validate([J2, J2 * J2])
    assert (t.n, t.d) == (2, 2)


def test_validate_rejects_with_pair_detail():
    with pytest.raises(NotCommutingError) as exc:
        validate([J2, E21])
    assert exc.value.detail["pair"] == (1, 2)
    # the first failing pair in (i, j) order, with its commutator as printed
    with pytest.raises(NotCommutingError) as exc:
        validate([J2, Z2, E21, J2])
    assert exc.value.detail == {"pair": (1, 3), "commutator": "[[1, 0], [0, -1]]"}
    j, e = Matrix.from_rows(GF(5), [[0, 1], [0, 0]]), Matrix.from_rows(GF(5), [[0, 0], [1, 0]])
    with pytest.raises(NotCommutingError) as exc:
        validate([j, j, e])
    assert exc.value.detail == {"pair": (1, 3), "commutator": "[[1, 0], [0, 4]]"}


def test_validate_over_q_keeps_the_not_commuting_payload():
    # the coordinates have different denominators, 2^40 among them; the
    # payload is the textbook commutator as printed
    b = Matrix.from_rows(QQ, [[Fraction(1, 3), Fraction(2, 7)], [Fraction(0), Fraction(1, 2**40)]])
    c = Matrix.from_rows(QQ, [[Fraction(0), Fraction(1, 7)], [Fraction(5, 3), Fraction(0)]])
    a = Matrix.identity(QQ, 2).scale(Fraction(-2, 3))
    near = b * b + Matrix.from_rows(QQ, [[0, 0], [Fraction(1, 2**40), 0]])
    for mats, pair in [([a, b, b * b, c], (2, 4)), ([b, b * b, near], (1, 3))]:
        i, j = pair
        hand = oracles.mat_commutator(oracles.rows_of(mats[i - 1]), oracles.rows_of(mats[j - 1]), None)
        assert not oracles.mat_is_zero(hand, None)
        text = "[" + ", ".join("[" + ", ".join(QQ.format(x) for x in row) + "]" for row in hand) + "]"
        with pytest.raises(NotCommutingError) as exc:
            validate(mats)
        assert exc.value.detail == {"pair": pair, "commutator": text}
    assert validate([a, b, b * b]).d == 3


def test_validate_mixed_and_shape_errors():
    with pytest.raises(MixedFieldsError):
        validate([J2, Matrix.zero(GF(5), 2, 2)])
    with pytest.raises(ArityMismatchError):
        validate([])
    from commvar.errors import SizeMismatchError

    with pytest.raises(SizeMismatchError):
        validate([J2, Matrix.zero(QQ, 3, 3)])


def test_group_action_properties():
    rng = random.Random(10)
    t = validate([J2, J2 * J2])
    e = identity_element(QQ, 2)
    assert conjugate(t, e) == t
    for _ in range(10):
        g = random_group_element(QQ, 2, rng)
        h = random_group_element(QQ, 2, rng)
        # action respects composition: (gh) . t = g . (h . t)
        assert conjugate(t, compose(g, h)) == conjugate(conjugate(t, h), g)
        # inverse undoes
        ginv = group_element(g.inv)
        assert conjugate(conjugate(t, g), ginv) == t


def test_group_element_requires_invertible():
    with pytest.raises(SingularGroupElementError):
        group_element(Z2)


def test_direct_sum_block_layout():
    s = validate([J2])
    t = validate([E21])
    st = direct_sum(s, t)
    assert st.n == 4
    assert st.mats[0].entry(0, 1) == 1
    assert st.mats[0].entry(3, 2) == 1
    assert st.mats[0].entry(0, 2) == 0
    with pytest.raises(ArityMismatchError):
        direct_sum(s, validate([J2, Z2]))


def test_translate_moves_diagonal():
    t = validate([J2, Z2])
    shifted = translate(t, [QQ.of(2), QQ.of(-1)])
    assert shifted.mats[0] == J2 + Matrix.identity(QQ, 2).scale(QQ.of(2))
    assert shifted.mats[1].entry(0, 0) == -1
    with pytest.raises(ArityMismatchError):
        translate(t, [QQ.of(1)])


def test_translate_over_prime_field_coerces_ints():
    F3 = GF(3)
    t = validate([Matrix.zero(F3, 2, 2)])
    shifted = translate(t, [5])
    assert shifted.mats[0].entry(0, 0) == 2


def test_is_punctual():
    assert is_punctual(validate([J2, J2 * J2]))
    assert not is_punctual(validate([qmat([[1, 0], [0, 2]])]))
    assert is_punctual(empty_tuple(QQ, 2))


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=["Q", "F2"])
def test_empty_shapes_take_the_general_paths(field):
    assert companion(UniPoly.one(field)) == empty_tuple(field, 1)
    assert from_staircase(staircase([]), field) == empty_tuple(field, 2)
    # every relation, the constant 1 included, vanishes on the zero module
    assert check_relations(empty_tuple(field, 2), [MultiPoly.make(field, 2, {(0, 0): 1})])
    other = GF(3) if field.characteristic == 0 else QQ
    with pytest.raises(MixedFieldsError):
        check_relations(empty_tuple(field, 2), [MultiPoly.make(other, 2, {(0, 0): 1})])


def test_check_relations():
    t = validate([J2, Z2])
    xy = MultiPoly.make(QQ, 2, {(1, 1): QQ.of(1)})  # x1*x2
    xsq = MultiPoly.make(QQ, 2, {(2, 0): QQ.of(1)})  # x1^2
    x = MultiPoly.make(QQ, 2, {(1, 0): QQ.of(1)})  # x1
    assert check_relations(t, [xy, xsq])
    assert not check_relations(t, [x])


def test_staircase_validation():
    staircase([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(NotYoungDiagramError):
        staircase([(1, 1)])  # missing (0,0) etc.
    with pytest.raises(NotYoungDiagramError):
        staircase([(0, 0), (2, 0)])  # gap in the column
    with pytest.raises(NotYoungDiagramError):
        staircase([(0, 0), (-1, 0)])
    # the empty diagram is closed under shrinking coordinates: allowed
    assert from_staircase(staircase([]), QQ).n == 0


def test_from_staircase_l_shape():
    # cells (0,0),(1,0),(0,1); basis ordered by sorted cells.
    # multiplication by x maps the cell one step down in i, y one step in j.
    s = staircase([(0, 0), (1, 0), (0, 1)])
    t = from_staircase(s, QQ)
    assert t.n == 3 and t.d == 2
    mx, my = t.mats
    cells = [(0, 0), (0, 1), (1, 0)]  # sorted order fixes the basis
    idx = {c: k for k, c in enumerate(cells)}
    for (i, j), k in idx.items():
        # x . e_{(i,j)} = e_{(i-1,j)} when that cell exists, else 0
        target = (i - 1, j)
        col = [mx.entry(r, k) for r in range(3)]
        if target in idx:
            assert col == [QQ.one() if r == idx[target] else QQ.zero() for r in range(3)]
        else:
            assert all(x == 0 for x in col)
        target = (i, j - 1)
        col = [my.entry(r, k) for r in range(3)]
        if target in idx:
            assert col == [QQ.one() if r == idx[target] else QQ.zero() for r in range(3)]
        else:
            assert all(x == 0 for x in col)
    assert is_punctual(t)


def test_from_staircase_column_is_jordan_block():
    # cells (0,0),(0,1): x acts by zero, y is the standard 2x2 Jordan block
    t = from_staircase(staircase([(0, 0), (0, 1)]), QQ)
    assert t.mats[0].is_zero()
    assert t.mats[1] == J2


def test_from_staircase_single_cell():
    t = from_staircase(staircase([(0, 0)]), GF(5))
    assert t.n == 1
    assert all(m.is_zero() for m in t.mats)


def test_companion_char_poly_round_trip():
    rng = random.Random(12)
    for _ in range(15):
        coeffs = [QQ.of(Fraction(rng.randint(-3, 3), rng.randint(1, 2))) for _ in range(rng.randint(0, 4))]
        f = UniPoly.make(QQ, coeffs + [QQ.one()])
        t = companion(f)
        assert t.n == f.degree
        if t.n:
            from commvar.matrices import char_poly

            assert char_poly(t.mats[0]).coeffs == f.coeffs


def test_companion_requires_monic():
    with pytest.raises(NotMonicError):
        companion(UniPoly.make(QQ, [QQ.of(1), QQ.of(2)]))
    assert companion(UniPoly.one(QQ)).n == 0


def test_trace_potential_known_value():
    # A = e12, B = e21, C = diag(1,-1): Tr(A[B,C]) = 2
    C = qmat([[1, 0], [0, -1]])
    assert trace_potential([J2, E21, C]) == 2


def test_trace_potential_cyclic_invariance():
    rng = random.Random(13)
    for _ in range(15):
        mats = [
            qmat([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
            for _ in range(3)
        ]
        a, b, c = mats
        w = trace_potential([a, b, c])
        assert trace_potential([b, c, a]) == w
        assert trace_potential([c, a, b]) == w


def test_potential_gradient_vanishes_iff_commuting():
    rng = random.Random(14)
    C = qmat([[1, 0], [0, -1]])
    grad = potential_gradient([J2, E21, C])
    assert not all(g.is_zero() for g in grad)
    for _ in range(10):
        t = random_punctual_tuple(QQ, 3, 3, rng)
        assert all(g.is_zero() for g in potential_gradient(list(t.mats)))


def test_potential_gradient_is_first_order_expansion():
    # W is linear in each single entry, so a unit step in one entry
    # changes W by exactly the matching gradient entry
    rng = random.Random(15)
    for _ in range(10):
        mats = [
            qmat([[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2)] for _ in range(2)])
            for _ in range(3)
        ]
        w0 = trace_potential(mats)
        grad = potential_gradient(mats)
        for slot in range(3):
            for a in range(2):
                for b in range(2):
                    bumped = [m for m in mats]
                    e = oracles.rows_of(Matrix.zero(QQ, 2, 2))
                    e[a][b] = QQ.one()
                    bumped[slot] = mats[slot] + Matrix.from_rows(QQ, e)
                    assert trace_potential(bumped) - w0 == grad[slot].entry(a, b)


def test_potential_arity_guard():
    with pytest.raises(ArityMismatchError):
        trace_potential([J2, E21])
    with pytest.raises(ArityMismatchError):
        potential_gradient([J2])


def test_tangent_dim_d1_is_full():
    rng = random.Random(16)
    for n in range(1, 5):
        t = random_punctual_tuple(QQ, 1, n, rng)
        assert tangent_space_dim(t) == n * n


def test_tangent_dim_known_jump():
    pair00 = validate([Z2, Z2])
    assert tangent_space_dim(pair00) == 8
    d = qmat([[0, 0], [0, 1]])
    assert tangent_space_dim(validate([d, Z2])) == 6


def test_tangent_dim_empty_module():
    assert tangent_space_dim(empty_tuple(QQ, 3)) == 0


def test_conjugation_preserves_commutators_exactly():
    rng = random.Random(17)
    for _ in range(10):
        t = random_punctual_tuple(QQ, 2, 3, rng)
        g = random_group_element(QQ, 3, rng)
        u = conjugate(t, g)
        for a in u.mats:
            for b in u.mats:
                assert commutator(a, b).is_zero()
