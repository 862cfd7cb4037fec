import random
from fractions import Fraction

import pytest

import oracles
from commvar.errors import (
    ArityMismatchError,
    MixedFieldsError,
    NotSquareError,
    SizeMismatchError,
)
from commvar.fields import GF, QQ
from commvar.matrices import (
    Matrix,
    block_diag,
    char_poly,
    commutator,
    det,
    eval_multipoly,
    hstack,
    intertwining_system,
    inverse,
    kernel_basis,
    rank,
    rref,
    solve,
)
from commvar.polynomials import MultiPoly


def qmat(rows):
    return Matrix.from_rows(QQ, [[QQ.of(x) for x in r] for r in rows])


def fmat(p, rows):
    F = GF(p)
    return Matrix.from_rows(F, [[F.of(x) for x in r] for r in rows])


def rand_qmat(rng, n, m=None, span=4):
    m = n if m is None else m
    return Matrix.from_rows(
        QQ,
        [
            [Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(m)]
            for _ in range(n)
        ],
    )


def rand_fmat(rng, p, n, m=None):
    m = n if m is None else m
    return Matrix.from_rows(
        GF(p), [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
    )


def test_shape_checks():
    with pytest.raises(SizeMismatchError):
        qmat([[1, 2], [3]])
    a, b = qmat([[1, 2]]), qmat([[1, 2]])
    with pytest.raises(SizeMismatchError):
        a * b
    with pytest.raises(MixedFieldsError):
        qmat([[1]]) + fmat(5, [[1]])


def test_matmul_against_hand_loops():
    rng = random.Random(0)
    for _ in range(25):
        n, k, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a, b = rand_qmat(rng, n, k), rand_qmat(rng, k, m)
        prod = a * b
        assert oracles.rows_of(prod) == oracles.mat_mul(
            oracles.rows_of(a), oracles.rows_of(b), None
        )


def test_det_matches_cofactor_oracle():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randint(0, 4)
        m = rand_qmat(rng, n)
        assert det(m) == oracles.cofactor_det(oracles.rows_of(m), None)
    for p in (2, 3, 5):
        for _ in range(40):
            n = rng.randint(0, 4)
            m = rand_fmat(rng, p, n)
            assert det(m) == oracles.cofactor_det(oracles.rows_of(m), p)


def test_det_matches_cofactor_oracle_over_large_primes():
    # Bareiss runs on the residues as integers, so its intermediate values
    # exceed p before the final reduction; singular inputs and zero leading
    # pivots (row swaps) are mixed in
    rng = random.Random(4)
    for p in (1000003, 2**31 - 1):
        for n in range(7):
            for k in range(6):
                rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
                if n >= 2 and k == 1:
                    rows[-1] = list(rows[0])
                if n >= 2 and k == 2:
                    rows[0][0] = 0
                if n >= 2 and k == 3:
                    rows[1] = [(3 * x + 5 * y) % p for x, y in zip(rows[0], rows[-1])]
                m = fmat(p, rows)
                got = det(m)
                assert isinstance(got, int) and 0 <= got < p
                assert got == oracles.cofactor_det(oracles.rows_of(m), p)


def test_det_multiplicative():
    rng = random.Random(2)
    for _ in range(20):
        a, b = rand_qmat(rng, 3), rand_qmat(rng, 3)
        assert det(a * b) == det(a) * det(b)


def test_rref_matches_hand_reduction():
    # RREF is unique, so the two independently written reducers must agree
    rng = random.Random(3)
    for _ in range(30):
        n, m = rng.randint(1, 4), rng.randint(1, 5)
        mat = rand_qmat(rng, n, m)
        R, rk, piv = rref(mat)
        hr, hrk, hpiv = oracles.hand_rref(oracles.rows_of(mat), None)
        assert oracles.rows_of(R) == hr
        assert (rk, list(piv)) == (hrk, hpiv)
    for _ in range(30):
        mat = rand_fmat(rng, 5, rng.randint(1, 4), rng.randint(1, 5))
        R, rk, piv = rref(mat)
        hr, hrk, hpiv = oracles.hand_rref(oracles.rows_of(mat), 5)
        assert oracles.rows_of(R) == hr
        assert (rk, list(piv)) == (hrk, hpiv)


def test_kernel_basis_spans_kernel():
    rng = random.Random(4)
    for p in (None, 2, 7):
        for _ in range(25):
            n, m = rng.randint(1, 4), rng.randint(1, 5)
            mat = rand_qmat(rng, n, m) if p is None else rand_fmat(rng, p, n, m)
            ker = kernel_basis(mat)
            assert len(ker) == m - rank(mat)
            for v in ker:
                col = Matrix.from_rows(mat.field, [[x] for x in v])
                assert (mat * col).is_zero()
            # vectors are independent: stack them and check rank
            if ker:
                stacked = Matrix.from_rows(mat.field, [list(v) for v in ker])
                assert rank(stacked) == len(ker)


def test_inverse_round_trip_and_singular_detection():
    rng = random.Random(5)
    for p in (None, 2, 5):
        field = QQ if p is None else GF(p)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = rand_qmat(rng, n) if p is None else rand_fmat(rng, p, n)
            got = inverse(m)
            d = oracles.cofactor_det(oracles.rows_of(m), p)
            if d == (0 if p else Fraction(0)):
                assert got is None
            else:
                assert got is not None
                assert m * got == Matrix.identity(field, n)
                assert got * m == Matrix.identity(field, n)


def test_inverse_rejects_singular_with_full_row_rank_augment():
    # regression: the identity block of [m | I] always has full row rank,
    # so singularity must be read off the pivot columns, not the rank
    assert inverse(qmat([[1, 0], [0, 0]])) is None
    assert inverse(fmat(2, [[1, 1], [1, 1]])) is None
    count = sum(
        1 for m in _all_f2_2x2() if inverse(m) is not None
    )
    assert count == oracles.count_invertible(2, 2) == 6


def _all_f2_2x2():
    F2 = GF(2)
    for code in range(16):
        bits = [(code >> k) & 1 for k in range(4)]
        yield Matrix.from_rows(F2, [[bits[0], bits[1]], [bits[2], bits[3]]])


def test_solve_consistent_and_inconsistent():
    rng = random.Random(6)
    for p in (None, 3):
        for _ in range(30):
            n, m, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 2)
            a = rand_qmat(rng, n, m) if p is None else rand_fmat(rng, p, n, m)
            b = rand_qmat(rng, n, k) if p is None else rand_fmat(rng, p, n, k)
            x = solve(a, b)
            hx = oracles.hand_solve(
                oracles.rows_of(a), oracles.rows_of(b), p
            )
            assert (x is None) == (hx is None)
            if x is not None:
                assert a * x == b
                assert oracles.rows_of(x) == hx  # both set free vars to zero


def test_char_poly_matches_polynomial_cofactor_oracle():
    rng = random.Random(7)
    for p in (None, 2, 3, 5):
        field = QQ if p is None else GF(p)
        for _ in range(25):
            n = rng.randint(0, 4)
            m = rand_qmat(rng, n) if p is None else rand_fmat(rng, p, n)
            f = char_poly(m)
            expect = oracles.hand_char_poly(oracles.rows_of(m), p)
            got = list(f.coeffs) + [field.zero()] * (n + 1 - len(f.coeffs))
            assert got == expect


def test_char_poly_two_by_two_formula():
    rng = random.Random(8)
    for _ in range(20):
        m = rand_qmat(rng, 2)
        f = char_poly(m)
        tr = m.entry(0, 0) + m.entry(1, 1)
        assert list(f.coeffs) == [det(m), -tr, Fraction(1)]


def test_char_poly_small_prime_no_division():
    # Berkowitz needs no inverses, so p <= n must work
    F2 = GF(2)
    j3 = Matrix.from_rows(F2, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert list(char_poly(j3).coeffs) == [0, 0, 0, 1]
    m = fmat(2, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert list(char_poly(m).coeffs) == oracles.hand_char_poly(oracles.rows_of(m), 2)


def test_char_poly_cayley_hamilton():
    rng = random.Random(9)
    for p in (None, 3):
        field = QQ if p is None else GF(p)
        for _ in range(15):
            n = rng.randint(1, 4)
            m = rand_qmat(rng, n) if p is None else rand_fmat(rng, p, n)
            f = char_poly(m)
            acc = Matrix.zero(field, n, n)
            power = Matrix.identity(field, n)
            for c in f.coeffs:
                acc = acc + power.scale(c)
                power = power * m
            assert acc.is_zero()


def test_commutator_and_blocks():
    a, b = qmat([[0, 1], [0, 0]]), qmat([[0, 0], [1, 0]])
    assert oracles.rows_of(commutator(a, b)) == oracles.mat_commutator(
        oracles.rows_of(a), oracles.rows_of(b), None
    )
    bd = block_diag([a, b])
    assert bd.rows == 4
    assert bd.entry(0, 1) == 1 and bd.entry(3, 2) == 1 and bd.entry(0, 2) == 0
    assert block_diag([], field=QQ).rows == 0


def test_hstack_and_empty_sizes():
    a = qmat([[1], [2]])
    b = qmat([[3, 4], [5, 6]])
    h = hstack([a, b])
    assert oracles.rows_of(h) == [[1, 3, 4], [2, 5, 6]]
    z = Matrix.zero(QQ, 0, 0)
    assert det(z) == 1
    assert rank(z) == 0
    assert inverse(z) == z


def test_eval_multipoly_matches_scalar_specialization():
    # evaluating on 1x1 matrices is plain polynomial evaluation
    f = MultiPoly.make(QQ, 2, {(2, 1): QQ.of(3), (0, 0): QQ.of(-1)})
    a = qmat([[2]])
    b = qmat([[5]])
    got = eval_multipoly(f, [a, b])
    assert got.entry(0, 0) == 3 * 4 * 5 - 1


def test_eval_multipoly_on_commuting_jordan():
    # f(x1,x2) = x1*x2 + x1 on (J2, J2^2=0): J2*0 + J2 = J2
    f = MultiPoly.make(QQ, 2, {(1, 1): QQ.of(1), (1, 0): QQ.of(1)})
    j2 = qmat([[0, 1], [0, 0]])
    got = eval_multipoly(f, [j2, j2 * j2])
    assert got == j2


def test_power_binary(monkeypatch):
    j = qmat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert j.power(0) == Matrix.identity(QQ, 3)
    assert j.power(1) == j
    assert j.power(2).entry(0, 2) == 1
    assert j.power(3).is_zero()
    empty = Matrix.zero(QQ, 0, 0)
    assert empty.power(0) == empty.power(5) == empty
    # square-and-multiply never multiplies by the identity: k = 2^a + ... with
    # b set bits takes a squarings and b - 1 further products
    m = qmat([[1, 2], [-3, Fraction(1, 2)]])
    expect = Matrix.identity(QQ, 2)
    product = Matrix.__mul__
    products = 0

    def counted(a, b):
        nonlocal products
        products += 1
        return product(a, b)

    monkeypatch.setattr(Matrix, "__mul__", counted)
    for k in range(1, 20):
        expect = product(expect, m)
        products = 0
        assert m.power(k) == expect
        assert products == k.bit_length() - 1 + bin(k).count("1") - 1


def test_nonsquare_guards():
    with pytest.raises(NotSquareError):
        det(qmat([[1, 2]]))
    with pytest.raises(NotSquareError):
        char_poly(qmat([[1, 2]]))
    with pytest.raises(NotSquareError):
        inverse(qmat([[1, 2]]))


def rand_commuting(rng, field, n, d):
    """d commuting n x n matrices: polynomials of degree <= 2 in one random matrix."""
    if field.characteristic:
        m = rand_fmat(rng, field.characteristic, n)
    else:
        m = rand_qmat(rng, n)
    eye = Matrix.identity(field, n)
    return [
        eye.scale(field.of(rng.randint(-2, 2)))
        + m.scale(field.of(rng.randint(-2, 2)))
        + (m * m).scale(field.of(rng.randint(-2, 2)))
        for _ in range(d)
    ]


@pytest.mark.parametrize("field", [QQ, GF(5), GF(2)], ids=["Q", "F5", "F2"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_intertwining_system_applies_h_a_minus_b_h(field, d):
    rng = random.Random(100 * d + field.characteristic)
    for ns, nt in [(2, 3), (3, 2), (1, 4), (3, 3)]:
        sources = rand_commuting(rng, field, ns, d)
        targets = rand_commuting(rng, field, nt, d)
        h = (rand_fmat(rng, field.characteristic, nt, ns) if field.characteristic
             else rand_qmat(rng, nt, ns))
        system = intertwining_system(sources, targets)
        assert (system.rows, system.cols) == (d * nt * ns, nt * ns)
        expected = tuple(x for a, b in zip(sources, targets) for x in (h * a - b * h).entries)
        assert system.mat_vec(h.entries) == expected


def test_intertwining_system_guards():
    a = qmat([[1, 2], [3, 4]])
    with pytest.raises(ArityMismatchError):
        intertwining_system([a], [a, a])
    with pytest.raises(ArityMismatchError):
        intertwining_system([], [])


# ---------------------------------------------------------------------------
# the elimination kernels behind rref, against the hand reducer

KERNEL_FIELDS = [QQ, GF(2), GF(5), GF(1000003)]
KERNEL_IDS = ["Q", "F2", "F5", "F1000003"]


def _kernel_scalar(rng, field):
    """Mostly zeros and small signed values, now and then a huge one."""
    if field.characteristic:
        return field.of(rng.choice([0, 0, 0, rng.randint(-9, 9), -(10**30) // 7, 10**30 + 7]))
    return rng.choice(
        [Fraction(0), Fraction(0), Fraction(0), Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
         Fraction(10**30, 7), Fraction(-(10**30), 7)]
    )


def _combination(rng, field, basis):
    """A random linear combination of the given rows."""
    acc = [field.zero()] * len(basis[0])
    for row in basis:
        c = field.of(rng.randint(-3, 3))
        acc = [field.add(a, field.mul(c, x)) for a, x in zip(acc, row)]
    return acc


def _kernel_cases(rng, field):
    cases = []
    for _ in range(6):
        n, m = rng.randint(1, 12), rng.randint(1, 14)
        rows = [[_kernel_scalar(rng, field) for _ in range(m)] for _ in range(n)]
        cases.append(rows)
        # rank deficient: every row a combination of the first k rows
        k = rng.randint(1, min(n, m))
        cases.append(rows[:k] + [_combination(rng, field, rows[:k]) for _ in range(n - k)])
        # zero rows and duplicate rows, shuffled among the others
        mixed = rows[:9] + [[field.zero()] * m, list(rows[0]), list(rows[-1])]
        rng.shuffle(mixed)
        cases.append(mixed)
    return cases


def _assert_rref_matches_hand(mat):
    R, rk, piv = rref(mat)
    p = mat.field.characteristic or None
    hr, hrk, hpiv = oracles.hand_rref(oracles.rows_of(mat), p)
    assert (R.rows, R.cols) == (mat.rows, mat.cols)
    assert oracles.rows_of(R) == hr
    assert (rk, list(piv)) == (hrk, hpiv)
    # the goldens format these scalars, so the types are part of the contract
    if p:
        assert all(type(x) is int and 0 <= x < p for x in R.entries)
    else:
        assert all(type(x) is Fraction for x in R.entries)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_rref_kernels_match_hand_reduction(field):
    rng = random.Random(700 + field.characteristic)
    for rows in _kernel_cases(rng, field):
        _assert_rref_matches_hand(Matrix.from_rows(field, rows))


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_rref_kernels_on_empty_shapes(field):
    for k in (0, 1, 5):
        _assert_rref_matches_hand(Matrix(field, 0, k, ()))
        _assert_rref_matches_hand(Matrix(field, k, 0, ()))
        _assert_rref_matches_hand(Matrix.zero(field, k, k + 1))


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_rref_kernels_on_intertwining_systems(field):
    rng = random.Random(800 + field.characteristic)
    for ns, nt, d in [(2, 3, 1), (3, 3, 2), (3, 2, 3), (4, 3, 2)]:
        sources = rand_commuting(rng, field, ns, d)
        targets = rand_commuting(rng, field, nt, d)
        _assert_rref_matches_hand(intertwining_system(sources, targets))
        # the centralizer system has a kernel containing the identity
        _assert_rref_matches_hand(intertwining_system(sources, sources))


# ---------------------------------------------------------------------------
# the product kernel behind __mul__, mat_vec and char_poly, against hand loops

PRODUCT_FIELDS = [QQ, GF(2), GF(5), GF(2**61 - 1)]
PRODUCT_IDS = ["Q", "F2", "F5", "F2^61-1"]


def _product_scalar(rng, field):
    """Over Q signed fractions; over F_p mostly residues near p, whose
    products overflow a machine word long before the sum is reduced."""
    p = field.characteristic
    if p:
        return rng.choice([0, 1, p - 1, p - 2, rng.randrange(p), rng.randrange(p)])
    return rng.choice(
        [Fraction(0), Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
         Fraction(-(10**20) - 1, rng.randint(1, 30))]
    )


def _product_operand(rng, field, n, m):
    rows = [[_product_scalar(rng, field) for _ in range(m)] for _ in range(n)]
    if n and m and rng.random() < 0.5:
        rows[rng.randrange(n)] = [field.zero()] * m
        j = rng.randrange(m)
        for row in rows:
            row[j] = field.zero()
    return Matrix(field, n, m, tuple(x for row in rows for x in row))


def _assert_scalar_types(field, entries):
    # the goldens format these scalars, so the types are part of the contract
    p = field.characteristic
    if p:
        assert all(type(x) is int and 0 <= x < p for x in entries)
    else:
        assert all(type(x) is Fraction for x in entries)


@pytest.mark.parametrize("field", PRODUCT_FIELDS, ids=PRODUCT_IDS)
def test_product_kernel_matches_hand_loops(field):
    rng = random.Random(900 + field.characteristic % 1000)
    p = oracles.char_of_field(field)
    for _ in range(40):
        n, k, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a, b = _product_operand(rng, field, n, k), _product_operand(rng, field, k, m)
        prod = a * b
        assert (prod.rows, prod.cols) == (n, m)
        assert oracles.rows_of(prod) == oracles.mat_mul(oracles.rows_of(a), oracles.rows_of(b), p)
        _assert_scalar_types(field, prod.entries)
        v = b.col(0)
        got = a.mat_vec(v)
        assert list(got) == oracles.mat_vec(oracles.rows_of(a), list(v), p)
        _assert_scalar_types(field, got)


@pytest.mark.parametrize("field", PRODUCT_FIELDS, ids=PRODUCT_IDS)
def test_product_kernel_on_empty_shapes(field):
    for n in (0, 1, 3):
        for k in (0, 1, 3):
            for m in (0, 1, 3):
                a, b = Matrix.zero(field, n, k), Matrix.zero(field, k, m)
                prod = a * b
                # (n x 0)(0 x m) is the n x m zero matrix: every entry an empty sum
                assert prod == Matrix.zero(field, n, m)
                _assert_scalar_types(field, prod.entries)
            got = Matrix.zero(field, n, k).mat_vec((field.zero(),) * k)
            assert got == (field.zero(),) * n
            _assert_scalar_types(field, got)


@pytest.mark.parametrize("field", PRODUCT_FIELDS, ids=PRODUCT_IDS)
def test_char_poly_products_match_cofactor_oracle(field):
    rng = random.Random(950 + field.characteristic % 1000)
    p = oracles.char_of_field(field)
    for _ in range(12):
        n = rng.randint(0, 5)
        m = _product_operand(rng, field, n, n)
        f = char_poly(m)
        got = list(f.coeffs) + [field.zero()] * (n + 1 - len(f.coeffs))
        assert got == oracles.hand_char_poly(oracles.rows_of(m), p)
        _assert_scalar_types(field, f.coeffs)
