import random
from fractions import Fraction

import pytest

import oracles
from commvar.errors import ParseError, ZeroPolyError
from commvar.fields import GF, QQ
from commvar.polynomials import (
    MultiPoly,
    UniPoly,
    format_multipoly,
    parse_multipoly,
    roots_with_multiplicity,
)


def qpoly(*coeffs):
    return UniPoly.make(QQ, [QQ.of(c) for c in coeffs])


def test_unipoly_normalizes_trailing_zeros():
    f = qpoly(1, 2, 0, 0)
    assert f.degree == 1
    assert qpoly(0, 0).is_zero


def test_unipoly_arithmetic_against_hand_expansion():
    # (1 + 2t)(3 - t) = 3 + 5t - 2t^2
    f, g = qpoly(1, 2), qpoly(3, -1)
    assert (f * g).coeffs == qpoly(3, 5, -2).coeffs
    assert (f + g).coeffs == qpoly(4, 1).coeffs
    assert (f - g).coeffs == qpoly(-2, 3).coeffs


def test_unipoly_deflate_exact():
    f = qpoly(2, -3, 1)
    g = f.deflate(QQ.of(1))
    assert g.coeffs == qpoly(-2, 1).coeffs
    with pytest.raises(ValueError):
        f.deflate(QQ.of(5))  # not a root


def test_roots_simple_rational():
    roots, cof = roots_with_multiplicity(qpoly(2, -3, 1))
    assert roots == [(Fraction(1), 1), (Fraction(2), 1)]
    assert cof.degree == 0


def test_roots_with_multiplicity_and_fraction_root():
    # (t - 1/2)^2 (t + 3) = expand by hand:
    # (t^2 - t + 1/4)(t + 3) = t^3 + 2t^2 - 11/4 t + 3/4
    f = qpoly(Fraction(3, 4), Fraction(-11, 4), 2, 1)
    roots, cof = roots_with_multiplicity(f)
    assert roots == [(Fraction(-3), 1), (Fraction(1, 2), 2)]
    assert cof.degree == 0


def test_roots_irreducible_quadratic():
    roots, cof = roots_with_multiplicity(qpoly(1, 0, 1))  # t^2 + 1
    assert roots == []
    assert cof.coeffs == qpoly(1, 0, 1).coeffs


def test_roots_mixed_split_and_unsplit_preserves_product():
    # (t^2 + 1)(t - 3)
    f = qpoly(1, 0, 1) * qpoly(-3, 1)
    roots, cof = roots_with_multiplicity(f)
    assert roots == [(Fraction(3), 1)]
    prod = cof
    for r, m in roots:
        for _ in range(m):
            prod = prod * UniPoly.make(QQ, [QQ.neg(r), QQ.one()])
    assert prod.coeffs == f.coeffs


def test_roots_zero_root_handled():
    # t^2 (t - 5)
    f = qpoly(0, 0, 1) * qpoly(-5, 1)
    roots, _ = roots_with_multiplicity(f)
    assert roots == [(Fraction(0), 2), (Fraction(5), 1)]


def test_roots_over_prime_field_exhaustive_search():
    F2 = GF(2)
    irred = UniPoly.make(F2, [1, 1, 1])  # t^2 + t + 1
    roots, cof = roots_with_multiplicity(irred)
    assert roots == []
    assert cof.coeffs == irred.coeffs
    square = UniPoly.make(F2, [1, 0, 1])  # t^2 + 1 = (t+1)^2 in char 2
    roots, cof = roots_with_multiplicity(square)
    assert roots == [(1, 2)]
    assert cof.degree == 0


def test_roots_zero_poly_rejected():
    with pytest.raises(ZeroPolyError):
        roots_with_multiplicity(UniPoly.zero(QQ))


def test_roots_product_identity_seeded():
    # f = prod (t - root)^mult * remainder must be reassembled exactly
    rng = random.Random(11)
    for field in (QQ, GF(5), GF(2)):
        for _ in range(30):
            f = UniPoly.one(field)
            for _ in range(rng.randint(1, 4)):
                if field is QQ:
                    r = field.of(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                else:
                    r = rng.randrange(field.characteristic)
                f = f * UniPoly.make(field, [field.neg(r), field.one()])
            if rng.random() < 0.5:
                f = f * UniPoly.make(field, [field.one(), field.zero(), field.one()])
            roots, cof = roots_with_multiplicity(f)
            back = cof
            for r, m in roots:
                for _ in range(m):
                    back = back * UniPoly.make(field, [field.neg(r), field.one()])
            assert back.coeffs == f.coeffs
            # the remainder has no roots left in the field
            rr, _ = roots_with_multiplicity(back) if back.degree >= 1 else ([], None)
            if back.degree >= 1 and cof.degree >= 1:
                croots, _ = roots_with_multiplicity(cof)
                assert croots == []


def test_roots_of_scaled_products_seeded():
    # f = c · prod (b·t - a)^m · g with g rootless: over Q with fractional c
    # and b > 1, and over F_7.  Each root is checked by Horner's rule
    # (``oracles.poly_eval``) and ``deflate``, and the cofactor is f / prod (t - a/b)^m, which is
    # c · prod b^m · g, coefficient by coefficient, leading one included.
    rng = random.Random(12)
    for field, rootless in ((QQ, qpoly(2, 0, 3)), (GF(7), UniPoly.make(GF(7), [1, 0, 1]))):
        p = field.characteristic
        for _ in range(40):
            if p:
                c = rng.randrange(1, p)
            else:
                c = Fraction(rng.choice([-5, -2, 1, 3, 7]), rng.randint(2, 6))
            f, scale, want = UniPoly.make(field, [c]), c, {}
            for _ in range(rng.randint(1, 4)):
                if p:
                    a, b = rng.randrange(p), rng.randrange(1, p)
                    root = a * pow(b, -1, p) % p
                else:
                    a, b = rng.randint(-6, 6), rng.randint(2, 4)
                    root = Fraction(a, b)
                f = f * UniPoly.make(field, [field.neg(field.of(a)), field.of(b)])
                scale = field.mul(scale, field.of(b))
                want[root] = want.get(root, 0) + 1
            if rng.random() < 0.5:
                f = f * rootless
                cofactor = rootless.scale(scale)
            else:
                cofactor = UniPoly.make(field, [scale])
            roots, cof = roots_with_multiplicity(f)
            assert roots == sorted(want.items())
            assert cof.coeffs == cofactor.coeffs
            rest = f
            for r, m in roots:
                for _ in range(m):
                    assert oracles.poly_eval(list(rest.coeffs), r, p) == field.zero()
                    rest = rest.deflate(r)
                assert oracles.poly_eval(list(rest.coeffs), r, p) != field.zero()
            assert rest.coeffs == cof.coeffs


def test_roots_eval_consistency_over_f5():
    rng = random.Random(3)
    F5 = GF(5)
    for _ in range(20):
        coeffs = [rng.randrange(5) for _ in range(rng.randint(1, 5))] + [1]
        f = UniPoly.make(F5, coeffs)
        roots, _ = roots_with_multiplicity(f)
        found = {r for r, _ in roots}
        brute = {x for x in range(5) if oracles.poly_eval(list(f.coeffs), x, 5) == 0}
        assert found == brute


def test_multipoly_eval_and_make():
    # x1^2 * x2 - 3
    f = MultiPoly.make(QQ, 2, {(2, 1): QQ.of(1), (0, 0): QQ.of(-3)})
    assert oracles.multipoly_eval(f, (QQ.of(2), QQ.of(5)), None) == 17


def test_multipoly_parse_format_round_trip():
    f = parse_multipoly("x1^2*x2 - 3*x3 + 1/2", QQ, 3)
    text = format_multipoly(f)
    again = parse_multipoly(text, QQ, 3)
    assert again == f


def test_multipoly_parse_rejects_unknown_variable():
    with pytest.raises(ParseError):
        parse_multipoly("x3 + 1", QQ, 2)
    with pytest.raises(ParseError):
        parse_multipoly("", QQ, 2)


def test_multipoly_parse_over_prime_field():
    f = parse_multipoly("x1*x2 + 4", GF(3), 2)
    assert oracles.multipoly_eval(f, (2, 2), 3) == (4 + 1) % 3
