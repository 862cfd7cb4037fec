import time
from fractions import Fraction

import pytest

from commvar.errors import BudgetExceededError, NonprimeQError, ParseError
from commvar.fields import (
    GF,
    PRIMALITY_BOUND,
    QQ,
    field_from_name,
    field_name,
    int_from_decimal,
    int_to_decimal,
    is_prime,
)


def test_rational_parse_canonical():
    assert QQ.parse("3/6") == Fraction(1, 2)
    assert QQ.parse("-4/2") == Fraction(-2)
    assert QQ.parse("+7") == Fraction(7)
    assert QQ.format(Fraction(-3, 2)) == "-3/2"
    assert QQ.format(Fraction(4)) == "4"


def test_rational_parse_rejects_garbage():
    for bad in ["", "1.5", "1/0x", "a", "1 / 2", "2/0"]:
        with pytest.raises(ParseError):
            QQ.parse(bad)


def test_prime_field_parse_reduces():
    F5 = GF(5)
    assert F5.parse("7") == 2
    assert F5.parse("-1") == 4
    assert F5.format(F5.parse("12")) == "2"


def test_prime_field_rejects_fractions():
    with pytest.raises(ParseError):
        GF(5).parse("1/2")


def test_nonprime_rejected():
    for q in [0, 1, 4, 6, 9, 12]:
        with pytest.raises(NonprimeQError):
            GF(q)


def test_field_arithmetic_mod_p():
    F7 = GF(7)
    assert F7.add(5, 4) == 2
    assert F7.mul(3, 5) == 1
    assert F7.neg(2) == 5
    # lift(x, a) is x/a: lift(1, a) inverts every nonzero a, also
    # unreduced and negative ones, and lift(x, 1) reduces x
    for a in range(1, 7):
        assert F7.mul(a, F7.lift(1, a)) == 1
        assert F7.lift(1, a) == F7.lift(1, a - 7) == F7.lift(1, a + 7 * 10**20)
        assert F7.mul(a, F7.lift(4, a)) == 4
    assert [F7.lift(x, 1) for x in (-1, 7, 10**30)] == [6, 0, 10**30 % 7]


def test_rational_inverse_exact():
    # lift(x, d) is x/d in lowest terms, a Fraction also when d = 1 or x = 0
    assert QQ.mul(Fraction(3), QQ.lift(1, 3)) == 1
    for x, d, want in [(3, 7, Fraction(3, 7)), (-6, 4, Fraction(-3, 2)), (6, -4, Fraction(-3, 2)),
                       (5, 1, Fraction(5)), (0, 9, Fraction(0))]:
        got = QQ.lift(x, d)
        assert got == want and type(got) is Fraction
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def test_field_identity_and_equality():
    assert GF(5) is GF(5)  # cached
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)
    assert QQ != GF(5)
    assert hash(GF(5)) == hash(GF(5))


def test_field_names_round_trip():
    for name in ["Q", "Fp:2", "Fp:97"]:
        assert field_name(field_from_name(name)) == name
    with pytest.raises(ParseError):
        field_from_name("R")
    with pytest.raises(ParseError):
        field_from_name("Fp:abc")


def _trial_division(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_is_prime_agrees_with_trial_division_below_1e5():
    assert [n for n in range(10**5) if is_prime(n) != _trial_division(n)] == []


def test_is_prime_rejects_strong_pseudoprimes_and_composites():
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to the
    # bases 2, 3, 5, 7; 318665857834031151167461 is one to every base up to 37
    for n in [561, 3215031751, 318665857834031151167461, 2**61 + 1, (2**31 - 1) ** 2]:
        assert not is_prime(n)
    for n in [2**31 - 1, 2**61 - 1, 1000003]:
        assert is_prime(n)


def test_is_prime_refuses_at_the_bound():
    for n in [PRIMALITY_BOUND, PRIMALITY_BOUND + 2, 2**127 - 1]:
        with pytest.raises(BudgetExceededError) as info:
            is_prime(n)
        assert info.value.detail == {"size": n, "budget": PRIMALITY_BOUND}


def test_large_prime_field_tag_parses_quickly():
    start = time.perf_counter()
    F = field_from_name("Fp:2305843009213693951")
    assert time.perf_counter() - start < 1.0
    assert F.characteristic == 2**61 - 1
    assert F.mul(F.lift(1, 3), 3) == 1
    assert F.lift(2**61 - 2, 2**61 - 2) == 1 and F.lift(-1, 2**61 - 2) == 1


@pytest.mark.parametrize("digits", [1, 4300, 4301, 5000, 8601, 20000])
def test_decimal_helpers_pass_the_int_str_digit_limit(digits):
    # the numerals are built from powers of ten, never through str(int)
    n = 10**digits - 1  # digits nines
    assert int_from_decimal("9" * digits) == n
    assert int_from_decimal("-" + "9" * digits) == -n
    assert int_from_decimal("+0" + "9" * digits) == n
    assert int_to_decimal(n) == "9" * digits
    assert int_to_decimal(-n - 1) == "-1" + "0" * digits
    assert int_to_decimal(10**digits + 7) == "1" + "0" * (digits - 1) + "7"


def test_decimal_helpers_keep_refusing_bad_numerals():
    for bad in ["", "-", "1" * 5000 + "x", "+-" + "1" * 5000, "²" * 5000]:
        with pytest.raises(ValueError):
            int_from_decimal(bad)


def test_long_scalars_parse_and_format_exactly():
    n = 10**5000 - 1
    assert QQ.parse("9" * 5000 + "/" + "3" * 4400) == Fraction(n, (10**4400 - 1) // 3)
    assert QQ.format(Fraction(-n, 10**4400)) == "-" + "9" * 5000 + "/1" + "0" * 4400
    assert GF(5).parse("9" * 5000) == 4
    with pytest.raises(BudgetExceededError):
        field_from_name("Fp:" + "9" * 5000)
    with pytest.raises(ParseError):
        field_from_name("Fp:²")
