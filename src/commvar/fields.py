"""Exact base fields: the rationals and prime fields F_p.

Scalars are plain Python values, not wrapper objects: ``fractions.Fraction``
over Q (always in lowest terms, positive denominator) and ``int`` residues
in [0, p) over F_p.  Field objects supply the arithmetic and the canonical
string syntax ("-3/2" or "4" over Q, a decimal residue over F_p).  Floating
point never appears.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Union

from .errors import BudgetExceededError, NonprimeQError, ParseError

Scalar = Union[Fraction, int]

_RAT_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_INT_RE = re.compile(r"^[+-]?\d+$")
# comma-separated lists of the same numerals, without spaces
_RATS_RE = re.compile(r"[+-]?\d+(?:/\d+)?(?:,[+-]?\d+(?:/\d+)?)*")
_INTS_RE = re.compile(r"[+-]?\d+(?:,[+-]?\d+)*")

# CPython refuses int <-> str conversions past sys.get_int_max_str_digits()
# (4300 digits by default).  Only then do these two helpers split the number
# in halves until it converts; the limit itself is left alone, since the CLI
# runs inside other processes.
def int_from_decimal(text: str) -> int:
    """int(text) for a signed decimal numeral of any length."""
    try:
        return int(text)
    except ValueError:
        s = text.strip()
        digits = s[1:] if s[:1] in ("+", "-") else s
        if not digits.isdecimal():
            raise
        k = len(digits) // 2
        value = int_from_decimal(digits[:-k]) * 10**k + int_from_decimal(digits[-k:])
        return -value if s[0] == "-" else value


def int_to_decimal(n: int) -> str:
    """str(n) for an int of any size."""
    try:
        return str(n)
    except ValueError:
        k = n.bit_length() * 3 // 20  # about half the digits
        head, tail = divmod(abs(n), 10**k)
        return ("-" if n < 0 else "") + int_to_decimal(head) + int_to_decimal(tail).zfill(k)


# The first 13 primes are a deterministic Miller-Rabin witness set for every
# n below this bound (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact below PRIMALITY_BOUND.

    Larger p is refused with BudgetExceededError rather than answered by a
    probabilistic test or by trial division that would not finish.
    """
    if p < 2:
        return False
    if p >= PRIMALITY_BOUND:
        raise BudgetExceededError(
            f"primality of {int_to_decimal(p)} is not decided at or above {PRIMALITY_BOUND}",
            size=p,
            budget=PRIMALITY_BOUND,
        )
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field:
    """Interface shared by RationalField and PrimeField."""

    kind: str = "?"
    characteristic: int = 0

    def zero(self) -> Scalar:
        raise NotImplementedError

    def one(self) -> Scalar:
        raise NotImplementedError

    def of(self, x) -> Scalar:
        """Coerce a Python int (or an exact scalar of this field) to a scalar."""
        raise NotImplementedError

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def neg(self, a: Scalar) -> Scalar:
        raise NotImplementedError

    def inv(self, a: Scalar) -> Scalar:
        raise NotImplementedError

    def pow(self, a: Scalar, e: int) -> Scalar:
        """a ** e for an int e >= 0; pow with modulus None is plain a ** e."""
        return pow(a, e, self.characteristic or None)

    def parse(self, text: str) -> Scalar:
        raise NotImplementedError

    def parse_all(self, texts: list[str]) -> list[Scalar]:
        """[self.parse(x) for x in texts], each text parsed once.

        The texts are matched against the field's syntax as one string and
        converted with ``int``; on any failure they go through ``parse`` one
        by one instead, which raises on the first bad text as it always has
        and reads numerals of any length.
        """
        p = self.characteristic
        joined = ",".join(texts)
        if (_INTS_RE if p else _RATS_RE).fullmatch(joined) and joined.count(",") == len(texts) - 1:
            try:
                if p:
                    return [int(x) % p for x in texts]
                # a Fraction of one int needs no gcd
                return [Fraction(int(num), int(den)) if den else Fraction(int(num))
                        for num, _, den in (x.partition("/") for x in texts)]
            except (ValueError, ZeroDivisionError):
                pass
        return [self.parse(x) for x in texts]

    def format(self, a: Scalar) -> str:
        # an int residue is its own numerator over 1
        num = int_to_decimal(a.numerator)
        return num if a.denominator == 1 else f"{num}/{int_to_decimal(a.denominator)}"

    # Field identity is structural so cached and ad-hoc instances agree.
    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and (self.kind, self.characteristic) == (
            other.kind,
            other.characteristic,
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.characteristic))


class RationalField(Field):
    """The field Q."""

    kind = "Q"
    characteristic = 0

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def of(self, x) -> Fraction:
        if isinstance(x, bool):
            raise TypeError("bool is not a scalar")
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to Q")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return 1 / Fraction(a)

    def parse(self, text: str) -> Fraction:
        s = text.strip()
        if not _RAT_RE.match(s):
            raise ParseError(f"bad rational scalar {text!r}", scalar=text)
        num, _, den = s.partition("/")
        den = int_from_decimal(den) if den else 1
        if den == 0:
            raise ParseError(f"zero denominator in {text!r}", scalar=text)
        return Fraction(int_from_decimal(num), den)

    def __repr__(self) -> str:
        return "QQ"


class PrimeField(Field):
    """The prime field F_p; scalars are int residues in [0, p)."""

    kind = "Fp"

    def __init__(self, p: int):
        if not is_prime(p):
            raise NonprimeQError(f"{p} is not prime", q=p)
        self.characteristic = p

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1 % self.characteristic

    def of(self, x) -> int:
        if isinstance(x, bool):
            raise TypeError("bool is not a scalar")
        if isinstance(x, int):
            return x % self.characteristic
        raise TypeError(f"cannot coerce {type(x).__name__} to F_{self.characteristic}")

    def add(self, a, b):
        return (a + b) % self.characteristic

    def sub(self, a, b):
        return (a - b) % self.characteristic

    def mul(self, a, b):
        return (a * b) % self.characteristic

    def neg(self, a):
        return (-a) % self.characteristic

    def inv(self, a):
        if a % self.characteristic == 0:
            raise ZeroDivisionError(f"inverse of 0 in F_{self.characteristic}")
        return pow(a, -1, self.characteristic)

    def parse(self, text: str) -> int:
        s = text.strip()
        if "/" in s:
            raise ParseError(
                f"fractions are not F_{self.characteristic} scalars: {text!r}",
                scalar=text,
            )
        if not _INT_RE.match(s):
            raise ParseError(f"bad residue {text!r}", scalar=text)
        return int_from_decimal(s) % self.characteristic

    def elements(self) -> Iterator[int]:
        return iter(range(self.characteristic))

    def __repr__(self) -> str:
        return f"GF({self.characteristic})"


QQ = RationalField()


@lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_from_name(name: str) -> Field:
    """Parse a field tag: "Q" or "Fp:<p>"."""
    if name == "Q":
        return QQ
    if name.startswith("Fp:"):
        body = name[3:]
        if not body.isdecimal():
            raise ParseError(f"bad field tag {name!r}", field=name)
        return GF(int_from_decimal(body))
    raise ParseError(f"unknown field tag {name!r}", field=name)


def field_name(field: Field) -> str:
    if field.characteristic == 0:
        return "Q"
    return f"Fp:{field.characteristic}"
