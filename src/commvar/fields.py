"""Exact base fields: the rationals and prime fields F_p.

Scalars are plain Python values, not wrapper objects: ``fractions.Fraction``
over Q (always in lowest terms, positive denominator) and ``int`` residues
in [0, p) over F_p.  Field objects supply the arithmetic and the canonical
string syntax ("-3/2" or "4" over Q, a decimal residue over F_p).  Floating
point never appears.

Each field also owns the integer kernels that linear algebra runs on:
``clear`` turns scalars into ints over a common denominator (the residues
themselves over F_p, denominators cleared over Q), ``lift`` turns an int
over a denominator back into a scalar, ``products`` and ``dots`` multiply,
and ``eliminate`` runs Gauss-Jordan on int rows.  Callers pass the field
and never read its characteristic to choose the arithmetic.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import attrgetter, mul
from typing import Optional, Sequence, Union

from .errors import BudgetExceededError, NonprimeQError, ParseError

Scalar = Union[Fraction, int]

_RAT_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_INT_RE = re.compile(r"^[+-]?\d+$")
# comma-separated lists of the same numerals, without spaces
_RATS_RE = re.compile(r"[+-]?\d+(?:/\d+)?(?:,[+-]?\d+(?:/\d+)?)*")
_INTS_RE = re.compile(r"[+-]?\d+(?:,[+-]?\d+)*")
_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")

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

    def clear(self, v: Sequence[Scalar], d: Optional[int] = None) -> tuple[int, list[int]]:
        """(d, d·v as the field's ints): d the lcm of the denominators of v,
        or the given d, which every denominator must divide.  v holds
        scalars; with a given d it may also hold ints standing for them."""
        raise NotImplementedError

    def lift(self, x: int, d: int) -> Scalar:
        """The scalar x/d for ints x and d, d a unit of the field."""
        raise NotImplementedError

    def products(self, rows: Sequence[Sequence[int]], cols: Sequence[Sequence[int]]) -> list[int]:
        """The dot product of each int row with each int column, row-major,
        as the ints that hold the field's scalars."""
        raise NotImplementedError

    def dots(
        self, rows: Sequence[Sequence[Scalar]], cols: Sequence[Sequence[Scalar]]
    ) -> list[Scalar]:
        """The dot product of each row with each column, row-major, as
        canonical scalars: the entries of the product rows · cols."""
        raise NotImplementedError

    def eliminate(self, rows: list[list[int]], ncols: int) -> list[int]:
        """Gauss-Jordan on int rows in place; returns the pivot columns.
        Row k < rank ends as row k of the reduced row echelon form R times
        its pivot entry, and the rows below it as zeros."""
        raise NotImplementedError

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

    def parse(self, text: str) -> Fraction:
        s = text.strip()
        if not _RAT_RE.match(s):
            raise ParseError(f"bad rational scalar {text!r}", scalar=text)
        num, _, den = s.partition("/")
        den = int_from_decimal(den) if den else 1
        if den == 0:
            raise ParseError(f"zero denominator in {text!r}", scalar=text)
        return Fraction(int_from_decimal(num), den)

    def clear(self, v, d=None):
        dens = list(map(_denominator, v))
        if d is None:
            d = lcm(*dens)
            if d == 1:
                return 1, list(map(_numerator, v))
        return d, [x * (d // e) for x, e in zip(map(_numerator, v), dens)]

    def lift(self, x, d):
        # a Fraction of one int needs no gcd
        return Fraction(x) if d == 1 or not x else Fraction(x, d)

    def products(self, rows, cols):
        return [sum(map(mul, r, c)) for r in rows for c in cols]

    def dots(self, rows, cols):
        """Each row and each column is cleared of denominators once, and
        each entry is the lift of an int dot product over the two."""
        clear, lift = self.clear, self.lift
        cleared_cols = [clear(c) for c in cols]
        return [lift(sum(map(mul, r, c)), dr * dc)
                for dr, r in map(clear, rows) for dc, c in cleared_cols]

    def eliminate(self, rows, ncols):
        """Fraction-free Gauss-Jordan: row k < rank ends as an integer
        multiple of row k of R.

        Each column pivots on its entry of smallest magnitude among the rows
        not yet used, and the first +-1 ends the search.  A row whose entry f
        the pivot pv divides loses f/pv times the pivot row, along the pivot
        row's nonzero entries only.  Any other row becomes a*row - b*prow,
        where a/b = pv/f in lowest terms, and is divided by its content, so
        entries stay small.
        """
        nrows = len(rows)
        pivots: list[int] = []
        r = 0
        for c in range(ncols):
            best = size = 0
            for i in range(r, nrows):
                x = rows[i][c]
                if x and (not size or abs(x) < size):
                    best, size = i, abs(x)
                    if size == 1:
                        break
            if not size:
                continue
            prow = rows[best]
            rows[r], rows[best] = prow, rows[r]
            pv = prow[c]
            nz = [(j, y) for j, y in enumerate(prow) if y]
            for i, row in enumerate(rows):
                f = row[c]
                if f and i != r:
                    q, rem = divmod(f, pv)
                    if rem:
                        g = gcd(pv, f)
                        a, b = pv // g, f // g
                        row = [a * x - b * y for x, y in zip(row, prow)]
                        g = gcd(*row)
                        rows[i] = [x // g for x in row] if g > 1 else row
                    else:
                        for j, y in nz:
                            row[j] -= q * y
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        return pivots

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

    def clear(self, v, d=None):
        if d is None:
            return 1, list(v)
        p = self.characteristic
        return d, [x * d % p for x in v]

    def lift(self, x, d):
        p = self.characteristic
        return x % p if d == 1 else x * pow(d, -1, p) % p

    def products(self, rows, cols):
        """Each entry is one int dot product, reduced once."""
        p = self.characteristic
        return [sum(map(mul, r, c)) % p for r in rows for c in cols]

    # residues are their own ints
    dots = products

    def eliminate(self, rows, ncols):
        """Gauss-Jordan on residue rows, pivoting on the first nonzero entry
        down each column; pivots end as 1, so the rows are those of R.

        Each update loops over the pivot row's nonzero entries only, since the
        intertwining systems are sparse.
        """
        p = self.characteristic
        nrows = len(rows)
        pivots: list[int] = []
        r = 0
        for c in range(ncols):
            for i in range(r, nrows):
                if rows[i][c]:
                    break
            else:
                continue
            prow = rows[i]
            rows[r], rows[i] = prow, rows[r]
            pv = prow[c]
            if pv != 1:
                inv = pow(pv, -1, p)
                prow[:] = [x * inv % p for x in prow]
            nz = [(j, y) for j, y in enumerate(prow) if y]
            for row in rows:
                f = row[c]
                if f and row is not prow:
                    for j, y in nz:
                        row[j] = (row[j] - f * y) % p
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        return pivots

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
