"""Exact univariate and multivariate polynomials over Q and F_p.

UniPoly stores ascending coefficients with a nonzero leading coefficient
(the zero polynomial is the empty tuple).  Root extraction is complete over
the base field and runs on int coefficient lists, making scalars only for
the answer: over Q each a/b of the rational root test on the primitive
integer form, over F_p every residue, is tested and divided out by one
synthetic division by b·t - a, exact over Z or mod p.  Nothing here factors
into irreducibles; whatever has no base-field root is returned as the
cofactor.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Optional

from .errors import ArityMismatchError, MixedFieldsError, ParseError, ZeroPolyError
from .fields import Field, Scalar, int_from_decimal, int_to_decimal


@dataclass(frozen=True)
class UniPoly:
    field: Field
    coeffs: tuple[Scalar, ...]  # ascending degree, trailing entry nonzero

    @classmethod
    def make(cls, field: Field, coeffs: Iterable) -> "UniPoly":
        cs = [field.of(c) if isinstance(c, int) else c for c in coeffs]
        while cs and cs[-1] == field.zero():
            cs.pop()
        return cls(field, tuple(cs))

    @classmethod
    def zero(cls, field: Field) -> "UniPoly":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "UniPoly":
        return cls(field, (field.one(),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one()

    def _check(self, other: "UniPoly") -> None:
        if self.field != other.field:
            raise MixedFieldsError("polynomials over different fields")

    def __add__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [F.zero()] * (n - len(self.coeffs))
        b = list(other.coeffs) + [F.zero()] * (n - len(other.coeffs))
        return UniPoly.make(F, (F.add(x, y) for x, y in zip(a, b)))

    def __neg__(self) -> "UniPoly":
        F = self.field
        return UniPoly(F, tuple(F.neg(c) for c in self.coeffs))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        F = self.field
        if self.is_zero or other.is_zero:
            return UniPoly.zero(F)
        out = [F.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = F.add(out[i + j], F.mul(a, b))
        return UniPoly.make(F, out)

    def scale(self, s: Scalar) -> "UniPoly":
        F = self.field
        return UniPoly.make(F, (F.mul(s, c) for c in self.coeffs))

    def deflate(self, root: Scalar) -> "UniPoly":
        """Exact quotient by (t - root); root must actually be a root."""
        F = self.field
        if self.degree < 1:
            raise ZeroPolyError("cannot deflate a constant")
        q = [F.zero()] * self.degree
        acc = F.zero()
        for k in range(self.degree, 0, -1):
            acc = F.add(F.mul(acc, root), self.coeffs[k])
            q[k - 1] = acc
        rem = F.add(F.mul(acc, root), self.coeffs[0])
        if rem != F.zero():
            raise ValueError(f"{root!r} is not a root")
        return UniPoly.make(F, q)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        F = self.field
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == F.zero():
                continue
            if k == 0:
                term = F.format(c)
            else:
                var = "t" if k == 1 else f"t^{k}"
                term = var if c == F.one() else f"{F.format(c)}*{var}"
            parts.append(term)
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


def _divisors(m: int) -> list[int]:
    """All positive divisors of m >= 1, ascending (trial-division factorization)."""
    factors: dict[int, int] = {}
    f = 2
    while f * f <= m:
        while m % f == 0:
            factors[f] = factors.get(f, 0) + 1
            m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    divs = [1]
    for prime, exp in factors.items():
        divs = [d * prime**e for d in divs for e in range(exp + 1)]
    return sorted(divs)


def _candidates(c: list[int], p: int) -> Iterator[tuple[int, int]]:
    """Roots a/b to try on int coefficients c with c[0] != 0: every
    nonzero residue (b = 1) over F_p; over Q the root of a linear c, read
    off, else +-a/b in lowest terms with a | c[0] and b | c[-1] (b > 0)."""
    if p:
        yield from ((a, 1) for a in range(1, p))
    elif len(c) == 2:
        # read the root off, without factoring its coefficients
        a, b = -c[0], c[1]
        yield (-a, -b) if b < 0 else (a, b)
    else:
        for a in _divisors(abs(c[0])):
            for b in _divisors(abs(c[-1])):
                if gcd(a, b) == 1:
                    yield a, b
                    yield -a, b


def _divide_linear(c: list[int], a: int, b: int, p: int) -> Optional[list[int]]:
    """c / (b·t - a) by synthetic division, q[k-1] = (c[k] + a q[k]) / b,
    exact over Z or mod p (b = 1); None at the first remainder."""
    q = []
    acc = 0
    for x in reversed(c[1:]):
        acc = x + a * acc
        if p:
            acc %= p
        elif b != 1:
            acc, r = divmod(acc, b)
            if r:
                return None
        q.append(acc)
    r = c[0] + a * acc
    if (r % p if p else r):
        return None
    q.reverse()
    return q


def roots_with_multiplicity(f: UniPoly) -> tuple[list[tuple[Scalar, int]], UniPoly]:
    """All base-field roots with multiplicities, plus the exact unsplit cofactor.

    Returns (roots, cofactor) with roots sorted ascending and
    prod (t - root)^mult * cofactor == f exactly.  The cofactor has no root
    in the base field; it is not factored further.

    It runs on int lists: residues over F_p, and over Q the primitive
    integer form c, with f = (num/den)·c.  Low zero coefficients give the
    root 0; each candidate a/b is divided out as often as b·t - a divides
    c, and each division multiplies num by b.
    """
    if f.is_zero:
        raise ZeroPolyError("roots of the zero polynomial are undefined")
    F = f.field
    p = F.characteristic
    if p:
        c, num, den = list(f.coeffs), 1, 1
    else:
        den = lcm(*(x.denominator for x in f.coeffs))
        c = [x.numerator * (den // x.denominator) for x in f.coeffs]
        num = gcd(*c)
        c = [x // num for x in c]
    zeros = 0
    while not c[zeros]:
        zeros += 1
    found = [((0, 1), zeros)] if zeros else []
    c = c[zeros:]
    for a, b in _candidates(c, p):
        if len(c) == 1:
            break
        if not p and (c[0] % a or c[-1] % b):
            continue  # a root a/b of c has a | c[0] and b | c[-1]
        m = 0
        while len(c) > 1 and (q := _divide_linear(c, a, b, p)) is not None:
            c, m = q, m + 1
        if m:
            found.append(((a, b), m))
            num *= b**m
    if p:
        return sorted((a, m) for (a, _), m in found), UniPoly.make(F, c)
    roots = sorted((Fraction(a, b), m) for (a, b), m in found)
    return roots, UniPoly.make(F, [Fraction(x * num, den) for x in c])


@dataclass(frozen=True)
class MultiPoly:
    """Polynomial in nvars variables as a sorted tuple of (exponents, coeff) terms."""

    field: Field
    nvars: int
    terms: tuple[tuple[tuple[int, ...], Scalar], ...]

    @classmethod
    def make(cls, field: Field, nvars: int, terms: Mapping[tuple[int, ...], Scalar]) -> "MultiPoly":
        clean = {}
        for exps, coeff in terms.items():
            if len(exps) != nvars:
                raise ArityMismatchError(
                    f"exponent vector {exps} has length {len(exps)}, expected {nvars}"
                )
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            c = field.of(coeff) if isinstance(coeff, int) else coeff
            if c != field.zero():
                clean[tuple(exps)] = c
        return cls(field, nvars, tuple(sorted(clean.items())))

    @classmethod
    def constant(cls, field: Field, nvars: int, c) -> "MultiPoly":
        return cls.make(field, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, field: Field, nvars: int, i: int) -> "MultiPoly":
        """The coordinate x_i, 0-based."""
        if not 0 <= i < nvars:
            raise ArityMismatchError(f"variable index {i} out of range for {nvars} variables")
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls.make(field, nvars, {exps: 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        return format_multipoly(self)


_TERM_SPLIT = re.compile(r"(?=[+-])")
_VAR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_multipoly(text: str, field: Field, nvars: int) -> MultiPoly:
    """Parse sums of monomial terms like "x1^2*x2 - 3*x3 + 1/2".

    Variables are x1..x<nvars>; coefficients use the field's scalar syntax;
    no parentheses.
    """
    body = text.replace(" ", "")
    if not body:
        raise ParseError("empty polynomial", text=text)
    terms: dict[tuple[int, ...], Scalar] = {}
    for chunk in _TERM_SPLIT.split(body):
        if not chunk:
            continue
        sign = field.one()
        if chunk[0] == "+":
            chunk = chunk[1:]
        elif chunk[0] == "-":
            sign = field.neg(field.one())
            chunk = chunk[1:]
        if not chunk:
            raise ParseError(f"dangling sign in {text!r}", text=text)
        coeff = sign
        exps = [0] * nvars
        for factor in chunk.split("*"):
            m = _VAR_RE.match(factor)
            if m:
                idx = int_from_decimal(m.group(1))
                if not 1 <= idx <= nvars:
                    raise ParseError(
                        f"variable x{int_to_decimal(idx)} out of range 1..{nvars}", text=text
                    )
                exps[idx - 1] += int_from_decimal(m.group(2) or "1")
            else:
                coeff = field.mul(coeff, field.parse(factor))
        key = tuple(exps)
        terms[key] = field.add(terms.get(key, field.zero()), coeff)
    return MultiPoly.make(field, nvars, terms)


def format_multipoly(f: MultiPoly) -> str:
    if f.is_zero:
        return "0"
    F = f.field
    parts = []
    for exps, coeff in f.terms:
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(f"x{i + 1}")
            elif e > 1:
                factors.append(f"x{i + 1}^{int_to_decimal(e)}")
        if not factors or coeff != F.one():
            factors.insert(0, F.format(coeff))
        parts.append("*".join(factors))
    return " + ".join(parts).replace("+ -", "- ")
