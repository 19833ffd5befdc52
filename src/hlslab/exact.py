"""Exact rational-complex scalars for drift-free *-algebra arithmetic.

Coefficients in this package are either plain Python complex/float/int
(double mode) or Fraction / RationalComplex (exact mode).  RationalComplex
takes any of them on either side of +, - and *, so the algebra code uses
plain operators, abs and sum on mixed coefficients; the helpers below
cover conjugation and the real part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class RationalComplex:
    """Gaussian rational a + b*i with exact Fraction parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    @staticmethod
    def of(value) -> "RationalComplex":
        if isinstance(value, RationalComplex):
            return value
        if isinstance(value, complex):
            return RationalComplex(Fraction(value.real), Fraction(value.imag))
        return RationalComplex(Fraction(value))

    def __add__(self, other):
        o = RationalComplex.of(other)
        return RationalComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = RationalComplex.of(other)
        return RationalComplex(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return RationalComplex.of(other) - self

    def __mul__(self, other):
        o = RationalComplex.of(other)
        return RationalComplex(self.re * o.re - self.im * o.im,
                               self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __neg__(self):
        return RationalComplex(-self.re, -self.im)

    def conjugate(self):
        return RationalComplex(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __abs__(self):
        if not self.im:
            return abs(self.re)
        if not self.re:
            return abs(self.im)
        return math.hypot(float(self.re), float(self.im))

    def __eq__(self, other):
        if isinstance(other, RationalComplex):
            return self.re == other.re and self.im == other.im
        if isinstance(other, complex):
            return complex(self) == other
        return self.im == 0 and self.re == other

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))


def conj(c):
    """Complex conjugate for any supported coefficient type."""
    if isinstance(c, (RationalComplex, complex)):
        return c.conjugate()
    return c


def real_part(c):
    if isinstance(c, RationalComplex):
        return c.re
    if isinstance(c, complex):
        return c.real
    return c


def imag_part(c):
    if isinstance(c, RationalComplex):
        return c.im
    if isinstance(c, complex):
        return c.imag
    return 0


def is_exact(c) -> bool:
    return isinstance(c, (int, Fraction, RationalComplex))


def over_common_denominator(values: dict) -> tuple[dict, object]:
    """(values * d, d) with d the lcm of the denominators, a Fraction, so
    every scaled value is an int, when every value is an int or a
    Fraction; (values, 1) otherwise.  Exact sums of the scaled values are
    then int sums, and one division by d at the end undoes the scaling."""
    if not all(isinstance(v, (int, Fraction)) for v in values.values()):
        return values, 1
    d = math.lcm(*(v.denominator for v in values.values()))
    return ({k: v.numerator * (d // v.denominator)
             for k, v in values.items()}, Fraction(d))
