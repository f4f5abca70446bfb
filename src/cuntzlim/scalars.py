"""Exact Gaussian-rational scalars a + b*i with Fraction components.

Product rule: (a + b i)(c + d i) = (ac - bd) + (ad + bc) i takes four
Fraction products, but when one factor is real (d = 0, or b = 0) the
terms with its zero imaginary part vanish and the product is ac + bc i
(or ac + ad i), two Fraction products.  This is exact, not an
approximation: Fraction arithmetic has no signed zero and no rounding, so
x - 0 and x + 0 are x, and the shortcut returns the same parts, hence an
equal and equally hashed scalar.  Nearly every product on the hom and
parser paths is by a real coefficient (most often 1), so it halves their
Fraction multiplications.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rationalish = Union[int, Fraction, "GaussianRational"]


def _exact(v) -> Fraction:
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError("Gaussian-rational parts are int or Fraction, got %s" % type(v).__name__)


@dataclass(frozen=True)
class GaussianRational:
    re: Fraction
    im: Fraction

    def __post_init__(self):
        # Fraction(Fraction) builds a new object; arithmetic already hands
        # over Fractions, so only other values are converted (ints) or refused
        if not isinstance(self.re, Fraction):
            object.__setattr__(self, "re", _exact(self.re))
        if not isinstance(self.im, Fraction):
            object.__setattr__(self, "im", _exact(self.im))

    @staticmethod
    def of(v: Rationalish) -> "GaussianRational":
        if isinstance(v, GaussianRational):
            return v
        return GaussianRational(v, 0)

    def __add__(self, other: Rationalish) -> "GaussianRational":
        o = GaussianRational.of(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other: Rationalish) -> "GaussianRational":
        return self + (-GaussianRational.of(other))

    def __rsub__(self, other: Rationalish) -> "GaussianRational":
        return GaussianRational.of(other) + (-self)

    def __mul__(self, other: Rationalish) -> "GaussianRational":
        if not isinstance(other, (GaussianRational, int, Fraction)):
            return NotImplemented
        o = GaussianRational.of(other)
        # a real factor on either side: two products (see the module docstring)
        if not o.im:
            return GaussianRational(self.re * o.re, self.im * o.re)
        if not self.im:
            return GaussianRational(self.re * o.re, self.re * o.im)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Rationalish) -> "GaussianRational":
        o = GaussianRational.of(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return self * GaussianRational(o.re / d, -o.im / d)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __str__(self) -> str:
        """Text form read back by the parser: 1/2, -i, 3/2 i, (1 - 2 i)."""
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return "%s i" % self.im
        mag = abs(self.im)
        imag = "i" if mag == 1 else "%s i" % mag
        return "(%s %s %s)" % (self.re, "+" if self.im > 0 else "-", imag)


ZERO = GaussianRational(Fraction(0), Fraction(0))
ONE = GaussianRational(Fraction(1), Fraction(0))
IMAG = GaussianRational(Fraction(0), Fraction(1))
