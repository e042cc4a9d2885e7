"""Exact scalars: arbitrary-precision rationals and the quadratic field Q(sqrt 5).

Rationals are plain ``fractions.Fraction`` values (already canonical:
lowest terms, positive denominator).  ``QuadExt`` represents a + b*sqrt(5)
with rational a, b; the representation is unique so equality is
componentwise.  All operations are exact, there is no floating point
anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm


@dataclass(frozen=True)
class QuadExt:
    """Element a + b*sqrt(5) of Q(sqrt 5)."""

    a: Fraction
    b: Fraction

    @staticmethod
    def of(a, b=0) -> "QuadExt":
        return QuadExt(Fraction(a), Fraction(b))

    def __add__(self, other):
        other = _coerce(other)
        return QuadExt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return QuadExt(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return QuadExt(
            self.a * other.a + 5 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __neg__(self):
        return QuadExt(-self.a, -self.b)

    def inverse(self) -> "QuadExt":
        # (a + b*sqrt5)(a - b*sqrt5) = a^2 - 5 b^2, nonzero for nonzero x
        # since sqrt(5) is irrational.
        norm = self.a * self.a - 5 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt5)")
        return QuadExt(self.a / norm, -self.b / norm)

    def galois(self) -> "QuadExt":
        """The field automorphism sqrt(5) -> -sqrt(5)."""
        return QuadExt(self.a, -self.b)

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(5), computed over the rationals."""
        if self.b == 0:
            return _sign(self.a)
        if self.a == 0:
            return _sign(self.b)
        sa, sb = _sign(self.a), _sign(self.b)
        if sa == sb:
            return sa
        # Opposite signs: compare a^2 against 5 b^2; the larger term wins.
        d = self.a * self.a - 5 * self.b * self.b
        if d == 0:
            raise ArithmeticError("sqrt(5) is irrational; a^2 = 5 b^2 impossible")
        return sa if d > 0 else sb

    def __lt__(self, other):
        return (self - _coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - _coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - _coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - _coerce(other)).sign() >= 0

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r})"


def _coerce(x) -> QuadExt:
    if isinstance(x, QuadExt):
        return x
    if isinstance(x, (int, Fraction)):
        return QuadExt(Fraction(x), Fraction(0))
    return NotImplemented


def _sign(q: Fraction) -> int:
    return (q > 0) - (q < 0)


#: The golden ratio (1 + sqrt 5) / 2.
PHI = QuadExt(Fraction(1, 2), Fraction(1, 2))
SQRT5 = QuadExt(Fraction(0), Fraction(1))


def galois(x):
    """Galois conjugation; the identity on rationals."""
    if isinstance(x, QuadExt):
        return x.galois()
    return x


def scalar_sign(x) -> int:
    if isinstance(x, QuadExt):
        return x.sign()
    return _sign(Fraction(x))


def integer_parts(vec):
    """Integer vectors (a, b) with vec = (a + b*sqrt(5)) / d, d the common denominator."""
    parts = [(x.a, x.b) if isinstance(x, QuadExt) else (Fraction(x), Fraction(0)) for x in vec]
    scale = lcm(*(q.denominator for ab in parts for q in ab))
    return [int(x * scale) for x, _ in parts], [int(y * scale) for _, y in parts]
