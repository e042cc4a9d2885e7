"""Reference arithmetic for differential tests: the field Q(sqrt 5) over Fraction.

rootmat itself works on integer vectors (a | b), coordinate k being
a_k + b_k*sqrt(5).  The tests check it against this plain field
arithmetic, which shares none of its integer tricks: `QuadExt` elements,
`canonical_line` (divide by the first nonzero coordinate) and
`field_vectors`, which reads integer vectors (a | b) as vectors over their
own field, Q or Q(sqrt 5).
"""

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class QuadExt:
    """Element a + b*sqrt(5) of Q(sqrt 5), with rational a and b."""

    a: Fraction
    b: Fraction = Fraction(0)

    def __add__(self, other):
        other = _coerce(other)
        return QuadExt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -_coerce(other)

    def __mul__(self, other):
        other = _coerce(other)
        return QuadExt(self.a * other.a + 5 * self.b * other.b,
                       self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def __neg__(self):
        return QuadExt(-self.a, -self.b)

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def inverse(self):
        # (a + b*sqrt5)(a - b*sqrt5) = a^2 - 5 b^2, nonzero for nonzero x
        # since sqrt(5) is irrational
        norm = self.a * self.a - 5 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt5)")
        return QuadExt(self.a / norm, -self.b / norm)

    def conj(self):
        """The field automorphism sqrt(5) -> -sqrt(5)."""
        return QuadExt(self.a, -self.b)


def _coerce(x):
    return x if isinstance(x, QuadExt) else QuadExt(Fraction(x))


ONE = QuadExt(Fraction(1))
SQRT5 = QuadExt(Fraction(0), Fraction(1))
PHI = QuadExt(Fraction(1, 2), Fraction(1, 2))  # the golden ratio (1 + sqrt 5) / 2


def field_vectors(vectors):
    """Integer vectors (a | b) as the vectors a + b*sqrt(5).

    The coordinates are Fractions when every b is zero, else QuadExt, so
    the rational systems keep the speed of plain Fraction arithmetic.
    """
    n = len(vectors[0]) // 2
    if not any(any(x[n:]) for x in vectors):
        return [tuple(Fraction(a) for a in x[:n]) for x in vectors]
    return [tuple(QuadExt(Fraction(a), Fraction(b)) for a, b in zip(x[:n], x[n:]))
            for x in vectors]


def canonical_line(vec):
    """vec scaled so its first nonzero coordinate is 1: one representative per line."""
    for x in vec:
        if x:
            return tuple(c / x for c in vec)
    raise ValueError("zero vector spans no line")
