import random
from fractions import Fraction

import pytest

from rootmat.scalar import PHI, SQRT5, QuadExt, galois, scalar_sign


def test_rational_addition():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_golden_ratio_minimal_polynomial():
    assert PHI * PHI == PHI + 1
    assert PHI * PHI == QuadExt.of(Fraction(3, 2), Fraction(1, 2))


def test_sqrt5_inverse():
    assert SQRT5.inverse() == QuadExt.of(0, Fraction(1, 5))
    assert SQRT5 * SQRT5.inverse() == QuadExt.of(1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QuadExt.of(1) / QuadExt.of(0)


def test_galois_of_phi():
    assert galois(PHI) == QuadExt.of(Fraction(1, 2), Fraction(-1, 2))


def _random_quad(rng):
    return QuadExt.of(
        Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
        Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
    )


def test_field_axioms_random_triples():
    rng = random.Random(12345)
    one = QuadExt.of(1)
    for _ in range(1000):
        x, y, z = (_random_quad(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if x:
            assert x * x.inverse() == one


def test_galois_is_involutive_ring_hom():
    rng = random.Random(999)
    for _ in range(300):
        x, y = _random_quad(rng), _random_quad(rng)
        assert galois(galois(x)) == x
        assert galois(x * y) == galois(x) * galois(y)
        assert galois(x + y) == galois(x) + galois(y)


def test_sign_cases():
    assert scalar_sign(QuadExt.of(0)) == 0
    assert PHI.sign() == 1
    assert galois(PHI).sign() == -1  # (1 - sqrt5)/2 < 0
    # opposite-component signs resolved by comparing a^2 with 5 b^2
    assert QuadExt.of(3, -1).sign() == 1  # 9 > 5
    assert QuadExt.of(2, -1).sign() == -1  # 4 < 5
    assert QuadExt.of(-3, 1).sign() == -1
    assert QuadExt.of(-2, 1).sign() == 1


def test_ordering():
    assert QuadExt.of(0) < PHI < QuadExt.of(2) < SQRT5
