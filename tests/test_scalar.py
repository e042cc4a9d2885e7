"""The reference field Q(sqrt 5) of the differential tests (tests/reference_field.py)."""

import random
from fractions import Fraction

import pytest

from reference_field import ONE, PHI, SQRT5, QuadExt


def _q(a, b=0):
    return QuadExt(Fraction(a), Fraction(b))


def test_golden_ratio_minimal_polynomial():
    assert PHI * PHI == PHI + 1
    assert PHI * PHI == _q(Fraction(3, 2), Fraction(1, 2))


def test_sqrt5_inverse():
    assert SQRT5.inverse() == _q(0, Fraction(1, 5))
    assert SQRT5 * SQRT5.inverse() == ONE


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / _q(0)


def test_galois_of_phi():
    assert PHI.conj() == _q(Fraction(1, 2), Fraction(-1, 2))


def _random_quad(rng):
    return _q(
        Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
        Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
    )


def test_field_axioms_random_triples():
    rng = random.Random(12345)
    for _ in range(1000):
        x, y, z = (_random_quad(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if x:
            assert x * x.inverse() == ONE


def test_galois_is_involutive_ring_hom():
    rng = random.Random(999)
    for _ in range(300):
        x, y = _random_quad(rng), _random_quad(rng)
        assert x.conj().conj() == x
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()

