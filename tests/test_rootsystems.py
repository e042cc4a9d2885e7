import random
from fractions import Fraction

import pytest

from rootmat.permgrp import bsgs, compose, equal, is_identity
from rootmat.rootsystems import (
    F4_DUALITY_MATRIX,
    build,
    canonical_line,
    direct_sum,
    extra_symmetry_perms,
    known_group_generators,
    line_key,
    parse_system_id,
    perm_from_linear_map,
    reflection,
    reflection_perm,
)
from rootmat.scalar import galois
from rootmat.verify import default_table_ids


@pytest.mark.parametrize("family,n,lines", [
    ("A", 1, 1),
    ("A", 3, 6),
    ("A", 7, 28),
    ("B", 2, 4),
    ("B", 7, 49),
    ("D", 4, 12),
    ("D", 7, 42),
    ("Dprime4", None, 12),
    ("E6", None, 36),
    ("E7", None, 63),
    ("E8", None, 120),
    ("F4", None, 24),
    ("H3", None, 15),
    ("H4", None, 60),
    ("I2", 9, 9),
])
def test_line_counts(family, n, lines):
    assert build(family, n).num_lines == lines


def test_a3_ambient_dimension():
    assert build("A", 3).ambient_dim == 4


@pytest.mark.parametrize("family,n", [("A", 0), ("B", 1), ("D", 3), ("D", 2), ("I2", 4)])
def test_parameter_range_errors(family, n):
    with pytest.raises(ValueError):
        build(family, n)


def test_unknown_family():
    with pytest.raises(ValueError):
        build("G2")


def test_no_parallel_lines():
    for sid in ["A4", "B3", "D4", "F4", "E6", "H3"]:
        s = parse_system_id(sid)
        assert len(set(s.lines)) == s.num_lines
        # canonical form is idempotent and already applied
        for v in s.lines:
            assert canonical_line(v) == v
            assert canonical_line(canonical_line(v)) == canonical_line(v)


def test_canonical_first_nonzero_positive():
    from rootmat.scalar import scalar_sign
    for sid in ["B5", "E7", "H4"]:
        for v in parse_system_id(sid).lines:
            first = next(c for c in v if c)
            assert scalar_sign(first) > 0


def test_canonical_rejects_zero():
    with pytest.raises(ValueError):
        canonical_line((Fraction(0), Fraction(0)))


def test_a2_reflection_swaps_other_lines():
    s = build("A", 2)
    # lines: e1-e2, e1-e3, e2-e3 in index order
    idx = {v: i for i, v in enumerate(s.lines)}
    e12 = canonical_line((Fraction(1), Fraction(-1), Fraction(0)))
    p = reflection_perm(s, idx[e12])
    assert p[idx[e12]] == idx[e12]
    others = [i for i in range(3) if i != idx[e12]]
    assert p[others[0]] == others[1] and p[others[1]] == others[0]


def test_b2_reflection_in_e1():
    s = build("B", 2)
    idx = {v: i for i, v in enumerate(s.lines)}
    e1 = canonical_line((Fraction(1), Fraction(0)))
    e2 = canonical_line((Fraction(0), Fraction(1)))
    plus = canonical_line((Fraction(1), Fraction(1)))
    minus = canonical_line((Fraction(1), Fraction(-1)))
    p = reflection_perm(s, idx[e1])
    assert p[idx[e1]] == idx[e1] and p[idx[e2]] == idx[e2]
    assert p[idx[plus]] == idx[minus] and p[idx[minus]] == idx[plus]


def test_reflections_are_involutions():
    for sid in ["A3", "B3", "D4", "F4", "H3"]:
        s = parse_system_id(sid)
        for i in range(s.num_lines):
            p = reflection_perm(s, i)
            assert is_identity(compose(p, p))


def test_b3_sign_flip_example():
    s = build("B", 3)
    idx = {v: i for i, v in enumerate(s.lines)}
    e1 = canonical_line((Fraction(1), Fraction(0), Fraction(0)))
    plus = canonical_line((Fraction(1), Fraction(1), Fraction(0)))
    minus = canonical_line((Fraction(1), Fraction(-1), Fraction(0)))
    (p,) = extra_symmetry_perms(s)
    assert p[idx[e1]] == idx[e1]
    assert p[idx[plus]] == idx[minus]


def test_f4_duality_matrix_permutes_lines():
    s = build("F4")
    idx = {v: i for i, v in enumerate(s.lines)}
    images = set()
    for v in s.lines:
        w = canonical_line(_ref_apply_matrix(F4_DUALITY_MATRIX, v))
        assert w in idx  # brute-force check that M maps lines to lines
        images.add(w)
    assert len(images) == 24
    e1 = canonical_line(tuple(Fraction(c) for c in (1, 0, 0, 0)))
    e2 = canonical_line(tuple(Fraction(c) for c in (0, 1, 0, 0)))
    plus = canonical_line(tuple(Fraction(c) for c in (1, 1, 0, 0)))
    minus = canonical_line(tuple(Fraction(c) for c in (1, -1, 0, 0)))
    assert canonical_line(_ref_apply_matrix(F4_DUALITY_MATRIX, plus)) == e1
    assert canonical_line(_ref_apply_matrix(F4_DUALITY_MATRIX, minus)) == e2


def test_h_galois_symmetry_closes_on_lines():
    # extra_symmetry_perms verifies internally that the Galois-induced map
    # is a bijection on the line set; a failure would raise.
    for sid in ["H3", "H4"]:
        s = parse_system_id(sid)
        (p,) = extra_symmetry_perms(s)
        assert sorted(p) == list(range(s.num_lines))
        assert is_identity(compose(p, p))  # involution


def test_h3_raw_galois_mirrors_the_line_set():
    # Coordinatewise conjugation alone does NOT fix this coordinate choice
    # of the 15 lines; it lands on the mirror image (swap of two axes).
    s = build("H3")
    lines = set(s.lines)
    raw = {canonical_line(tuple(galois(c) for c in v)) for v in s.lines}
    mirrored = {canonical_line((v[0], v[2], v[1])) for v in raw}
    assert raw != lines
    assert mirrored == lines


@pytest.mark.parametrize("spec,count,dim", [
    ("A1+A1", 2, 4),
    ("A2+A2", 6, 6),
    ("A2+B2", 7, 5),
    ("A1+A1+A1", 3, 6),
])
def test_direct_sums(spec, count, dim):
    s = parse_system_id(spec)
    assert s.num_lines == count
    assert s.ambient_dim == dim


def test_direct_sum_admits_i2_and_rejects_singletons():
    s = parse_system_id("A2+I2_5")
    assert s.num_lines == 8
    assert s.rank == 4
    with pytest.raises(ValueError):
        direct_sum([build("A", 2)])


@pytest.mark.parametrize("sid,order", [
    ("A3", 24),
    ("B3", 24),
    ("D4", 576),
    ("F4", 1152),
    ("H3", 120),
])
def test_known_group_orders(sid, order):
    s = parse_system_id(sid)
    assert bsgs(known_group_generators(s)).order() == order


@pytest.mark.parametrize("m", range(5, 13))
def test_i2_known_group_is_dihedral(m):
    group = bsgs(known_group_generators(build("I2", m)), degree=m)
    rotation = tuple((k + 1) % m for k in range(m))
    reflection = tuple(-k % m for k in range(m))
    assert group.order() == 2 * m
    assert equal(group, bsgs([rotation, reflection], degree=m))


def test_known_generators_are_bijections():
    for sid in ["A4", "D5", "F4", "H3"]:
        s = parse_system_id(sid)
        for g in known_group_generators(s):
            assert sorted(g) == list(range(s.num_lines))


def test_parse_system_id_round_trip():
    for sid in ["A3", "B5", "D4", "E8", "F4", "H3", "H4", "I2_7", "A2+A2+B3"]:
        assert parse_system_id(sid).system_id == sid
    with pytest.raises(ValueError):
        parse_system_id("Z9")


def test_representative_flip_does_not_change_known_group():
    # group orders are representative-independent: negate some lines and
    # rebuild the reflection permutations from scratch
    s = build("A", 3)
    rng = random.Random(3)
    flipped = tuple(
        tuple(-c for c in x) if rng.random() < 0.5 else x for x in s.integer_lines
    )
    # reflections computed from non-canonical representatives still induce
    # the same line permutations
    for i in range(s.num_lines):
        assert reflection_perm(s, i) == perm_from_linear_map(s, reflection(flipped[i]))


# -- reference: plain Fraction/QuadExt reflections and canonical_line lookup --

COORDINATE_TABLE_IDS = [sid for sid in default_table_ids() if not sid.startswith("I2")]


def _ref_dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _ref_reflect(w, v):
    coef = 2 * _ref_dot(w, v) / _ref_dot(v, v)
    return tuple(a - coef * b for a, b in zip(w, v))


def _ref_apply_matrix(mat, v):
    return tuple(sum(Fraction(row[c]) * v[c] for c in range(len(v))) for row in mat)


def _ref_perm(system, image):
    index = {v: i for i, v in enumerate(system.lines)}
    return tuple(index[canonical_line(image(v))] for v in system.lines)


def _ref_extra_symmetries(system):
    fam, n = system.family, system.rank_param
    if fam in ("B", "D") and (fam, n) != ("D", 4):
        return [_ref_perm(system, lambda v: (-v[0],) + tuple(v[1:]))]
    if fam in ("D", "Dprime4"):
        other = build("Dprime4") if fam == "D" else build("D", 4)
        return [_ref_perm(system, lambda w, v=v: _ref_reflect(w, v)) for v in other.lines]
    if fam == "F4":
        return [_ref_perm(system, lambda v: _ref_apply_matrix(F4_DUALITY_MATRIX, v))]
    if fam in ("H3", "H4"):
        def conj_swap(v):
            w = [galois(c) for c in v]
            w[-1], w[-2] = w[-2], w[-1]
            return tuple(w)
        return [_ref_perm(system, conj_swap)]
    return []


@pytest.mark.parametrize("sid", COORDINATE_TABLE_IDS)
def test_reflections_match_reference(sid):
    s = parse_system_id(sid)
    for i, v in enumerate(s.lines):
        assert reflection_perm(s, i) == _ref_perm(s, lambda w: _ref_reflect(w, v))


@pytest.mark.parametrize("sid", ["D4", "Dprime4", "B5", "D5", "F4", "H3", "H4"])
def test_extra_symmetries_match_reference(sid):
    s = parse_system_id(sid)
    assert extra_symmetry_perms(s) == _ref_extra_symmetries(s)


def test_line_key_is_invariant_under_field_scaling():
    # x * (p + q*sqrt5) on (a | b) is (a p + 5 b q | a q + b p)
    h4 = build("H4")
    for x in h4.integer_lines:
        a, b = x[:4], x[4:]
        for p, q in [(-7, 0), (2, 3), (0, -1), (1, -1)]:
            y = [u * p + 5 * w * q for u, w in zip(a, b)] + [u * q + w * p for u, w in zip(a, b)]
            assert line_key(y) == line_key(x)
    assert len({line_key(x) for x in h4.integer_lines}) == h4.num_lines
    with pytest.raises(ValueError):
        line_key((0, 0, 0, 0))


def test_perm_from_linear_map_rejects_non_symmetries():
    s = build("A", 3)
    stretch = lambda x: (2 * x[0],) + x[1:]
    with pytest.raises(ValueError, match="does not preserve the line set"):
        perm_from_linear_map(s, stretch)
    with pytest.raises(ValueError, match="not a bijection"):
        perm_from_linear_map(s, lambda x: s.integer_lines[0])
