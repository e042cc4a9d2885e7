import hashlib
import itertools
import json
import random
from math import factorial

import pytest

from perm_helpers import reflection_perm
from reference_field import ONE, PHI, canonical_line, field_vectors
from reference_permgrp import bsgs
from rootmat.linmatroid import circuits3, matroid_of, rank
from rootmat.permgrp import compose, is_identity
from rootmat.rootsystems import (
    F4_DUALITY_MATRIX,
    RootSystem,
    _line_perm,
    _positive,
    build,
    combine,
    direct_sum,
    dot,
    extra_symmetry_perms,
    known_group_generators,
    line_key,
    parse_system_id,
    perm_from_linear_map,
    reflection,
    simple_reflections,
)
from rootmat.verify import default_table_ids


def _key(*coords):
    """The stored line through the rational vector coords."""
    return line_key(coords + (0,) * len(coords))


def _field(*coords):
    """The reference representative of the line through the rational vector coords."""
    return canonical_line(field_vectors([coords + (0,) * len(coords)])[0])


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
        assert len({canonical_line(v) for v in field_vectors(s.lines)}) == s.num_lines
        # each stored line is already its own key
        for v in s.lines:
            assert line_key(v) == v


def test_canonical_first_nonzero_positive():
    # the first nonzero coordinate of a stored line is a positive integer
    for sid in ["B5", "E7", "H4"]:
        s = parse_system_id(sid)
        n = s.ambient_dim
        for v in s.lines:
            i = next(k for k in range(n) if v[k] or v[n + k])
            assert v[i] > 0 and v[n + i] == 0


def test_canonical_rejects_zero():
    with pytest.raises(ValueError):
        line_key((0, 0, 0, 0))


def test_a2_reflection_swaps_other_lines():
    s = build("A", 2)
    # lines: e1-e2, e1-e3, e2-e3 in index order
    idx = s.line_index
    e12 = _key(1, -1, 0)
    p = reflection_perm(s, idx[e12])
    assert p[idx[e12]] == idx[e12]
    others = [i for i in range(3) if i != idx[e12]]
    assert p[others[0]] == others[1] and p[others[1]] == others[0]


def test_b2_reflection_in_e1():
    s = build("B", 2)
    idx = s.line_index
    e1, e2, plus, minus = _key(1, 0), _key(0, 1), _key(1, 1), _key(1, -1)
    p = reflection_perm(s, idx[e1])
    assert p[idx[e1]] == idx[e1] and p[idx[e2]] == idx[e2]
    assert p[idx[plus]] == idx[minus] and p[idx[minus]] == idx[plus]


def test_reflections_are_involutions():
    for sid in ["A3", "B3", "D4", "F4", "H3"]:
        s = parse_system_id(sid)
        for i in range(s.num_lines):
            p = reflection_perm(s, i)
            assert is_identity(compose(p, p))


def test_d5_sign_flip_example():
    s = build("D", 5)
    idx = s.line_index
    fixed, plus, minus = _key(0, 1, 1, 0, 0), _key(1, 1, 0, 0, 0), _key(1, -1, 0, 0, 0)
    (p,) = extra_symmetry_perms(s)
    assert p[idx[fixed]] == idx[fixed]
    assert p[idx[plus]] == idx[minus]


@pytest.mark.parametrize("n", range(2, 10))
def test_b_sign_flip_lies_in_the_known_group(n):
    # e1 -> -e1 is the reflection in the stored line e1, so B_n needs no extra generator
    s = build("B", n)
    flip = _ref_perm(s, lambda v: (-v[0],) + tuple(v[1:]))
    assert extra_symmetry_perms(s) == []
    assert bsgs(known_group_generators(s), degree=s.num_lines).contains(flip)


def test_f4_duality_matrix_permutes_lines():
    s = build("F4")
    lines = {canonical_line(v) for v in field_vectors(s.lines)}
    images = set()
    for v in field_vectors(s.lines):
        w = canonical_line(_ref_apply_matrix(F4_DUALITY_MATRIX, v))
        assert w in lines  # brute-force check that M maps lines to lines
        images.add(w)
    assert len(images) == 24
    e1, e2 = _field(1, 0, 0, 0), _field(0, 1, 0, 0)
    plus, minus = _field(1, 1, 0, 0), _field(1, -1, 0, 0)
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
    lines = {canonical_line(v) for v in field_vectors(s.lines)}
    raw = {canonical_line(tuple(c.conj() for c in v)) for v in field_vectors(s.lines)}
    mirrored = {canonical_line((v[0], v[2], v[1])) for v in raw}
    assert raw != lines
    assert mirrored == lines


def _ref_h_roots(family):
    """The H3 or H4 roots over the reference field, in the order the builder takes them."""
    zero, signs = ONE - ONE, list(itertools.product((1, -1), repeat=int(family[1])))
    if family == "H3":
        # cyclic shifts of (0, 0, 2 phi) and of (+-1, +-phi, +-phi^2)
        base = (ONE, PHI, PHI * PHI)
        roots = []
        for shift in range(3):
            roots.append(tuple(2 * PHI if k == shift else zero for k in range(3)))
            roots += [tuple(s[k] * base[(k + shift) % 3] for k in range(3)) for s in signs]
        return roots
    # +-2 e_i, (+-1, +-1, +-1, +-1) and the even permutations of (0, +-1, +-1/phi, +-phi)
    roots = [tuple(2 * s * ONE if k == i else zero for k in range(4))
             for i in range(4) for s in (1, -1)]
    roots += [tuple(c * ONE for c in s) for s in signs]
    pattern = (zero, ONE, 1 / PHI, PHI)
    for perm in itertools.permutations(range(4)):
        if sum(x > y for x, y in itertools.combinations(perm, 2)) % 2 == 0:
            roots += [tuple(s[k] * pattern[perm[k]] for k in range(4)) for s in signs]
    return roots


@pytest.mark.parametrize("family", ["H3", "H4"])
def test_h_lines_match_the_reference_field_roots(family):
    # the integer (a | b) build finds the same lines, in the same order, as
    # the textbook golden-ratio roots over Q(sqrt 5)
    want = list(dict.fromkeys(canonical_line(r) for r in _ref_h_roots(family)))
    assert [canonical_line(v) for v in field_vectors(build(family).lines)] == want


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


@pytest.mark.parametrize("sid", default_table_ids() + ["Dprime4", "E6+A1", "A2+I2_5", "H3+B2"])
def test_rank_is_the_matroid_rank(sid):
    s = parse_system_id(sid)
    assert s.rank == rank(matroid_of(s), range(s.num_lines))


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


def _dihedral(m):
    """The dihedral pair k -> k + 1, k -> -k on the m line indices of I2(m)."""
    return [tuple((k + 1) % m for k in range(m)), tuple(-k % m for k in range(m))]


@pytest.mark.parametrize("m", range(5, 13))
def test_i2_known_group_is_dihedral(m):
    # the dihedral group lies in K(I2(m)), which at rank 2 is all of Sym(X)
    group = bsgs(known_group_generators(build("I2", m)), degree=m)
    assert group.order() == factorial(m)
    assert all(group.contains(g) for g in _dihedral(m))


@pytest.mark.parametrize("sid", ["A1", "A2", "B2"])
def test_rank_two_known_group_is_symmetric(sid):
    # an n-cycle and a transposition on the line indices, none for one line
    s = parse_system_id(sid)
    gens = known_group_generators(s)
    assert len(gens) == (2 if s.num_lines > 1 else 0)
    assert bsgs(gens, degree=s.num_lines).order() == factorial(s.num_lines)


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
        tuple(-c for c in x) if rng.random() < 0.5 else x for x in s.lines
    )
    # reflections computed from non-canonical representatives still induce
    # the same line permutations
    for i in range(s.num_lines):
        assert reflection_perm(s, i) == perm_from_linear_map(s, reflection(flipped[i]))


# -- reference: field reflections and canonical_line lookup (tests/reference_field.py) --

COORDINATE_TABLE_IDS = [sid for sid in default_table_ids() if not sid.startswith("I2")]


def _ref_dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _ref_reflect(w, v):
    coef = 2 * _ref_dot(w, v) / _ref_dot(v, v)
    return tuple(a - coef * b for a, b in zip(w, v))


def _ref_apply_matrix(mat, v):
    return tuple(sum(row[c] * v[c] for c in range(len(v))) for row in mat)


def _ref_perm(system, image):
    lines = field_vectors(system.lines)
    index = {canonical_line(v): i for i, v in enumerate(lines)}
    return tuple(index[canonical_line(image(v))] for v in lines)


def _ref_extra_symmetries(system):
    fam, n = system.family, system.rank_param
    if fam == "D" and n >= 5:
        return [_ref_perm(system, lambda v: (-v[0],) + tuple(v[1:]))]
    if fam in ("D", "Dprime4"):
        other = build("Dprime4") if fam == "D" else build("D", 4)
        return [_ref_perm(system, lambda w, v=v: _ref_reflect(w, v))
                for v in field_vectors(other.lines)]
    if fam == "F4":
        return [_ref_perm(system, lambda v: _ref_apply_matrix(F4_DUALITY_MATRIX, v))]
    if fam in ("H3", "H4"):
        def conj_swap(v):
            w = [c.conj() for c in v]
            w[-1], w[-2] = w[-2], w[-1]
            return tuple(w)
        return [_ref_perm(system, conj_swap)]
    return []


@pytest.mark.parametrize("sid", COORDINATE_TABLE_IDS)
def test_reflections_match_reference(sid):
    s = parse_system_id(sid)
    for i, v in enumerate(field_vectors(s.lines)):
        assert reflection_perm(s, i) == _ref_perm(s, lambda w: _ref_reflect(w, v))


# every table id of rank >= 3, and some beyond the table
ROW_MAP_IDS = [sid for sid in default_table_ids() if parse_system_id(sid).rank >= 3]
ROW_MAP_IDS += ["Dprime4", "B9", "D10", "D16"]


@pytest.mark.parametrize("sid", ROW_MAP_IDS)
def test_extra_symmetries_match_reference(sid):
    s = parse_system_id(sid)
    assert extra_symmetry_perms(s) == _ref_extra_symmetries(s)


# sha256 prefix of json.dumps(known_group_generators(R), separators=(",", ":")),
# recorded when the extra symmetries were branches on the family name
PINNED_KNOWN_GENERATORS = {
    "A3": "892a0e84b87e00d1",
    "A4": "7cbd6741f597f93e",
    "A5": "7e523fcadda415c9",
    "A6": "1952c08b49b5c0a7",
    "A7": "632b9f0cf65d95ae",
    "B3": "53dadb8372eb803b",
    "B4": "9501b24f333ce485",
    "B5": "0a9633439045f3e9",
    "B6": "f266b51781352051",
    "B7": "5944709dacb7012c",
    "D4": "326e05b7bdbd657e",
    "D5": "88d9ab31f875badc",
    "D6": "d0d4254671419ab8",
    "D7": "8ea0cb4604865358",
    "E6": "96e5561aec213d18",
    "E7": "131e06d19e329b0d",
    "E8": "fc13854d80c58c55",
    "F4": "3db4000431bb7c39",
    "H3": "79af0a962ef0e1fa",
    "H4": "8d796abe0d1226bd",
    "Dprime4": "10d5a78993dfefc8",
    "B9": "c6bcd7de4c2b93fe",
    "D10": "ed6e3d7cf4756954",
    "D16": "8cd7bff9c539f44d",
}


@pytest.mark.parametrize("sid", ROW_MAP_IDS)
def test_known_group_generators_match_the_pinned_lists(sid):
    blob = json.dumps(known_group_generators(parse_system_id(sid)), separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest()[:16] == PINNED_KNOWN_GENERATORS[sid]


def test_line_key_is_invariant_under_field_scaling():
    # x * (p + q*sqrt5) on (a | b) is (a p + 5 b q | a q + b p)
    h4 = build("H4")
    for x in h4.lines:
        a, b = x[:4], x[4:]
        for p, q in [(-7, 0), (2, 3), (0, -1), (1, -1)]:
            y = [u * p + 5 * w * q for u, w in zip(a, b)] + [u * q + w * p for u, w in zip(a, b)]
            assert line_key(y) == line_key(x)
    assert len({line_key(x) for x in h4.lines}) == h4.num_lines


def test_perm_from_linear_map_rejects_non_symmetries():
    s = build("A", 3)
    stretch = lambda x: (2 * x[0],) + x[1:]
    with pytest.raises(ValueError, match="does not preserve the line set"):
        perm_from_linear_map(s, stretch)
    with pytest.raises(ValueError, match="not a bijection"):
        perm_from_linear_map(s, lambda x: s.lines[0])


# -- parent-pinned build: one SHA-256 per system over the old Fraction/QuadExt path's output --

# sha256 of json.dumps([degree, rows, C3, K(R) generators], separators=(",", ":")),
# recorded with the Fraction/QuadExt construction that the integer (a | b)
# build replaced; a direct sum has no K(R) generators here ([]).
PINNED_BUILD_SHA256 = {
    "A1": "796c2c2b007b70b51615ee8a7f19f72d0e705ac86d7075e4a9dfc8adaf7ed1d5",
    "A2": "4439303b0e7654cb49356434724bce3c4962029f271d86426e7411a00aeecd5a",
    "A3": "ba182e346096651dfe2eeba6f84e7e02f9d54b5a0507e96e28c3df8674a77fd0",
    "A4": "b1142441994e42d9488af16903832929ea461bd892847ec84ee4ba5e15dffc64",
    "A5": "d98c4c6419e3eb536a80759dd5af80f93724026efbed0153f0acb18d1f1ed2f0",
    "A6": "fc855d30a71e638f14df07bb703d43584b7c27878ef0a1a4e8d290d6f516b14b",
    "A7": "4db660c32e588b71dc09f125603b09eb7e848d854bdd87e4932a71657ddbecfa",
    "B2": "baf2c60ee24eb4ca96aed717c4153be155310034e3f879c727f933f29d3efbd1",
    "B3": "bf479162f1eb966e75560919a07305cd14bf6d037fc081c861ed19f7fccbf9b3",
    "B4": "d7532b1c30af95082eef604e05a4426607dbe97e3d2e38f5c4c2ab8c05ef55f6",
    "B5": "913bff82aa6ae40c08229578b673eae9a211db5526d249b911cfa109092b8e0c",
    "B6": "86be77147293333f626c53676fb67fb1cd806bbcba6c447128cd6b3f4a6348d2",
    "B7": "a19e22a3b7dfdbfcd4cb3984319528c213c0444185f9b48c4229ccf296b1acf9",
    "D4": "ad9e2b0bacbd55cbe28dc8792a15900597b129a38980d9581b853dc26fe1c5e4",
    "D5": "6f5275bee7738048caafdc409c2cb3837c06d858b33e5b13763edeb3274d522b",
    "D6": "bed9bc5b7396dcf08441741d495af5d601ff8c0fa5d35560b41abf91c9177a3e",
    "D7": "943f84e363dbcbce6a827bff7d845e9998b700823e670fdf17f2d6f821a522a1",
    "E6": "c355f86a9b44fdd639c8403748677e88988ae334383a0ed9cb38a19d18bd6868",
    "E7": "bfe650310f2575ce5bb9d8d190bcfa8eb6098adbdea3b78816e4d92d96b3e4d6",
    "E8": "c580cd5021516b1885c9004315ca86d3fb8ac4f938480ea53fb6ee68f28e40ab",
    "F4": "a85c9d2801a46e5aa0beed21339bbc40cd7b602c3e0de2efbcbd282de30ce646",
    "H3": "bd785d59497ac1253135f003b8da86e209dcc840d0b1479c1ed21f3c193871fd",
    "H4": "ef5f3e10b47f1f5c09d5a9f4bbd5995462513f934dad27dedfea354c0059b962",
    "I2_5": "cc362f92262b4959615425bc481ad267ce5ecff79b7fb275bda56d7ec9db2488",
    "I2_6": "db599f1b1b5a6dd0d9791d7b256489a6b270d203df013d1a977aa4309ccd4486",
    "I2_7": "914280a995bfd02388ba2343b46b82ed192fb7cca613df9136ba03d6d2861e8d",
    "I2_8": "5a2e6058ecf618300eee9818b1c3e3d230daab03e26292ea933105726db9c66b",
    "I2_9": "b3352d11df50d859024448d736ce563ea2c422ee17f8bbcf2651931449414b1b",
    "I2_10": "08a16762ab7c250215e653cee48f195fcea6675a3cd1f5ee53485d7bf4559376",
    "I2_11": "080541b21f7d10eda797e26ab5e1a79cde3c08e1f87efd196d795b5ff3849637",
    "I2_12": "710d75f3ef20c5a7a3b6960be8cd56f49c5b63219ed4ffec13e7096d4fccdd2d",
    "I2_16": "3ef1e9beae7724554ee16cee46e535ae419f65067ce5b89c480731a80f5c6114",
    "I2_20": "74884960260e9f450f043eb24879f75761491b92fd3afd2d1b9e25745c16ba11",
    "B9": "f56415db52cbca9e81583d650af48012afaa7bec4eb419e378f170d9b08dc8bb",
    "D10": "f32eebd6f4883a3ab8bf88cbe09fc9ef521ec2bfa47ff3e16e6736dc3a25dbc2",
    "Dprime4": "78edaba34f6fd5eef8406bee2a3bf4c2d61a2b9555ece342bbc4d0896cbbac8a",
    "A1+A2+B3": "0c941fad8c20286b9f50322eb596c93962f8633b4695a7cdb82f22988052e91d",
    "A3+A3": "a1a5569523f79ff020299dc8b790b447becdd705642e58e0653b8d2119051414",
    "H3+A1": "02dd0e9e346ee9e6efdea36aa6cf20ee308e7197527a5e3085d49302c44e9894",
    "A2+I2_5": "6909b743bad4799bb0f817cd00e524fe94f3fa2c0f4fdcdd0cc46b86775810d3",
    "H3+B2": "15fc648fbf009de450617db3189f4ca322b0766b3dc1d194dea2afa1255d7dcb",
    "D4+Dprime4": "e41d2ef743b5e862559bd3a05d0e64144ffcbb3a02221d431539f1d97821ca8f",
    "E6+A1": "4b85f8b668cf608f2a1f633e4eb918357c2124e3a4c252bbe91d7c101fb10402",
}


@pytest.mark.parametrize("sid", PINNED_BUILD_SHA256)
def test_build_matches_the_pinned_fraction_build(sid):
    s = parse_system_id(sid)
    m = matroid_of(s)
    # the generator list the hashes were pinned with: every reflection, then the extras
    if s.family == "DirectSum":
        gens = []
    elif s.family == "I2":
        gens = _dihedral(s.num_lines)
    else:
        gens = [reflection_perm(s, i) for i in range(s.num_lines)] + extra_symmetry_perms(s)
    if s.family == "B":  # pinned with the sign flip e1 -> -e1 as B's extra: the reflection in e1
        gens.append(reflection_perm(s, s.line_index[_key(1, *[0] * (s.rank_param - 1))]))
    blob = json.dumps([m.degree, m.rows, circuits3(s.lines), gens], separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED_BUILD_SHA256[sid]


def _full_sweep_simple_lines(system):
    """The reference: line i is simple when reflecting in it makes no other line negative."""
    lines = system.lines

    def simple(i, v):
        vv, dots = dot(v, v), ((x, dot(x, v)) for j, x in enumerate(lines) if j != i)
        return all(_positive(combine(vv, x, (2 * a, 2 * b), v))
                   for x, (a, b) in dots if _positive((a, b)))

    return [i for i, v in enumerate(lines) if simple(i, v)]


@pytest.mark.parametrize("sid", [sid for sid in default_table_ids()
                                 if parse_system_id(sid).rank >= 3]
                         + ["B9", "D10", "Dprime4", "B16", "D16"])
def test_simple_lines_match_the_full_sweep(sid):
    # trying the simple lines found so far as witnesses first, and stopping
    # at rank simple lines, changes no output
    system = parse_system_id(sid)
    assert [i for i, _ in simple_reflections(system)] == _full_sweep_simple_lines(system)


def _dense_simple_reflections(system):
    """`simple_reflections` with d = x.2v from `dot` over every coordinate, the reference."""
    lines, index, simple, n = system.lines, system.line_index, {}, system.num_lines
    for i, v in enumerate(lines):
        vv, v2, moved = dot(v, v), [2 * c for c in v], {}
        for j in itertools.chain(simple, (j for j in range(n) if j != i and j not in simple)):
            d = dot(lines[j], v2)
            if d != (0, 0):
                moved[j] = combine(vv, lines[j], d, v)
                if _positive(d) and not _positive(moved[j]):
                    break
        else:
            images = [index.get(line_key(moved[j])) if j in moved else j for j in range(n)]
            simple[i] = _line_perm(system, images)
            if len(simple) == system.rank:
                break
    return list(simple.items())


@pytest.mark.parametrize("sid", default_table_ids()
                         + ["B16", "D16", "A20", "Dprime4", "B24", "D24", "B32"])
def test_simple_reflections_match_the_dense_dot(sid):
    # the sparse x.2v over v's nonzero coordinates, the lead rule for witnesses
    # and the pairing of moved lines change no line or permutation
    system = parse_system_id(sid)
    assert simple_reflections(system) == _dense_simple_reflections(system)


@pytest.mark.parametrize("sid", [sid for sid in default_table_ids() if not sid.startswith("I2")]
                         + ["Dprime4", "B16", "D16", "A20"])
def test_simple_reflection_permutations_are_involutions(sid):
    for _, perm in simple_reflections(parse_system_id(sid)):
        assert is_identity(compose(perm, perm))


def _four_product_combine(s, x, t, v):
    """s*x - t*v with four Z[sqrt 5] products per coordinate, the reference for `combine`."""
    n = len(x) // 2
    (p, q), (r, w) = s, t
    return ([p * x[k] + 5 * q * x[n + k] - r * v[k] - 5 * w * v[n + k] for k in range(n)]
            + [q * x[k] + p * x[n + k] - w * v[k] - r * v[n + k] for k in range(n)])


@pytest.mark.parametrize("irrational", list(itertools.product((False, True), repeat=2)))
def test_combine_matches_the_four_product_formula(irrational):
    # rational scalars take one product pair per entry, on rational and Z[sqrt 5] vectors alike
    rng = random.Random(27)
    for _ in range(300):
        n = rng.randint(1, 8)
        x, v = ([rng.randint(-9, 9) if k < n or rng.random() < 0.5 else 0 for k in range(2 * n)]
                for _ in range(2))
        s, t = ((rng.randint(-9, 9), rng.choice((-2, -1, 1, 3)) if irr else 0) for irr in irrational)
        assert combine(s, x, t, v) == _four_product_combine(s, x, t, v)


@pytest.mark.parametrize("dropped", [0, 7, 19])
def test_known_group_rejects_a_line_set_missing_a_line(dropped):
    # a simple reflection sends some line onto the dropped one: its image is no line
    d5 = build("D", 5)
    lines = d5.lines[:dropped] + d5.lines[dropped + 1:]
    with pytest.raises(ValueError, match="map does not preserve the line set"):
        known_group_generators(RootSystem("D", 5, 5, lines))
