import random
from math import factorial

import pytest

from perm_helpers import basic_orbit_lengths, perm_from_cycles, reflection_perm
from rootmat.graphauto import _first_path, automorphism_group, path_bound
from rootmat.incidencegraph import build_incidence
from rootmat.linmatroid import circuits3
from rootmat.permgrp import (
    bsgs,
    compose,
    cycle_notation,
    equal,
    identity,
    inverse,
    is_identity,
    is_subgroup,
)
from rootmat.rootsystems import build, known_group_generators, parse_system_id
from rootmat.verify import default_table_ids, expected_aut_order


def _sym_gens(n):
    return [perm_from_cycles(n, [[0, 1]]), perm_from_cycles(n, [list(range(n))])]


@pytest.mark.parametrize("n", range(2, 9))
def test_symmetric_group_orders(n):
    assert bsgs(_sym_gens(n)).order() == factorial(n)


def test_trivial_group():
    assert bsgs([], degree=5).order() == 1
    assert bsgs([identity(4)], degree=4).order() == 1


def test_empty_generators_need_degree():
    with pytest.raises(ValueError):
        bsgs([])


def test_order_multiplicative_on_disjoint_support():
    g1 = perm_from_cycles(8, [[0, 1, 2]])
    g2 = perm_from_cycles(8, [[3, 4], [5, 6]])
    assert bsgs([g1, g2]).order() == 3 * 2
    s3a = _sym_gens(3)
    s3b = [tuple(list(range(3)) + [x + 3 for x in g]) for g in _sym_gens(3)]
    s3a = [tuple(list(g) + [3, 4, 5]) for g in s3a]
    assert bsgs(s3a + s3b).order() == 36


def test_contains_identity_and_random_words():
    rng = random.Random(11)
    G = bsgs(_sym_gens(6))
    assert G.contains(identity(6))
    for _ in range(50):
        w = identity(6)
        for _ in range(rng.randint(1, 10)):
            w = compose(w, rng.choice(G.generators))
        assert G.contains(w)


def test_contains_rejects_outsiders():
    # A4 inside S4: odd permutations are not members
    a4 = bsgs([perm_from_cycles(4, [[0, 1, 2]]), perm_from_cycles(4, [[1, 2, 3]])])
    assert a4.order() == 12
    assert not a4.contains(perm_from_cycles(4, [[0, 1]]))


def test_subgroup_and_equal():
    s3 = bsgs(_sym_gens(3))
    h = bsgs([perm_from_cycles(3, [[0, 1]])])
    assert is_subgroup(h, s3)
    assert not is_subgroup(s3, h)
    other = bsgs([perm_from_cycles(3, [[1, 2]]), perm_from_cycles(3, [[0, 2]])])
    assert equal(s3, other)
    assert not equal(s3, h)


def test_degree_mismatch_errors():
    with pytest.raises(ValueError):
        is_subgroup(bsgs(_sym_gens(3)), bsgs(_sym_gens(4)))
    with pytest.raises(ValueError):
        bsgs(_sym_gens(3)).contains(identity(4))
    with pytest.raises(ValueError):
        bsgs([identity(3), identity(4)])


def test_order_equals_product_of_basic_orbits():
    G = bsgs(_sym_gens(7))
    lengths = basic_orbit_lengths(G)
    total = 1
    for l in lengths:
        total *= l
    assert total == G.order() == factorial(7)


def test_compose_inverse_roundtrip():
    rng = random.Random(2)
    for _ in range(20):
        p = tuple(rng.sample(range(9), 9))
        assert is_identity(compose(p, inverse(p)))
        assert is_identity(compose(inverse(p), p))


def test_cycle_notation():
    assert cycle_notation(identity(4)) == "()"
    assert cycle_notation(perm_from_cycles(5, [[0, 1, 2], [3, 4]])) == "(0 1 2)(3 4)"


def test_deterministic_construction():
    g1 = bsgs(_sym_gens(5))
    g2 = bsgs(_sym_gens(5))
    assert g1.base == g2.base
    assert basic_orbit_lengths(g1) == basic_orbit_lengths(g2)


def test_degree_one_and_zero():
    # itemgetter with one index returns a scalar; compose must still give a tuple
    assert compose((0,), (0,)) == (0,)
    assert compose((), ()) == ()
    assert inverse((0,)) == (0,)
    assert is_identity((0,)) and is_identity(())
    a1 = build("A", 1)
    g = bsgs(known_group_generators(a1), degree=a1.num_lines)
    assert g.order() == 1 and g.contains((0,))


def test_k_e8_bsgs_is_pinned():
    # K(E8) from all 120 reflections: base and basic orbits as first recorded
    e8 = build("E8")
    g = bsgs([reflection_perm(e8, i) for i in range(e8.num_lines)], degree=e8.num_lines)
    assert g.base == [2, 0, 4, 6, 8, 10, 1]
    assert basic_orbit_lengths(g) == [120, 56, 27, 16, 10, 6, 2]


def test_e8_graph_group_bsgs_is_pinned():
    # the E8 C3-graph group's generators, built with the smallest moved point as each base point
    e8 = build("E8")
    graph = build_incidence(e8.num_lines, circuits3(e8.lines))
    path = [min(p.cell(target)) for p, target in _first_path(graph)[0]]
    g = bsgs(automorphism_group(graph), degree=graph.num_vertices)
    assert path == [0, 120, 2, 1, 26, 36, 108, 51, 52]
    assert g.base == [8, 10, 6, 0, 4, 2, 1]
    assert basic_orbit_lengths(g) == [120, 56, 27, 16, 10, 6, 2]
    assert g.order() == 348364800


BOUNDED_IDS = [sid for sid in default_table_ids() if parse_system_id(sid).rank >= 3]
BOUNDED_IDS += ["B9", "D10", "Dprime4", "B16"]


def _k_and_bound(sid):
    """K(R)'s generators, its degree and the first-path bound of its C3 graph."""
    system = parse_system_id(sid)
    gens = known_group_generators(system)
    c3 = circuits3(system.lines, gens)
    return gens, system.num_lines, path_bound(build_incidence(system.num_lines, c3))


@pytest.mark.parametrize("sid", BOUNDED_IDS)
def test_bounded_k_has_the_unbounded_order(sid):
    gens, n, bound = _k_and_bound(sid)
    assert bsgs(gens, n, bound=bound).order() == bsgs(gens, n).order() == bound


@pytest.mark.parametrize("sid", ["E6", "F4", "H3"])
def test_bound_above_the_order_completes_deterministically(sid):
    # the random phase never reaches 2|K|; the deterministic loop then finishes an exact BSGS
    gens, n, _ = _k_and_bound(sid)
    order = bsgs(gens, n).order()
    g = bsgs(gens, n, bound=2 * order)
    assert g.order() == order
    assert any(g._done)  # Schreier pairs were sifted


def test_bounded_e8_sifts_no_schreier_pair():
    # the seeded random phase reaches |K(E8)| alone
    gens, n, bound = _k_and_bound("E8")
    g = bsgs(gens, n, bound=bound)
    assert g.order() == bound == 348364800
    assert not any(g._done)


def test_bounded_b30_sifts_no_schreier_pair():
    # the random phase mixes its pool before a run of trivial sifts may stop it
    system = parse_system_id("B30")
    bound = expected_aut_order(system)
    g = bsgs(known_group_generators(system), system.num_lines, bound=bound)
    assert g.order() == bound
    assert not any(g._done)


@pytest.mark.parametrize("gens, degree, bound", [([], 5, 1), ([identity(4)], 4, 2)])
def test_bounded_build_without_a_moving_generator_is_trivial(gens, degree, bound):
    # no generator moves a point, so there is no pool to draw from
    g = bsgs(gens, degree=degree, bound=bound)
    assert g.order() == 1
    assert g.base == []


@pytest.mark.parametrize("sid", ["E8", "H4", "D10", "B9"])
def test_bounded_contains_agrees_with_unbounded(sid):
    gens, n, bound = _k_and_bound(sid)
    bounded, full = bsgs(gens, n, bound=bound), bsgs(gens, n)
    outsider = perm_from_cycles(n, [[0, 1]])  # no line map swaps just two lines
    for p in gens + [compose(gens[0], gens[-1]), outsider]:
        assert bounded.contains(p) == full.contains(p)
    assert not bounded.contains(outsider)


def test_bounded_build_repeats():
    gens, n, bound = _k_and_bound("D10")
    g1, g2 = bsgs(gens, n, bound=bound), bsgs(gens, n, bound=bound)
    assert g1.base == g2.base
    assert basic_orbit_lengths(g1) == basic_orbit_lengths(g2)
