import pytest

from rootmat.incidencegraph import build_incidence, restrict_to_ground
from rootmat.linmatroid import circuits3
from rootmat.rootsystems import build


def test_star():
    g = build_incidence(3, [{0, 1, 2}])
    assert g.num_vertices == 4
    assert g.num_edges == 3
    assert g.colors == (0, 0, 0, 1)
    assert set(g.adjacency[3]) == {0, 1, 2}


def test_a3_incidence_counts():
    s = build("A", 3)
    c3 = circuits3(s.lines)
    g = build_incidence(s.num_lines, c3)
    assert g.num_vertices == 10
    assert g.num_edges == 12
    # every set-vertex has degree equal to its set size
    for k in range(6, 10):
        assert len(g.adjacency[k]) == 3


def test_i2_5_incidence_counts():
    s = build("I2", 5)
    c3 = circuits3(s.lines)
    g = build_incidence(5, c3)
    assert g.num_vertices == 15
    assert g.num_edges == 30


def test_adjacency_is_ascending_int_tuples():
    # a line's neighbours are the ids of the sets through it, a set's its sorted members;
    # repeated members collapse
    g = build_incidence(4, [(2, 0, 1), [3, 1, 1], (0, 3, 2)])
    assert g.adjacency == ((4, 6), (4, 5), (4, 6), (5, 6), (0, 1, 2), (1, 3), (0, 2, 3))
    assert g.num_edges == 8


def test_duplicate_set_rejected():
    # sets given as tuples in another member order, or with a repeated member, are one set
    for family in ([{0, 1, 2}, {2, 1, 0}], [(0, 1, 3), [3, 1, 0]], [(1, 2, 3), (3, 3, 2, 1)]):
        with pytest.raises(ValueError, match=r"duplicate set \[\d, \d, \d\] in family"):
            build_incidence(4, family)


def test_member_out_of_range():
    for family in ([{0, 5}], [(0, 1, 2), (3, 1, 2)], [(-1, 0, 1)], [(0, 1, 2, 7)]):
        with pytest.raises(IndexError, match="out of range"):
            build_incidence(3, family)


def test_restriction_identity():
    assert restrict_to_ground(tuple(range(10)), 6) == tuple(range(6))


def test_restriction_rejects_color_mixing():
    with pytest.raises(ValueError):
        restrict_to_ground((3, 1, 2, 0), 2)


def test_restriction_preserves_family():
    # any color-preserving automorphism restricts to a family-preserving
    # ground permutation
    from rootmat.graphauto import automorphism_group

    s = build("A", 3)
    c3 = circuits3(s.lines)
    fam = {frozenset(c) for c in c3}
    g = build_incidence(s.num_lines, c3)
    for p in automorphism_group(g):
        ground = restrict_to_ground(p, s.num_lines)
        assert {frozenset(ground[i] for i in c) for c in fam} == fam
