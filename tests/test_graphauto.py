import random
from collections import Counter
from itertools import combinations, permutations
from math import prod

import pytest

from reference_refine import ReferencePartition
from rootmat import graphauto, permgrp
from rootmat.cli import main
from rootmat.graphauto import automorphism_group, initial_partition, path_bound, refine
from rootmat.incidencegraph import ColoredGraph, build_incidence, restrict_to_ground
from rootmat.linmatroid import circuits3
from rootmat.permgrp import bsgs
from rootmat.rootsystems import build, parse_system_id
from rootmat.verify import circuits_upto, default_table_ids


def graph_from_edges(num_vertices, colors, edges) -> ColoredGraph:
    adj = [set() for _ in range(num_vertices)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return ColoredGraph(num_vertices, tuple(colors), tuple(frozenset(a) for a in adj))


def _cycle(n):
    return graph_from_edges(n, [0] * n, [(i, (i + 1) % n) for i in range(n)])


def test_refine_regular_graph_stays_coarse():
    g = _cycle(6)
    assert refine(g, initial_partition(g)) == [list(range(6))]


def test_refine_path_splits_by_degree():
    g = graph_from_edges(3, [0, 0, 0], [(0, 1), (1, 2)])
    assert refine(g, [[0, 1, 2]]) == [[0, 2], [1]]


def test_refine_discrete_unchanged():
    g = _cycle(4)
    discrete = [[0], [1], [2], [3]]
    assert refine(g, discrete) == discrete


def test_triangle_group():
    g = _cycle(3)
    assert bsgs(automorphism_group(g), degree=3).order() == 6


def test_square_group():
    assert bsgs(automorphism_group(_cycle(4)), degree=4).order() == 8


def _petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return graph_from_edges(10, [0] * 10, edges)


def test_petersen_group():
    assert bsgs(automorphism_group(_petersen()), degree=10).order() == 120


def test_colors_restrict_group():
    # a 4-cycle with one vertex colored differently only keeps the mirror
    g = graph_from_edges(4, [1, 0, 0, 0], [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert bsgs(automorphism_group(g), degree=4).order() == 2


def test_generators_are_verified_automorphisms():
    g = _cycle(5)
    for p in automorphism_group(g):
        for u in range(5):
            assert {p[w] for w in g.adjacency[u]} == g.adjacency[p[u]]


def test_a3_incidence_ground_group():
    s = build("A", 3)
    g = build_incidence(s.num_lines, circuits3(s.lines))
    gens = automorphism_group(g)
    ground = bsgs([restrict_to_ground(p, 6) for p in gens], degree=6)
    assert ground.order() == 24


def test_relabeling_equivariance():
    rng = random.Random(5)
    s = build("B", 3)
    c3 = circuits3(s.lines)
    g = build_incidence(s.num_lines, c3)
    order = bsgs(automorphism_group(g), degree=g.num_vertices).order()
    for _ in range(3):
        # relabel within each color class
        ground_perm = rng.sample(range(s.num_lines), s.num_lines)
        relabeled = [
            frozenset(ground_perm[i] for i in c) for c in c3
        ]
        rng.shuffle(relabeled)
        g2 = build_incidence(s.num_lines, relabeled)
        group2 = bsgs(automorphism_group(g2), degree=g2.num_vertices)
        assert group2.order() == order
        # conjugates of ground restrictions agree as groups
        ground1 = bsgs([restrict_to_ground(p, s.num_lines)
                        for p in automorphism_group(g)], degree=s.num_lines)
        inv = [0] * s.num_lines
        for i, x in enumerate(ground_perm):
            inv[x] = i
        for p in group2.generators:
            conj = tuple(inv[restrict_to_ground(p, s.num_lines)[ground_perm[i]]]
                         for i in range(s.num_lines))
            assert ground1.contains(conj)


def test_asymmetric_graph_has_trivial_group():
    # path with a pendant triangle: only the identity
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4), (4, 5)]
    g = graph_from_edges(6, [0] * 6, edges)
    assert automorphism_group(g) == []


def _frucht():
    lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    edges = [(i, (i + 1) % 12) for i in range(12)] + [(i, (i + lcf[i]) % 12) for i in range(12)]
    return graph_from_edges(12, [0] * 12, edges)


def test_frucht_graph_bound_does_not_close():
    # cubic and asymmetric, but refinement leaves one cell: the bound is 12, |Aut| is 1
    g = _frucht()
    assert path_bound(g) == 12
    with pytest.raises(ValueError, match="first-path bound 12 does not close") as info:
        automorphism_group(g)
    assert "\n" not in str(info.value)


def _individualize(partition, idx, v):
    """Split v off the front of cell idx of a list of cells."""
    cell = partition[idx]
    return partition[:idx] + [[v], [w for w in cell if w != v]] + partition[idx + 1:]


def _target_cell_index(partition):
    """Index of the first smallest non-singleton cell of a list of cells, or None."""
    best = None
    for idx, cell in enumerate(partition):
        if len(cell) > 1 and (best is None or len(cell) < len(partition[best])):
            best = idx
    return best


def _reference_first_path(g, partition=None, active=None):
    """The list-form first path: each level's cells rebuilt by `refine` from a list of cells.

    Returns the (partition, target index) of each level and the leaf, as
    the first path below an ordered partition (by default g's initial one).
    """
    partition = refine(g, initial_partition(g) if partition is None else partition, active)
    levels = []
    while (target := _target_cell_index(partition)) is not None:
        levels.append((partition, target))
        partition = refine(g, _individualize(partition, target, min(partition[target])), [target])
    return levels, [cell[0] for cell in partition]


def _reference_generators(g):
    """`automorphism_group`'s generators, every descent walked by `_reference_first_path`."""
    levels, first_leaf = _reference_first_path(g)
    path = [min(partition[target]) for partition, target in levels]
    gens = []
    for depth in reversed(range(len(levels))):
        partition, target = levels[depth]
        orbit = graphauto._orbit(path[depth], gens)
        for w in sorted(partition[target]):
            if w not in orbit:
                _, leaf = _reference_first_path(g, _individualize(partition, target, w), [target])
                gens.append(tuple(u for _, u in sorted(zip(leaf, first_leaf))))
                orbit = graphauto._orbit(path[depth], gens)
    return gens


def _reference_refine(g, partition):
    """Full-round Weisfeiler-Leman refinement, the reference for `refine`.

    Each round gives every vertex the sorted tuple of its neighbors' cell
    indices and splits each cell by that signature, until nothing splits.
    """
    cells = [list(c) for c in partition]
    while True:
        cell_of = {}
        for idx, cell in enumerate(cells):
            for v in cell:
                cell_of[v] = idx
        new_cells = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups = {}
            for v in cell:
                sig = tuple(sorted(cell_of[w] for w in g.adjacency[v]))
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for sig in sorted(groups):
                    new_cells.append(groups[sig])
        cells = new_cells
        if not changed:
            return cells


def _is_equitable(g, cells):
    """Every vertex of a cell has the same number of neighbors in each cell."""
    cell_of = {v: idx for idx, cell in enumerate(cells) for v in cell}
    for cell in cells:
        counts = {frozenset(Counter(cell_of[w] for w in g.adjacency[v]).items()) for v in cell}
        if len(counts) > 1:
            return False
    return True


def _assert_refines_like_reference(g, partition, cells):
    assert sorted(v for c in cells for v in c) == list(range(g.num_vertices))
    assert {frozenset(c) for c in cells} == {
        frozenset(c) for c in _reference_refine(g, partition)}
    assert _is_equitable(g, cells)


@pytest.mark.parametrize("sid", default_table_ids())
def test_refine_matches_reference_on_c3_graphs(sid):
    s = parse_system_id(sid)
    g = build_incidence(s.num_lines, circuits3(s.lines))
    start = initial_partition(g)
    cells = refine(g, start)
    _assert_refines_like_reference(g, start, cells)
    target = _target_cell_index(cells)
    if target is None:
        return
    for v in cells[target]:
        child = _individualize(cells, target, v)
        _assert_refines_like_reference(g, child, refine(g, child, [target]))


def _random_graph(rng, max_vertices):
    n = rng.randint(1, max_vertices)
    colors = [rng.randrange(rng.randint(1, 3)) for _ in range(n)]
    density = rng.choice((0.2, 0.5, 0.8))
    edges = [(u, w) for u in range(n) for w in range(u + 1, n) if rng.random() < density]
    return graph_from_edges(n, colors, edges)


def test_refine_matches_reference_on_random_graphs():
    rng = random.Random(2007)
    for _ in range(300):
        g = _random_graph(rng, 12)
        start = initial_partition(g)
        cells = refine(g, start)
        _assert_refines_like_reference(g, start, cells)
        target = _target_cell_index(cells)
        for v in cells[target] if target is not None else ():
            child = _individualize(cells, target, v)
            _assert_refines_like_reference(g, child, refine(g, child, [target]))


def _brute_force_order(g):
    """The number of color-preserving automorphisms, over every permutation."""
    n = g.num_vertices
    edges = {frozenset((u, w)) for u in range(n) for w in g.adjacency[u]}
    pairs = [tuple(e) for e in edges]
    return sum(
        all(g.colors[p[v]] == g.colors[v] for v in range(n))
        and all(frozenset((p[u], p[w])) in edges for u, w in pairs)
        for p in permutations(range(n))
    )


def test_automorphism_group_matches_brute_force_on_random_graphs():
    rng = random.Random(2014)
    for _ in range(40):
        g = _random_graph(rng, 8)
        order = _brute_force_order(g)
        assert bsgs(automorphism_group(g), degree=g.num_vertices).order() == order == path_bound(g)


def test_self_check_falls_back_to_all_vertices():
    # vertices 1 and 2 have the same color and the same neighbors in the lowest
    # color class {0}: the only automorphism swaps them and fixes that class
    g = graph_from_edges(3, [0, 1, 1], [(0, 1), (0, 2)])
    assert bsgs(automorphism_group(g), degree=3).order() == 2


def _c3_graph(sid):
    s = parse_system_id(sid)
    return build_incidence(s.num_lines, circuits3(s.lines))


@pytest.mark.parametrize("sid", default_table_ids() + ["B9", "D10", "Dprime4", "A1+A2+B3"])
def test_tuple_and_frozenset_adjacency_give_one_bound_and_one_group(sid):
    # build_incidence's int tuples against neighbour frozensets of the same C3 graph,
    # set k at vertex n + k in both
    s = parse_system_id(sid)
    n, c3 = s.num_lines, circuits3(s.lines)
    g = build_incidence(n, c3)
    h = graph_from_edges(n + len(c3), g.colors, [(x, n + k) for k, c in enumerate(c3) for x in c])
    assert all(isinstance(a, tuple) for a in g.adjacency)
    assert all(isinstance(a, frozenset) for a in h.adjacency)
    assert [set(a) for a in g.adjacency] == [set(a) for a in h.adjacency]
    assert path_bound(g) == path_bound(h)
    assert automorphism_group(g) == automorphism_group(h)


@pytest.mark.parametrize("name", ["B9", "D4+Dprime4", "E8", "H4", "petersen"])
def test_certify_raises_on_a_missing_generator(name):
    g = _petersen() if name == "petersen" else _c3_graph(name)
    levels = graphauto._first_path(g)[0]
    gens = automorphism_group(g)
    graphauto._certify(levels, gens)
    # the last generator comes from the shallowest level that needed one
    with pytest.raises(AssertionError, match="inconsistent: at level"):
        graphauto._certify(levels, gens[:-1])
    # without the deepest level's generators, no generator left fixes the path above it
    path = [min(p.cell(target)) for p, target in levels]
    shallower = [p for p in gens if any(p[v] != v for v in path[:-1])]
    assert len(shallower) < len(gens)
    with pytest.raises(AssertionError, match="inconsistent: at level"):
        graphauto._certify(levels, shallower)


def test_automorphism_group_calls_no_schreier_sims(monkeypatch):
    g = _c3_graph("E8")
    gens = automorphism_group(g)

    def refuse(*args, **kwargs):
        raise AssertionError("Schreier-Sims called")

    monkeypatch.setattr(graphauto, "bsgs", refuse)
    monkeypatch.setattr(permgrp, "bsgs", refuse)
    assert automorphism_group(g) == gens


def test_empty_graph_group_is_trivial():
    for g in (graph_from_edges(0, [], []), build_incidence(0, [])):
        assert automorphism_group(g) == []
        assert path_bound(g) == 1


def _assert_walk_matches_reference(g):
    # the same cells as sets, in the same order, the same target cell and the same leaf
    levels, leaf = graphauto._first_path(g)
    ref_levels, ref_leaf = _reference_first_path(g)
    assert len(levels) == len(ref_levels)
    for (p, target), (partition, ref_target) in zip(levels, ref_levels):
        cells = p.cells()
        assert [set(c) for c in cells] == [set(c) for c in partition]
        assert cells.index(p.cell(target)) == ref_target
    assert leaf == ref_leaf
    assert path_bound(g) == prod(len(partition[t]) for partition, t in ref_levels)


WALK_IDS = default_table_ids() + ["I2_16", "I2_18", "I2_20", "B9", "D10", "B16", "Dprime4+D4"]


@pytest.mark.parametrize("name", WALK_IDS + ["petersen", "frucht"])
def test_in_place_walk_matches_the_list_form_walk(name):
    g = {"petersen": _petersen, "frucht": _frucht}.get(name, lambda: _c3_graph(name))()
    _assert_walk_matches_reference(g)


def test_in_place_walk_matches_the_list_form_walk_on_random_graphs():
    rng = random.Random(2007)
    for _ in range(300):
        _assert_walk_matches_reference(_random_graph(rng, 12))


def _assert_kernel_matches_the_reference(g, first=None):
    # the same elems, positions, cell sizes and target at every level of the
    # first path, below the first level's vertex `first` when it is given
    start = initial_partition(g)
    p, ref = graphauto._Partition(g, start), ReferencePartition(g, start)
    while True:
        assert (p.elems, p.pos, p.cell_of, p.size) == (ref.elems, ref.pos, ref.cell_of, ref.size)
        target = p.target()
        assert target == ref.target()
        if target is None:
            return
        v = min(p.cell(target)) if first is None else first
        p.individualize(target, v)
        ref.individualize(target, v)
        first = None


# the table's and headroom's C3 graphs, and the crosscheck workload's sums and
# all-circuit families (":circuits", the circuits up to max(rank, 3))
CROSSCHECK_IDS = ["A4", "A5", "B3", "B4", "D4", "D5", "H3", "A1+A2+B3", "A3+A3"]
KERNEL_IDS = default_table_ids() + ["I2_16", "I2_18", "I2_20", "B9", "D10", "A1+A2+B3", "A3+A3"]
KERNEL_IDS += [f"{sid}:circuits" for sid in CROSSCHECK_IDS]


@pytest.mark.parametrize("name", KERNEL_IDS)
def test_refine_kernel_matches_the_reference_order(name):
    sid, _, circuits = name.partition(":")
    s = parse_system_id(sid)
    family = circuits_upto(s, max(s.rank, 3)) if circuits else circuits3(s.lines)
    _assert_kernel_matches_the_reference(build_incidence(s.num_lines, family))


def _random_triple_system(rng, max_points):
    """The incidence graph of a random family of 3-subsets of 3..max_points points."""
    n = rng.randint(3, max_points)
    triples = list(combinations(range(n), 3))
    return build_incidence(n, rng.sample(triples, rng.randint(1, len(triples))))


def _singleton_cuts(g, p, v):
    """How the singleton splitter {v} cuts the cells of p it touches in part: below, at or
    above half of the cell (v's own cell counted without v)."""
    cuts = set()
    for cell in p.cells():
        rest, hit = len(cell) - (v in cell), len(set(cell) & set(g.adjacency[v]))
        if 0 < hit < rest:
            cuts.add("less" if 2 * hit < rest else "half" if 2 * hit == rest else "more")
    return cuts


def test_refine_kernel_matches_the_reference_order_on_random_graphs():
    # every vertex of the first target cell starts a walk, as the descents do; with the
    # random triple systems (C3-like graphs) the first paths' singleton splitters cut cells
    # below, at and above half, so the queue takes either part of a one-fragment split
    rng = random.Random(27)
    graphs = [_random_graph(rng, 14) for _ in range(300)]
    cuts = set()
    for g in graphs + [_random_triple_system(rng, 8) for _ in range(300)]:
        _assert_kernel_matches_the_reference(g)
        p = graphauto._Partition(g, initial_partition(g))
        target = p.target()
        for v in p.cell(target) if target is not None else ():
            _assert_kernel_matches_the_reference(g, v)
        while (target := p.target()) is not None:
            v = min(p.cell(target))
            cuts |= _singleton_cuts(g, p, v)
            p.individualize(target, v)
    assert cuts == {"less", "half", "more"}


@pytest.mark.parametrize("sid", ["F4", "E8", "B9", "H4+H3+A1"])
def test_emitted_generators_match_the_list_form_walk(sid, capsys):
    g = _c3_graph(sid)
    n = parse_system_id(sid).num_lines
    assert main(["aut", "--system", sid, "--emit-generators"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{sid}: |Aut(G(X, C3))| = {path_bound(g)}"] + [
        permgrp.cycle_notation(restrict_to_ground(p, n)) for p in _reference_generators(g)]
