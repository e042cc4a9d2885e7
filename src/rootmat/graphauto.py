"""Color-preserving graph automorphisms along one refinement path.

`refine` takes an ordered partition of the vertices to the coarsest
equitable partition by a splitter queue (McKay & Piperno, *Practical graph
isomorphism II*, 2014).  The first path refines, individualizes the least
vertex of the first smallest non-singleton cell (the target cell T_i) and
refines again, down to a discrete leaf; refinement is equivariant, so
prod |T_i| bounds the group order (`path_bound`).  `automorphism_group`
descends once below each target-cell vertex outside the orbit found so far
and matches the leaf with the first leaf; verified edge-by-edge, each match
is a generator.  When all verify, the group reaches the bound; a leaf that
fails means the bound does not close and is an error, not a search, so the
walk (the first path and one descent per generator) needs no node budget.
`_certify` checks the orbits that prove the order, level by level.
"""

from __future__ import annotations

from collections import deque
from math import prod

from .incidencegraph import ColoredGraph
from .permgrp import bsgs  # unused here; the perfbench tracer wraps this name


def initial_partition(g: ColoredGraph):
    cells = {}
    for v, c in enumerate(g.colors):
        cells.setdefault(c, []).append(v)
    return [sorted(cells[c]) for c in sorted(cells)]


def refine(g: ColoredGraph, partition, active=None):
    """Coarsest equitable refinement of an ordered partition, as a list of cells.

    Splitter-queue refinement: the cells sit contiguously in one flat
    array, and the queue holds the start positions of the splitter cells
    (the cells at the indices in `active`, or every cell when it is None).
    A splitter splits each cell it touches by the number of neighbors each
    vertex has in it, fragments in increasing order of that count.  Every
    new fragment joins the queue, except the first largest one when the
    parent cell was not queued: counts into it follow from counts into the
    parent and the other fragments.  Cells and their order depend only on
    positions and counts, so the result is relabeling-equivariant.
    """
    adjacency = g.adjacency
    elems = [v for cell in partition for v in cell]
    cell_of = [0] * g.num_vertices  # vertex -> start of its cell in elems
    size = {}  # start of a cell -> its length
    starts = []
    start = 0
    for cell in partition:
        starts.append(start)
        size[start] = len(cell)
        for v in cell:
            cell_of[v] = start
        start += len(cell)
    queue = deque(starts if active is None else [starts[i] for i in active])
    queued = set(queue)
    while queue and len(size) < len(elems):
        splitter = queue.popleft()
        queued.discard(splitter)
        count = {}
        for w in elems[splitter:splitter + size[splitter]]:
            for u in adjacency[w]:
                count[u] = count.get(u, 0) + 1
        hit = {}
        for u in count:
            hit.setdefault(cell_of[u], []).append(u)
        for start in sorted(hit):
            n = size[start]
            members = hit[start]
            groups = {}
            for u in members:
                groups.setdefault(count[u], []).append(u)
            if len(members) < n:
                groups[0] = [v for v in elems[start:start + n] if v not in count]
            if len(groups) == 1:
                continue
            fragments = [groups[k] for k in sorted(groups)]
            largest = max(fragments, key=len)
            parent_queued = start in queued
            pos = start
            for frag in fragments:
                elems[pos:pos + len(frag)] = frag
                size[pos] = len(frag)
                if pos != start:
                    for v in frag:
                        cell_of[v] = pos
                if (parent_queued or frag is not largest) and pos not in queued:
                    queue.append(pos)
                    queued.add(pos)
                pos += len(frag)
    return [elems[start:start + size[start]] for start in sorted(size)]


def _individualize(partition, idx, v):
    """Split v off the front of cell idx."""
    cell = partition[idx]
    return partition[:idx] + [[v], [w for w in cell if w != v]] + partition[idx + 1:]


def _target_cell_index(partition):
    best = None
    for idx, cell in enumerate(partition):
        if len(cell) > 1 and (best is None or len(cell) < len(partition[best])):
            best = idx
    return best


def _first_path(g: ColoredGraph, partition=None, active=None):
    """The first path below an ordered partition (by default g's initial one).

    Refines, then individualizes the least vertex of the first smallest
    non-singleton cell, the target, and refines again, until the partition
    is discrete.  Returns the (partition, target index) of each level and the
    leaf, the vertices in cell order.
    """
    partition = refine(g, initial_partition(g) if partition is None else partition, active)
    levels = []
    while (target := _target_cell_index(partition)) is not None:
        levels.append((partition, target))
        # the parent is equitable, so only the new singleton can split a cell
        partition = refine(g, _individualize(partition, target, min(partition[target])), [target])
    return levels, [cell[0] for cell in partition]


def path_bound(g: ColoredGraph):
    """prod |T_i| over the target cells of the first path, >= |Aut(g)|.

    `refine` is equivariant, so the automorphisms fixing v_1..v_{i-1} (v_j
    the least vertex of T_j) map T_i onto itself, and the orbit of v_i lies
    in T_i; the discrete leaf has a trivial stabilizer.  Orbit-stabilizer
    (McKay & Piperno 2014) gives the bound: a subgroup reaching it is Aut(g).
    """
    return prod(len(partition[target]) for partition, target in _first_path(g)[0])


def _is_automorphism(g: ColoredGraph, p):
    return all(g.colors[p[v]] == g.colors[v] and {p[w] for w in g.adjacency[v]} == g.adjacency[p[v]]
               for v in range(g.num_vertices))


def _orbit(point, gens):
    orbit = {point}
    queue = [point]
    while queue:
        x = queue.pop()
        for gen in gens:
            y = gen[x]
            if y not in orbit:
                orbit.add(y)
                queue.append(y)
    return orbit


def _certify(levels, gens):
    """Raise unless, at each depth d, the generators fixing v_1..v_{d-1} move v_d onto T_d.

    Orbit-stabilizer along the path then gives |<gens>| >= prod |T_d| >= |Aut(g)|
    (Seress, *Permutation Group Algorithms*, 2003, ch. 4).
    """
    path = [min(partition[target]) for partition, target in levels]
    for depth, (partition, target) in enumerate(levels):
        fixing = [p for p in gens if all(p[v] == v for v in path[:depth])]
        if _orbit(path[depth], fixing) != set(partition[target]):
            raise AssertionError(f"automorphism search inconsistent: at level {depth} the orbit "
                                 f"of path vertex {path[depth]} is not the target cell")


def automorphism_group(g: ColoredGraph):
    """Generators of the color-preserving automorphism group of g, of order `path_bound(g)`.

    From the deepest level of the first path up, each w in T_i outside the
    orbit of v_i under the generators found so far gets one descent (the
    first path below w individualized); its leaf, matched with the first
    leaf, is verified edge-by-edge and becomes a generator mapping w to v_i.
    The orbits then fill every T_i (`_certify` checks this), so the group
    reaches the bound and is Aut(g).  A leaf that fails shows that the bound
    does not close: a ValueError.
    """
    levels, first_leaf = _first_path(g)
    path = [min(partition[target]) for partition, target in levels]
    gens = []
    for depth in reversed(range(len(levels))):
        partition, target = levels[depth]
        orbit = _orbit(path[depth], gens)
        for w in sorted(partition[target]):
            if w in orbit:
                continue
            _, leaf = _first_path(g, _individualize(partition, target, w), [target])
            perm = tuple(u for _, u in sorted(zip(leaf, first_leaf)))  # leaf[k] -> first_leaf[k]
            if not _is_automorphism(g, perm):
                raise ValueError(f"automorphism_group: the first-path bound {path_bound(g)} "
                                 f"does not close (the leaf below vertex {w} is no automorphism)")
            gens.append(perm)
            orbit = _orbit(path[depth], gens)
    _certify(levels, gens)
    return gens
