"""Color-preserving graph automorphisms along one refinement path.

One ordered partition of the vertices, `_Partition`, is refined in place:
its cells lie contiguously in one array, and a splitter queue takes it to
the coarsest equitable partition, moving only the vertices a splitter
touches in cells of two or more (McKay & Piperno, *Practical graph
isomorphism II*, 2014, §§4-5), read off a singleton splitter's adjacency
with no count; `refine` is that kernel on a list of cells.  Adjacency may
be int tuples (`build_incidence`) or neighbor sets.
The first path carries that one state down: it individualizes the least
vertex of the first smallest non-singleton cell (the target cell T_i) in
place and refines from the new singleton, down to a discrete leaf.
Refinement is equivariant, so prod |T_i| bounds the group order
(`path_bound`).  `automorphism_group` keeps a copy of the state at each
level, descends once below each target-cell vertex outside the orbit found
so far and matches the leaf with the first leaf; verified edge-by-edge,
each match is a generator.  When all verify, the group reaches the bound; a
leaf that fails means the bound does not close and is an error, not a
search, so the walk (the first path and one descent per generator) needs no
node budget.  `_certify` checks the orbits that prove the order by level.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import chain
from math import prod

from .incidencegraph import ColoredGraph
from .permgrp import bsgs  # unused here; the perfbench tracer wraps this name


def initial_partition(g: ColoredGraph):
    cells = {}
    for v, c in enumerate(g.colors):
        cells.setdefault(c, []).append(v)
    return [sorted(cells[c]) for c in sorted(cells)]


class _Partition:
    """An ordered partition, refined and individualized in place.

    `elems` lists the vertices of g cell after cell and `pos` is its
    inverse; `cell_of` maps a vertex to the start of its cell in `elems`,
    and `size` maps the start of each cell to its length.  A new one is the
    coarsest equitable refinement of a list of cells, from the splitter
    cells at the indices in `active` (every cell when it is None).
    """

    __slots__ = ("adjacency", "elems", "pos", "cell_of", "size")

    def __init__(self, g: ColoredGraph, cells, active=None):
        self.adjacency, self.elems, self.size = g.adjacency, [], {}
        self.pos, self.cell_of = [0] * g.num_vertices, [0] * g.num_vertices
        for cell in cells:
            start = len(self.elems)
            self.size[start] = len(cell)
            for v in cell:
                self.pos[v], self.cell_of[v] = len(self.elems), start
                self.elems.append(v)
        starts = list(self.size)
        self.refine(starts if active is None else [starts[i] for i in active])

    def copy(self):
        p = _Partition.__new__(_Partition)
        p.adjacency, p.size = self.adjacency, dict(self.size)
        p.elems, p.pos, p.cell_of = self.elems[:], self.pos[:], self.cell_of[:]
        return p

    def cell(self, start):
        return self.elems[start:start + self.size[start]]

    def cells(self):
        return [self.cell(start) for start in sorted(self.size)]

    def target(self):
        """Start of the first smallest non-singleton cell, None when the partition is discrete."""
        best, start = None, 0
        while start < len(self.elems):
            n = self.size[start]
            if n > 1 and (best is None or n < self.size[best]):
                best = start
                if n == 2:
                    break
            start += n
        return best

    def individualize(self, start, v):
        """Split v off the front of the cell at start, then refine from the new singleton.

        The partition was equitable, so only the singleton can split a cell.
        """
        elems, pos, size = self.elems, self.pos, self.size
        i, u = pos[v], elems[start]
        elems[start], elems[i], pos[v], pos[u] = v, u, start, i
        size[start], size[start + 1] = 1, size[start] - 1
        for w in elems[start + 1:start + 1 + size[start + 1]]:
            self.cell_of[w] = start + 1
        self.refine([start])

    def refine(self, splitters):
        """Refine to the coarsest equitable partition from the splitter cells at these starts.

        A splitter splits each non-singleton cell it touches by the number
        of neighbors each vertex has in it, fragments in increasing order of
        that count, swapped in behind the untouched vertices.  Touched ones
        of one count (always, from a singleton splitter: its adjacency lists
        them, uncounted) form one fragment.  Every new fragment joins the
        queue, except the first largest one when the parent cell was not
        queued: counts into it follow from counts into the parent and the
        other fragments.  Cells and their order depend only on positions and
        counts, so the result is relabeling-equivariant.
        """
        adjacency, elems, pos, cell_of = self.adjacency, self.elems, self.pos, self.cell_of
        size = self.size
        queue = deque(splitters)
        queued = set(queue)
        while queue and len(size) < len(elems):
            splitter = queue.popleft()
            queued.discard(splitter)
            if size[splitter] == 1:
                touched, count = adjacency[elems[splitter]], None
            else:
                cell = elems[splitter:splitter + size[splitter]]
                touched = count = Counter(chain.from_iterable(map(adjacency.__getitem__, cell)))
            hit = {}
            for u in touched:
                if size[at := cell_of[u]] > 1:
                    hit.setdefault(at, []).append(u)
            for start in sorted(hit):
                n, members = size[start], hit[start]
                if count is None or len(set(map(count.__getitem__, members))) == 1:
                    if len(members) == n:
                        continue
                    i = new = start + n - len(members)
                    for u in members:
                        j, w = pos[u], elems[i]
                        elems[i], elems[j], pos[u], pos[w], cell_of[u] = u, w, i, j, new
                        i += 1
                    size[start], size[new] = new - start, len(members)
                    # the untouched part is the first largest one unless the touched one is larger
                    k = new if start in queued or new - start >= len(members) else start
                    queue.append(k)
                    queued.add(k)
                    continue
                groups = {}
                for u in members:
                    groups.setdefault(count[u], []).append(u)
                fragments = [groups[k] for k in sorted(groups)]
                i = start + n - len(members)
                for frag in fragments:
                    for u in frag:
                        j, w = pos[u], elems[i]
                        elems[i], elems[j], pos[u], pos[w] = u, w, i, j
                        i += 1
                lengths = [len(frag) for frag in fragments]
                if len(members) < n:  # the untouched vertices, whose cell_of stays start
                    fragments.insert(0, ())
                    lengths.insert(0, n - len(members))
                largest = lengths.index(max(lengths))
                parent_queued = start in queued
                i = start
                for k, frag in enumerate(fragments):
                    size[i] = lengths[k]
                    if i != start:
                        for v in frag:
                            cell_of[v] = i
                    if (parent_queued or k != largest) and i not in queued:
                        queue.append(i)
                        queued.add(i)
                    i += lengths[k]


def refine(g: ColoredGraph, partition, active=None):
    """Coarsest equitable refinement of an ordered partition, as a list of cells.

    The splitters are the cells at the indices in `active`, or every cell
    when it is None; see `_Partition.refine`.
    """
    return _Partition(g, partition, active).cells()


def _walk(p: _Partition):
    """Walk p down the first path in place, yielding the start of each level's target cell.

    Each level individualizes the least vertex of its target cell.  When
    the walk ends, p is discrete and p.elems is the leaf.
    """
    while (target := p.target()) is not None:
        yield target
        p.individualize(target, min(p.cell(target)))


def path_bound(g: ColoredGraph):
    """prod |T_i| over the target cells of the first path, >= |Aut(g)|.

    Refinement is equivariant, so the automorphisms fixing v_1..v_{i-1}
    (v_j the least vertex of T_j) map T_i onto itself, and the orbit of v_i
    lies in T_i; the discrete leaf has a trivial stabilizer.  Orbit-stabilizer
    (McKay & Piperno 2014) gives the bound: a subgroup reaching it is Aut(g).
    """
    p = _Partition(g, initial_partition(g))
    return prod(p.size[target] for target in _walk(p))


def _first_path(g: ColoredGraph):
    """The levels of the first path, each (a copy of its state, target start), and the leaf."""
    p = _Partition(g, initial_partition(g))
    levels = [(p.copy(), target) for target in _walk(p)]
    return levels, p.elems


def _is_automorphism(g: ColoredGraph, p):
    return all(g.colors[p[v]] == g.colors[v] and {p[w] for w in a} == set(g.adjacency[p[v]])
               for v, a in enumerate(g.adjacency))


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
    path = [min(p.cell(target)) for p, target in levels]
    for depth, (p, target) in enumerate(levels):
        fixing = [gen for gen in gens if all(gen[v] == v for v in path[:depth])]
        if _orbit(path[depth], fixing) != set(p.cell(target)):
            raise AssertionError(f"automorphism search inconsistent: at level {depth} the orbit "
                                 f"of path vertex {path[depth]} is not the target cell")


def automorphism_group(g: ColoredGraph):
    """Generators of the color-preserving automorphism group of g, of order `path_bound(g)`.

    From the deepest level of the first path up, each w in T_i outside the
    orbit of v_i under the generators found so far gets one descent (the
    first path below w individualized, walked on a copy of level i's state);
    its leaf, matched with the first leaf, is verified edge-by-edge and
    becomes a generator mapping w to v_i.  The generators of deeper levels
    fix v_i, so every level descends.  The orbits then fill every T_i
    (`_certify` checks this), so the group reaches the bound and is Aut(g).
    A leaf that fails shows that the bound does not close: a ValueError.
    """
    levels, first_leaf = _first_path(g)
    path = [min(p.cell(target)) for p, target in levels]
    gens = []
    for depth in reversed(range(len(levels))):
        p, target = levels[depth]
        orbit = _orbit(path[depth], gens)
        for w in sorted(p.cell(target)):
            if w in orbit:
                continue
            q = p.copy()
            q.individualize(target, w)
            for _ in _walk(q):
                pass
            perm = tuple(u for _, u in sorted(zip(q.elems, first_leaf)))  # leaf[k] -> first_leaf[k]
            if not _is_automorphism(g, perm):
                bound = prod(level.size[t] for level, t in levels)
                raise ValueError(f"automorphism_group: the first-path bound {bound} "
                                 f"does not close (the leaf below vertex {w} is no automorphism)")
            gens.append(perm)
            orbit = _orbit(path[depth], gens)
    _certify(levels, gens)
    return gens
