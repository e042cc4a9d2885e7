"""Color-preserving graph automorphisms via individualization-refinement.

The search keeps an ordered partition of the vertices, refines it to the
coarsest equitable partition by a splitter queue (McKay & Piperno,
*Practical graph isomorphism II*, 2014), picks the first smallest
non-singleton cell as target, and branches on its members.  A child
individualizes one member, so its refinement starts from that singleton
cell alone.  Discrete partitions are compared against the first leaf; a
match that verifies edge-by-edge becomes a generator.  Two standard
prunings keep the tree small: vertices in the orbit of an already-explored
sibling (under generators fixing the branching prefix) are skipped, and
subtrees off the first path are abandoned once they produce one
automorphism, since everything below is then conjugate to
already-explored territory.  A Schreier-Sims self-check on a faithful
support of the group guards the result.
"""

from __future__ import annotations

from collections import deque

from .errors import BudgetExceededError
from .incidencegraph import ColoredGraph
from .permgrp import bsgs

DEFAULT_NODE_BUDGET = 200_000


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


def path_bound(g: ColoredGraph):
    """prod |T_i| over the target cells of the search's first path, >= |Aut(g)|.

    `refine` is equivariant, so the automorphisms fixing v_1..v_{i-1} (v_j
    the least vertex of T_j) map T_i onto itself, and the orbit of v_i lies
    in T_i; the discrete leaf has a trivial stabilizer.  Orbit-stabilizer
    (McKay & Piperno 2014) gives the bound: a subgroup reaching it is Aut(g).
    """
    partition, bound = refine(g, initial_partition(g)), 1
    while (target := _target_cell_index(partition)) is not None:
        bound *= len(partition[target])
        partition = refine(g, _individualize(partition, target, min(partition[target])), [target])
    return bound


def _is_automorphism(g: ColoredGraph, p):
    if any(g.colors[p[v]] != g.colors[v] for v in range(g.num_vertices)):
        return False
    for u in range(g.num_vertices):
        image = {p[w] for w in g.adjacency[u]}
        if image != g.adjacency[p[u]]:
            return False
    return True


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


class _Search:
    def __init__(self, g, node_budget):
        self.g = g
        self.budget = node_budget
        self.nodes = 0
        self.first_leaf = None
        self.first_path = []
        self.gens = []

    def run(self):
        self._descend(initial_partition(self.g), None, [], on_first_path=True)
        return self.gens

    def _descend(self, partition, active, prefix, on_first_path):
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceededError("automorphism_group", self.budget)
        partition = refine(self.g, partition, active)
        target = _target_cell_index(partition)
        if target is None:
            return self._leaf(partition)
        found = 0
        explored = []
        for v in sorted(partition[target]):
            fixing = [p for p in self.gens if all(p[x] == x for x in prefix)]
            if any(v in _orbit(w, fixing) for w in explored):
                continue
            if on_first_path and not explored:
                self.first_path.append(v)
            # the parent is equitable, so only the new singleton can split a cell
            found += self._descend(
                _individualize(partition, target, v),
                [target],
                prefix + [v],
                on_first_path and not explored,
            )
            explored.append(v)
            if found and not on_first_path:
                # conjugate to an already-explored subtree; nothing new below
                return found
        return found

    def _leaf(self, partition):
        leaf = [cell[0] for cell in partition]
        if self.first_leaf is None:
            self.first_leaf = leaf
            return 0
        perm = [0] * self.g.num_vertices
        for v, w in zip(leaf, self.first_leaf):
            perm[v] = w
        perm = tuple(perm)
        if _is_automorphism(self.g, perm):
            self.gens.append(perm)
            return 1
        return 0


def _faithful_support(g: ColoredGraph):
    """Vertices on which the color-preserving automorphisms act faithfully.

    This is the lowest color class S when each vertex outside S is told
    apart by its color and its neighbors in S, and every vertex otherwise.
    An automorphism fixing S pointwise then fixes every other vertex, so
    restricting to S does not change the group order.
    """
    low = min(g.colors)
    support = [v for v, c in enumerate(g.colors) if c == low]
    inside = set(support)
    keys = [(c, g.adjacency[v] & inside) for v, c in enumerate(g.colors) if c != low]
    return support if len(set(keys)) == len(keys) else list(range(g.num_vertices))


def automorphism_group(g: ColoredGraph, node_budget=DEFAULT_NODE_BUDGET):
    """Generators of the color-preserving automorphism group of g.

    Every returned generator is verified edge-by-edge.  As a self-check,
    the order of the generated group must equal the orbit-stabilizer count
    along the search's first branching path; a mismatch would mean a search
    bug and raises.  The order comes from Schreier-Sims on the generators
    restricted to a faithful support (`_faithful_support`): the element
    vertices X for an incidence graph G(X, F), since F has no repeated set.
    """
    search = _Search(g, node_budget)
    gens = search.run()
    if gens:
        path = search.first_path
        support = _faithful_support(g)
        index = {v: i for i, v in enumerate(support)}
        group = bsgs(
            [tuple(index[p[v]] for v in support) for p in gens],
            degree=len(support),
            base_hint=[index[b] for b in path if b in index],
        )
        expected = 1
        for i, b in enumerate(path):
            fixing = [p for p in gens if all(p[x] == x for x in path[:i])]
            expected *= len(_orbit(b, fixing))
        if group.order() != expected:
            raise AssertionError(
                f"automorphism search inconsistent: BSGS order {group.order()} "
                f"vs orbit-stabilizer count {expected}"
            )
    return gens
