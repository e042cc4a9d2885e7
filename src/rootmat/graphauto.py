"""Color-preserving graph automorphisms via individualization-refinement.

The search keeps an ordered partition of the vertices, refines it to the
coarsest equitable refinement (1-dimensional Weisfeiler-Leman), picks the
first smallest non-singleton cell as target, and branches on its members.
Discrete partitions are compared against the first leaf; a match that
verifies edge-by-edge becomes a generator.  Two standard prunings keep
the tree small: vertices in the orbit of an already-explored sibling
(under generators fixing the branching prefix) are skipped, and subtrees
off the first path are abandoned once they produce one automorphism,
since everything below is then conjugate to already-explored territory.
"""

from __future__ import annotations

from .errors import BudgetExceededError
from .incidencegraph import ColoredGraph
from .permgrp import bsgs

DEFAULT_NODE_BUDGET = 200_000


def initial_partition(g: ColoredGraph):
    cells = {}
    for v, c in enumerate(g.colors):
        cells.setdefault(c, []).append(v)
    return [sorted(cells[c]) for c in sorted(cells)]


def refine(g: ColoredGraph, partition):
    """Coarsest equitable refinement of an ordered partition.

    Iterates Weisfeiler-Leman style: each vertex gets the multiset of its
    neighbors' current cell indices; cells split by that signature, with
    fragments ordered by signature so the result is relabeling-equivariant.
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


def _individualize(partition, v):
    out = []
    for cell in partition:
        if v in cell and len(cell) > 1:
            out.append([v])
            out.append([w for w in cell if w != v])
        else:
            out.append(cell)
    return out


def _target_cell_index(partition):
    best = None
    for idx, cell in enumerate(partition):
        if len(cell) > 1 and (best is None or len(cell) < len(partition[best])):
            best = idx
    return best


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
        self._descend(initial_partition(self.g), [], on_first_path=True)
        return self.gens

    def _descend(self, partition, prefix, on_first_path):
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceededError("automorphism_group", self.budget)
        partition = refine(self.g, partition)
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
            found += self._descend(
                _individualize(partition, v),
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


def automorphism_group(g: ColoredGraph, node_budget=DEFAULT_NODE_BUDGET):
    """Generators of the color-preserving automorphism group of g.

    Every returned generator is verified edge-by-edge.  As a self-check,
    the order of the generated group (computed by Schreier-Sims with the
    search's first branching path as base) must equal the orbit-stabilizer
    count along that path; a mismatch would mean a search bug and raises.
    """
    search = _Search(g, node_budget)
    gens = search.run()
    if gens:
        path = search.first_path
        group = bsgs(gens, degree=g.num_vertices, base_hint=path)
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
