"""Element/set incidence graphs with vertex colors.

Ground elements get color 0, one vertex of color 1 is added per member
set, and edges encode membership.  Color-preserving automorphisms of this
graph restrict to exactly the ground permutations preserving the set
family, because distinct sets have distinct neighborhoods.
"""

from __future__ import annotations


class ColoredGraph:
    def __init__(self, num_vertices, colors, adjacency):
        self.num_vertices = num_vertices
        self.colors = colors
        self.adjacency = adjacency  # tuple of frozensets, one per vertex

    @property
    def num_edges(self):
        return sum(len(a) for a in self.adjacency) // 2


def build_incidence(ground_size, sets) -> ColoredGraph:
    """The bipartite incidence graph G(X, F) with element/set colors."""
    adj = [set() for _ in range(ground_size)]
    seen = set()
    for s in sets:
        fs = frozenset(s)
        for i in fs:
            if not 0 <= i < ground_size:
                raise IndexError(f"set member {i} out of range")
        if fs in seen:
            raise ValueError(f"duplicate set {sorted(fs)} in family")
        seen.add(fs)
        members = sorted(fs)  # a set's neighbours iterate alike however it was given
        for x in members:
            adj[x].add(len(adj))
        adj.append(set(members))
    n = len(adj)
    colors = (0,) * ground_size + (1,) * (n - ground_size)
    return ColoredGraph(n, colors, tuple(frozenset(a) for a in adj))


def restrict_to_ground(graph_perm, ground_size):
    """Restrict a color-preserving incidence-graph automorphism to X."""
    restricted = tuple(graph_perm[:ground_size])
    if any(x >= ground_size for x in restricted):
        raise ValueError("permutation does not preserve the element color class")
    return restricted
