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
        self.adjacency = adjacency  # neighbors per vertex (build_incidence: ascending int tuples)

    @property
    def num_edges(self):
        return sum(len(a) for a in self.adjacency) // 2


def build_incidence(ground_size, sets) -> ColoredGraph:
    """The bipartite incidence graph G(X, F) with element/set colors."""
    through, family = [[] for _ in range(ground_size)], {}  # family: set -> its vertex, in order
    for s in sets:
        members = tuple(sorted(set(s)))  # repeats collapse; any member order gives one tuple
        if members and (members[0] < 0 or members[-1] >= ground_size):
            raise IndexError(f"set {list(members)} has a member out of range")
        if members in family:
            raise ValueError(f"duplicate set {list(members)} in family")
        family[members] = vertex = ground_size + len(family)
        for x in members:
            through[x].append(vertex)
    colors = (0,) * ground_size + (1,) * len(family)
    return ColoredGraph(len(colors), colors, tuple(map(tuple, through)) + tuple(family))


def restrict_to_ground(graph_perm, ground_size):
    """Restrict a color-preserving incidence-graph automorphism to X."""
    restricted = tuple(graph_perm[:ground_size])
    if any(x >= ground_size for x in restricted):
        raise ValueError("permutation does not preserve the element color class")
    return restricted
