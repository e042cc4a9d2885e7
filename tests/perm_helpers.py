"""Permutation helpers that only the tests need: cycles and reflections in, basic orbits out."""

from rootmat.rootsystems import perm_from_linear_map, reflection


def perm_from_cycles(degree, cycles):
    """Build a permutation from a list of cycles, e.g. [[0, 1, 2], [3, 4]]."""
    p = list(range(degree))
    for cyc in cycles:
        for i, x in enumerate(cyc):
            p[x] = cyc[(i + 1) % len(cyc)]
    return tuple(p)


def basic_orbit_lengths(group):
    """The basic orbit lengths of a bounded or reference PermGroup, one per base point (its
    transversal sizes)."""
    return [len(t) for t in group._trans]


def reflection_perm(system, line_index):
    """Line permutation induced by the reflection in the given line."""
    return perm_from_linear_map(system, reflection(system.lines[line_index]))
