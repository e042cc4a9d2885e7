"""Permutation helpers that only the tests need: cycles and reflections in, basic orbits out,
and the check of a permutation against a family of circuits."""

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


def by_mask(sets):
    """{the bitmask of its lines: the set} for sets of lines."""
    return {sum(map((1).__lshift__, c)): c for c in sets}


def preserves_family(perm, family):
    """Whether perm maps a set family, keyed `by_mask`, onto itself.

    A tuple that is no bijection fails first: the bits of a set it merges
    could add up to another set's mask.  A bijection maps each set to the
    set whose mask is the sum of its images' bits.
    """
    if len(set(perm)) < len(perm):
        return False
    bit = [1 << p for p in perm].__getitem__
    return all(sum(map(bit, c)) in family for c in family.values())
