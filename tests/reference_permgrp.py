"""Reference Schreier-Sims: the complete deterministic builder, for exact orders and membership.

A test-side copy of `permgrp.PermGroup` as it was before the builder in
`src/` came to stop at an order bound: it kept, after the seeded random
phase, a deterministic Schreier-Sims completion, and run without a bound
that completion alone gives an exact BSGS.  Its order, `contains`,
`is_subgroup` and `equal` are exact for any generators, so the tests check
the bounded builder's orders against it.  Every build repeats exactly:
base points are the smallest moved point and orbits are extended in FIFO
order.
"""

from math import prod

from rootmat.permgrp import compose, identity, inverse, is_identity


class PermGroup:
    """A permutation group with a complete base and strong generating set.

    Every strong generator enters by one step, `_add`: a residue that a
    sift left at level j becomes a strong generator at the levels up to j
    whose base prefix it fixes (a residue that passed every level first gets
    a new base point, its smallest moved point), and those orbits are closed
    at once.  Transversals are extend-only, so coset representatives never
    change once computed.  A transversal maps each orbit point x, in
    insertion order, to the inverse of its coset representative u_x, the
    factor a sift applies.

    From the deepest level, the Schreier-Sims loop adds the residue of the
    first Schreier generator that does not sift and goes to the level that
    residue reached, or goes up a level when none is left.  Each (orbit
    point, generator) pair is sifted at most once per level.
    """

    def __init__(self, degree, generators):
        self.degree = degree
        self.generators = [tuple(g) for g in generators]
        if any(len(g) != degree for g in self.generators):
            raise ValueError("generator degree mismatch")
        self.base = []
        self._gens = []  # _gens[i]: strong generators fixing base[:i]
        self._trans = []  # orbit of base[i] in insertion order, x -> u_x^-1
        self._done = []  # sifted (point, gen index) Schreier pairs
        gens = [g for g in self.generators if not is_identity(g)]
        for g in gens:
            if all(g[b] == b for b in self.base):
                self._append_level(g)
        for i in range(len(self.base)):
            self._gens[i] = [g for g in gens if all(g[b] == b for b in self.base[:i])]
            self._extend_transversal(i)
        level = len(self.base) - 1
        while level >= 0:
            residue = self._residue(level)
            if residue is None:
                level -= 1
                continue
            h, reached = residue
            self._add(h, range(level + 1, reached + 1))
            level = reached

    def _append_level(self, g):
        """A new last level whose base point is the smallest point g moves."""
        point = next(x for x in range(self.degree) if g[x] != x)
        self.base.append(point)
        self._gens.append([])
        self._trans.append({point: identity(self.degree)})
        self._done.append(set())

    def _add(self, h, levels):
        """Make the residue h a strong generator at levels, which end where its sift stopped."""
        if levels[-1] == len(self.base):
            self._append_level(h)
        for l in levels:
            self._gens[l].append(h)
            self._extend_transversal(l, len(self._gens[l]) - 1)

    def _extend_transversal(self, i, new=0):
        """Close orbit i under its generators; the points it has need only _gens[i][new:]."""
        trans, gens = self._trans[i], self._gens[i]
        orbit = list(trans)
        gens_inv, old = {}, len(orbit)  # inverses by generator index, formed on first use
        for idx, x in enumerate(orbit):  # the loop also visits the points it appends
            for k in range(new if idx < old else 0, len(gens)):
                y = gens[k][x]
                if y not in trans:
                    if k not in gens_inv:
                        gens_inv[k] = inverse(gens[k])
                    # u_y = s . u_x, so u_y^-1 = u_x^-1 . s^-1
                    trans[y] = compose(trans[x], gens_inv[k])
                    orbit.append(y)

    def _residue(self, level):
        """The first unsifted Schreier pair at level that sifts to a non-identity: (residue, its level)."""
        trans, gens, done = self._trans[level], self._gens[level], self._done[level]
        for x, ux_inv in trans.items():
            ux = None  # formed when a Schreier generator needs it
            for si, s in enumerate(gens):
                if (x, si) in done:
                    continue
                done.add((x, si))
                if ux is None:
                    ux = inverse(ux_inv)
                schreier = compose(trans[s[x]], compose(s, ux))
                if is_identity(schreier):
                    continue
                h, reached = self._strip(schreier, level + 1)
                if not is_identity(h):
                    return h, reached
        return None

    def _strip(self, p, start=0):
        for i in range(start, len(self.base)):
            x = p[self.base[i]]
            trans = self._trans[i]
            if x not in trans:
                return p, i
            p = compose(trans[x], p)
        return p, len(self.base)

    def order(self) -> int:
        return prod(map(len, self._trans))

    def contains(self, p) -> bool:
        p = tuple(p)
        if len(p) != self.degree:
            raise ValueError("degree mismatch")
        h, i = self._strip(p)
        return i == len(self.base) and is_identity(h)


def bsgs(generators, degree=None) -> PermGroup:
    """The complete PermGroup of a generator list; degree defaults to the first generator's."""
    gens = [tuple(g) for g in generators]
    if degree is None:
        if not gens:
            raise ValueError("degree required for an empty generator list")
        degree = len(gens[0])
    return PermGroup(degree, gens)


def is_subgroup(h: PermGroup, g: PermGroup) -> bool:
    if h.degree != g.degree:
        raise ValueError("degree mismatch")
    return all(g.contains(x) for x in h.generators)


def equal(g: PermGroup, h: PermGroup) -> bool:
    if g.degree != h.degree:
        raise ValueError("degree mismatch")
    if g.order() != h.order():
        return False
    return is_subgroup(g, h) and is_subgroup(h, g)
