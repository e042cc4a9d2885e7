"""Permutation groups via Schreier-Sims, optionally stopped at a known order bound.

Permutations are tuples ``p`` of length ``degree`` acting on points
``0..degree-1`` by ``x -> p[x]``.  Composition ``compose(p, q)`` means
"q first, then p".  The BSGS gives exact (big integer) group order,
membership, subgroup and equality tests.  The random phase of a bounded
build and the deterministic completion add strong generators by the same
sift-and-insert step.  Every build repeats exactly: base points are the
smallest moved point, orbits are extended in FIFO order, and the random
phase draws from a fixed seed.
"""

from __future__ import annotations

import random
from math import prod
from operator import itemgetter


def identity(degree):
    return tuple(range(degree))


def compose(p, q):
    """(p . q)(x) = p(q(x))."""
    if len(q) > 1:
        return itemgetter(*q)(p)
    return tuple(p[x] for x in q)  # itemgetter of one index returns a scalar


def inverse(p):
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


def is_identity(p):
    return p == identity(len(p))


def cycle_notation(p) -> str:
    seen = set()
    parts = []
    for x in range(len(p)):
        if x in seen or p[x] == x:
            continue
        cyc = [x]
        y = p[x]
        while y != x:
            seen.add(y)
            cyc.append(y)
            y = p[y]
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) if parts else "()"


class PermGroup:
    """A permutation group with a base and strong generating set.

    Every strong generator enters by one step, `_add`: a residue that a
    sift left at level j becomes a strong generator at the levels up to j
    whose base prefix it fixes (a residue that passed every level first gets
    a new base point, its smallest moved point), and those orbits are closed
    at once.  Transversals are extend-only, so coset representatives never
    change once computed.  A transversal maps each orbit point x, in
    insertion order, to the inverse of its coset representative u_x, the
    factor a sift applies.

    Given a bound on the order, a seeded random phase (Seress 2003, ch. 4)
    adds the residue of each sifted product-replacement element.  Each
    level's generators fix the earlier base points, so the basic orbits
    multiply to at most the order: reaching a bound no lower than it proves
    both equal.  Product replacement mixes its pool for 10*|pool| steps
    before a trivial run counts (Celler et al. 1995); then 60 trivial sifts
    in a row hand over to the deterministic Schreier-Sims loop.  From the
    deepest level, it adds the residue of the first Schreier generator that
    does not sift and goes to the level that residue reached, or goes up a
    level when none is left.  Each (orbit point, generator) pair is sifted
    at most once per level.
    """

    def __init__(self, degree, generators, bound=None):
        self.degree = degree
        self.generators = [tuple(g) for g in generators]
        if any(len(g) != degree for g in self.generators):
            raise ValueError("generator degree mismatch")
        self.base = []
        self._gens = []  # _gens[i]: strong generators fixing base[:i]
        self._trans = []  # orbit of base[i] in insertion order, x -> u_x^-1
        self._done = []  # sifted (point, gen index) Schreier pairs
        gens = [g for g in self.generators if not is_identity(g)]
        if not gens:
            return  # the trivial group; an empty pool would make rng.sample raise
        for g in gens:
            if all(g[b] == b for b in self.base):
                self._append_level(g)
        for i in range(len(self.base)):
            self._gens[i] = [g for g in gens if all(g[b] == b for b in self.base[:i])]
            self._extend_transversal(i)
        if bound is not None and self._reaches(gens, bound):
            return
        level = len(self.base) - 1
        while level >= 0:
            residue = self._residue(level)
            if residue is None:
                level -= 1
                continue
            h, reached = residue
            self._add(h, range(level + 1, reached + 1))
            level = reached

    # -- construction ----------------------------------------------------

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

    def _reaches(self, gens, bound):
        """The random phase: True once the basic orbits multiply to bound."""
        rng, x, trivial, steps = random.Random(0), identity(self.degree), 0, 0
        pool = (gens * 10)[:max(10, len(gens))]  # product replacement
        while (trivial < 60 or steps < 10 * len(pool)) and self.order() < bound:
            steps += 1
            i, j = rng.sample(range(len(pool)), 2)
            pool[i] = compose(pool[i], pool[j])
            x = compose(x, pool[i])
            h, level = self._strip(x)
            trivial = trivial + 1 if is_identity(h) else 0
            if not trivial:
                self._add(h, range(level + 1))  # h fixes base[:level]
        return self.order() >= bound

    # -- queries ---------------------------------------------------------

    def order(self) -> int:
        return prod(map(len, self._trans))

    def contains(self, p) -> bool:
        p = tuple(p)
        if len(p) != self.degree:
            raise ValueError("degree mismatch")
        h, i = self._strip(p)
        return i == len(self.base) and is_identity(h)


def bsgs(generators, degree=None, bound=None) -> PermGroup:
    """A PermGroup of a generator list; a bound below the order may leave order() short of it."""
    gens = [tuple(g) for g in generators]
    if degree is None:
        if not gens:
            raise ValueError("degree required for an empty generator list")
        degree = len(gens[0])
    return PermGroup(degree, gens, bound)


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
