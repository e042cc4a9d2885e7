"""Permutation groups: a base and strong generators built up to a known order bound.

Permutations are tuples ``p`` of length ``degree`` acting on points
``0..degree-1`` by ``x -> p[x]``.  Composition ``compose(p, q)`` means
"q first, then p".  The bounded builder's order is a lower bound on the
group's (big integer) order, exact once it reaches a bound no lower than
it.  Every build repeats exactly: base points are the smallest moved point,
orbits are extended in FIFO order, and the random phase draws from a fixed
seed.
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
    """A permutation group's base and strong generators, built up to an order bound.

    A seeded random phase (Seress 2003, ch. 4) sifts product-replacement
    elements.  The residue that a sift leaves at level j becomes a strong
    generator at the levels up to j, whose base prefix it fixes (a residue
    that passed every level first gets a new base point, its smallest moved
    point), and those orbits are closed at once.  Transversals are
    extend-only, so coset representatives never change once computed.  A
    transversal maps each orbit point x, in insertion order, to the inverse
    of its coset representative u_x, the factor a sift applies.

    Each level's generators fix the earlier base points, so the basic orbits
    multiply to at most the order: `order()` is a lower bound, and reaching
    a bound no lower than the group's order proves both equal.  Product
    replacement mixes its pool for 10*|pool| steps before a trivial run
    counts (Celler et al. 1995); the build stops at the bound, or after 60
    trivial sifts in a row short of it.
    """

    def __init__(self, degree, generators, bound):
        self.degree = degree
        self.generators = [tuple(g) for g in generators]
        if any(len(g) != degree for g in self.generators):
            raise ValueError("generator degree mismatch")
        self.base = []
        self._gens = []  # _gens[i]: strong generators fixing base[:i]
        self._trans = []  # orbit of base[i] in insertion order, x -> u_x^-1
        gens = [g for g in self.generators if not is_identity(g)]
        if not gens:
            return  # the trivial group; an empty pool would make rng.sample raise
        for g in gens:
            if all(g[b] == b for b in self.base):
                self._append_level(g)
        for i in range(len(self.base)):
            self._gens[i] = [g for g in gens if all(g[b] == b for b in self.base[:i])]
            self._extend_transversal(i)
        rng, x, trivial, steps = random.Random(0), identity(degree), 0, 0
        pool = (gens * 10)[:max(10, len(gens))]  # product replacement
        while (trivial < 60 or steps < 10 * len(pool)) and self.order() < bound:
            steps += 1
            i, j = rng.sample(range(len(pool)), 2)
            pool[i] = compose(pool[i], pool[j])
            x = compose(x, pool[i])
            h, level = self._strip(x)
            trivial = trivial + 1 if is_identity(h) else 0
            if not trivial:  # h fixes base[:level]
                if level == len(self.base):
                    self._append_level(h)
                for l in range(level + 1):
                    self._gens[l].append(h)
                    self._extend_transversal(l, len(self._gens[l]) - 1)

    def _append_level(self, g):
        """A new last level whose base point is the smallest point g moves."""
        point = next(x for x in range(self.degree) if g[x] != x)
        self.base.append(point)
        self._gens.append([])
        self._trans.append({point: identity(self.degree)})

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

    def _strip(self, p):
        for i in range(len(self.base)):
            x = p[self.base[i]]
            trans = self._trans[i]
            if x not in trans:
                return p, i
            p = compose(trans[x], p)
        return p, len(self.base)

    def order(self) -> int:
        """The product of the basic orbits: at most |G|, equal once a bound >= |G| was reached."""
        return prod(map(len, self._trans))

    def contains(self, p) -> bool:
        """Membership, exact only once the build reached a bound >= |G| (a shorter chain may
        reject a member); kept for the perfbench tracer's wraps until ROADMAP item 2."""
        p = tuple(p)
        if len(p) != self.degree:
            raise ValueError("degree mismatch")
        h, i = self._strip(p)
        return i == len(self.base) and is_identity(h)


def bsgs(generators, degree, bound) -> PermGroup:
    """A PermGroup of a generator list built up to bound; a bound above |G| leaves order() short."""
    return PermGroup(degree, generators, bound)


def is_subgroup(h: PermGroup, g: PermGroup) -> bool:
    """Whether h's generators lie in g, exact only when g reached a bound >= |g|; kept,
    like `contains`, for the perfbench tracer's wraps until ROADMAP item 2."""
    if h.degree != g.degree:
        raise ValueError("degree mismatch")
    return all(g.contains(x) for x in h.generators)


def equal(g: PermGroup, h: PermGroup) -> bool:
    """Group equality, exact only when both reached a bound >= their order; kept, like
    `contains`, for the perfbench tracer's wraps until ROADMAP item 2."""
    if g.degree != h.degree:
        raise ValueError("degree mismatch")
    if g.order() != h.order():
        return False
    return is_subgroup(g, h) and is_subgroup(h, g)
