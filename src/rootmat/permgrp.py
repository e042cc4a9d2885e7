"""Permutation groups via Schreier-Sims, optionally stopped at a known order bound.

Permutations are tuples ``p`` of length ``degree`` acting on points
``0..degree-1`` by ``x -> p[x]``.  Composition ``compose(p, q)`` means
"q first, then p".  The BSGS gives exact (big integer) group order,
membership, subgroup and equality tests.  Every build repeats exactly:
base points are the smallest moved point, orbits are extended in FIFO
order, and the random phase of a bounded build draws from a fixed seed.
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

    Implements the classic deterministic Schreier-Sims procedure: work at
    the deepest incomplete level, sift Schreier generators through the
    levels below, and restart at the level where a residue survives.
    Transversals are extend-only, so coset representatives never change
    once computed and each (orbit point, generator) pair is processed at
    most once per level.  A transversal stores the inverses of the coset
    representatives, the factors a sift applies.

    Given a bound on the order, a seeded random phase (Seress 2003, ch. 4)
    first makes each sifted random element's residue a strong generator.
    Each level's generators fix the earlier base points, so the basic orbits
    multiply to at most the order: reaching a bound no lower than it proves
    both equal.  60 trivial sifts in a row hand over to the deterministic loop.
    """

    def __init__(self, degree, generators, bound=None):
        self.degree = degree
        self.generators = [tuple(g) for g in generators]
        for g in self.generators:
            if len(g) != degree:
                raise ValueError("generator degree mismatch")
        self.base = []
        self._gens = []  # _gens[i]: strong generators fixing base[:i]
        self._orbits = []  # insertion-ordered orbit of base[i]
        self._trans = []  # point x -> u_x^-1, where u_x maps base[i] to x
        self._done = []  # processed (point, gen index) Schreier pairs
        self._build(bound)

    # -- construction ----------------------------------------------------

    def _new_base_point(self, g):
        for x in range(self.degree):
            if g[x] != x:
                return x
        raise AssertionError("tried to pick a base point for the identity")

    def _append_level(self, point):
        self.base.append(point)
        self._gens.append([])
        self._orbits.append([point])
        self._trans.append({point: identity(self.degree)})
        self._done.append(set())

    def _extend_transversal(self, i, new=0):
        """Close orbit i under its generators; the points it has need only _gens[i][new:]."""
        orbit, trans, gens = self._orbits[i], self._trans[i], self._gens[i]
        gens_inv, old, idx = {}, len(orbit), 0  # inverses by generator index, formed on first use
        while idx < len(orbit):
            x = orbit[idx]
            for k in range(new if idx < old else 0, len(gens)):
                y = gens[k][x]
                if y not in trans:
                    if k not in gens_inv:
                        gens_inv[k] = inverse(gens[k])
                    # u_y = s . u_x, so u_y^-1 = u_x^-1 . s^-1
                    trans[y] = compose(trans[x], gens_inv[k])
                    orbit.append(y)
            idx += 1

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
        rng, x, trivial = random.Random(0), identity(self.degree), 0
        pool = (gens * 10)[:max(10, len(gens))]  # product replacement
        while trivial < 60 and self.order() < bound:
            i, j = rng.sample(range(len(pool)), 2)
            pool[i] = compose(pool[i], pool[j])
            x = compose(x, pool[i])
            h, level = self._strip(x)
            trivial = trivial + 1 if is_identity(h) else 0
            if trivial:
                continue
            if level == len(self.base):
                self._append_level(self._new_base_point(h))
            for l in range(level + 1):  # h fixes base[:level]
                self._gens[l].append(h)
                self._extend_transversal(l, len(self._gens[l]) - 1)
        return self.order() >= bound

    def _build(self, bound):
        gens = [g for g in self.generators if not is_identity(g)]
        if not gens:
            return
        for g in gens:
            if all(g[b] == b for b in self.base):
                self._append_level(self._new_base_point(g))
        for i in range(len(self.base)):
            self._gens[i] = [g for g in gens if all(g[b] == b for b in self.base[:i])]
            self._extend_transversal(i)
        if bound is not None and self._reaches(gens, bound):
            return
        level = len(self.base) - 1
        while level >= 0:
            self._extend_transversal(level)
            jumped = False
            orbit, trans = self._orbits[level], self._trans[level]
            lgens, done = self._gens[level], self._done[level]
            xi = 0
            while xi < len(orbit) and not jumped:
                x = orbit[xi]
                tx = None  # u_x, formed when a Schreier generator needs it
                for si in range(len(lgens)):
                    if (x, si) in done:
                        continue
                    done.add((x, si))
                    s = lgens[si]
                    if tx is None:
                        tx = inverse(trans[x])
                    schreier = compose(trans[s[x]], compose(s, tx))
                    if is_identity(schreier):
                        continue
                    h, j = self._strip(schreier, level + 1)
                    if is_identity(h):
                        continue
                    if j == len(self.base):
                        self._append_level(self._new_base_point(h))
                    for l in range(level + 1, j + 1):
                        self._gens[l].append(h)
                    level = j
                    jumped = True
                    break
                xi += 1
            if not jumped:
                level -= 1

    # -- queries ---------------------------------------------------------

    def order(self) -> int:
        return prod(len(t) for t in self._trans) if self.base else 1

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
