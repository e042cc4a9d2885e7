"""The linear matroid of a root system: C3, rank oracle and circuit enumeration.

A line is an integer vector (a | b), coordinate k being a_k + b_k*sqrt(5),
with every b zero over Q.  C3, the rank oracle and the circuit enumeration
share one Z[sqrt 5] elimination step: with p the first nonzero coordinate
of v, the map x -> v[p] x - x[p] v (`rootsystems.combine`) is
Q(sqrt 5)-linear, clears coordinate p and has kernel the line of v.

C3 keys a plane through a line v by the line_key of any other of its lines
reduced modulo v.  Given generators of a group that preserves C3, only one
line per orbit is keyed, and a transversal maps its triples to the rest of
the orbit.  The rank oracle clears each vector by the rows kept before it,
each result made primitive; the rank is the number of rows that stay nonzero.

The circuit enumeration asks the rank oracle only for the matroid's rank:
each search node carries its candidates' rows cleared the same way against
the current independent set, with coefficient slots that record which
members' vectors they combine, so a dependent candidate is a circuit
exactly when no member's coefficient is zero.

Circuits are emitted as sorted index tuples in lexicographic order, so all
dumps are byte-reproducible.
"""

from __future__ import annotations

import itertools
from math import gcd
from operator import or_

from .errors import BudgetExceededError
from .rootsystems import combine, line_key


class LinearMatroid:
    def __init__(self, vectors):
        self.ground_size = len(vectors)
        self.vectors = vectors  # vectors[i]: element i's primitive integer vector (a | b)

    @staticmethod
    def from_vectors(vectors) -> "LinearMatroid":
        """The matroid of integer vectors (a | b), each the line a + b*sqrt(5)."""
        return LinearMatroid(tuple(_primitive(v) for v in vectors))


def matroid_of(system) -> LinearMatroid:
    """The matroid M(R) of a root system."""
    return LinearMatroid.from_vectors(system.lines)


# -- exact integer elimination --------------------------------------------


def _primitive(vec):
    """The integer vector divided by the gcd of its entries."""
    g = gcd(*vec)
    # tuple() of a list, not of a generator: a generator's tuple is grown by
    # reallocation, and each one freed would park in its size's free list
    return tuple([c // g for c in vec]) if g > 1 else tuple(vec)


def _pivot(v, h):
    """(v, p, v[p]) for p the first of the first h coordinates of row v = (a | b) that is nonzero."""
    n = len(v) // 2
    p = next(itertools.compress(range(h), map(or_, v[:h], v[n:n + h])))
    return v, p, (v[p], v[n + p])


def _clear(x, pivot):
    """Row x with the pivot's coordinate p cleared: v[p] x - x[p] v made primitive, or x
    itself if x[p] is zero (a row stands for its Q(sqrt 5)-multiples: no scaling by v[p])."""
    v, p, vp = pivot
    xp = x[p], x[len(x) // 2 + p]
    return _primitive(combine(vp, x, xp, v)) if xp[0] or xp[1] else x


def rank(m: LinearMatroid, subset) -> int:
    pivots = []
    for i in subset:
        if not 0 <= i < m.ground_size:
            raise IndexError(f"element {i} out of range")
        x = m.vectors[i]
        for pivot in pivots:
            x = _clear(x, pivot)
        if any(x):
            pivots.append(_pivot(x, len(x) // 2))
    return len(pivots)


# -- order-3 circuits -----------------------------------------------------


def circuits3(lines, gens=()):
    """All 3-element circuits of integer lines (a | b), sorted lexicographically.

    Without gens, `_triples` runs on each line i against the later lines.
    With gens, permutations preserving C3, it runs once per orbit of their
    group, on its first line r against all others.  A BFS over gens carries
    the pairs completing r's triples down the orbit: a child g(x) gets g
    applied to x's pairs, which complete the triples through g(x), kept
    when g(x) is their least member, so each once (orbit-stabilizer).  Only
    the BFS frontier holds its pairs.  The line maps of (semi)linear
    bijections of the line set (`perm_from_linear_map`) preserve C3; a bare
    index map need not: `known_group_generators`' Sym(X) at rank <= 2 does
    only once C3 is every triple, so `verify_theorem` passes it none there.
    """
    if not gens:
        return sorted([t for i in range(len(lines))
                       for t in _triples(lines, i, enumerate(lines[i + 1:], i + 1))])
    out, pairs = [], [None] * len(lines)
    for r in range(len(lines)):
        if pairs[r] is None:
            others = ((j, x) for j, x in enumerate(lines) if j != r)
            pairs[r], orbit = [(j, k) for _, j, k in _triples(lines, r, others)], [r]
            for x in orbit:  # the BFS: the orbit grows while it is walked
                for g in gens:
                    if pairs[g[x]] is None:
                        pairs[g[x]] = [(g[j], g[k]) for j, k in pairs[x]]
                        orbit.append(g[x])
                out += [(x, min(p), max(p)) for p in pairs[x] if x < min(p)]
                pairs[x] = ()
    return sorted(out)


def _triples(lines, i, others):
    """The coplanar triples (i, j, k), j before k in others, pairs (j, lines[j]).

    With no parallel pair they are the circuits through i.  Let p be the
    first nonzero coordinate of v = lines[i].  The map x -> v[p] x - x[p] v
    is Q(sqrt 5)-linear with kernel the line of v, so lines j and k map to
    one line_key exactly when {i, j, k} is coplanar.  A zero vector, or a
    line of others parallel to v (mapped to zero), raises ValueError.
    """
    v = lines[i]
    # line_key raises ValueError on a zero v, and keeps its first nonzero coordinate
    p, n = next(k for k, c in enumerate(line_key(v)) if c), len(v) // 2
    vp, buckets = (v[p], v[n + p]), {}
    for j, x in others:
        w = combine(vp, x, (x[p], x[n + p]), v)
        if any(x) and not any(w):
            raise ValueError(f"lines {i} and {j} are parallel")
        buckets.setdefault(line_key(w), []).append(j)
    return [(i, j, k) for bucket in buckets.values() for j, k in itertools.combinations(bucket, 2)]


# -- bounded circuit enumeration ------------------------------------------

DEFAULT_NODE_BUDGET = 5_000_000


def all_circuits_upto(m: LinearMatroid, kmax, node_budget=DEFAULT_NODE_BUDGET):
    """All circuits of order <= kmax, lexicographically sorted.

    Depth-first over independent sets S in lexicographic order; a set is
    only extended while independent (every circuit is some independent
    prefix plus one dependent element).  Raises BudgetExceededError when
    the search frontier exceeds node_budget nodes, a node counting one for
    every element after the last member of S.

    A node carries its candidates' rows (the elements after S not in
    span(S)) cleared against each member in turn (`_clear`).  Each half of a
    row holds a vector half, a coefficient slot per depth and a last slot for
    the candidate (1 at first), moved to slot d when it is pushed at depth
    d; over Z[sqrt 5] a row is one vector (a | b) whose coefficients are
    (alpha | beta).  A candidate whose vector is zero lies in span(S); its
    slots hold the dependency of S plus it, unique up to a scalar, so it
    closes a circuit exactly when every member's coefficient is nonzero,
    and none below a further member.
    """
    if kmax < 1 or not m.ground_size:
        return []
    out, nodes = [], 0
    h, full = len(m.vectors[0]) // 2, rank(m, range(m.ground_size))
    # a slot per member of S, which has at most kmax - 1 and at most full; then the candidate's
    own = h + min(kmax - 1, full)
    n, pad = own + 1, (0,) * (own - h)  # n: a row's half

    def extend(members, ks, carried):
        nonlocal nodes
        d, at = len(members), h + len(members)
        live_ks, live = [], []
        for k, x in zip(ks, carried):
            if any(x[:h]) or any(x[n:n + h]):
                live_ks.append(k)
                live.append(x)
            elif all(map(or_, x[h:at], x[n + h:n + at])):  # every member's coefficient nonzero
                out.append(tuple(members + [k]))
        nodes += m.ground_size - (members[-1] + 1 if members else 0)
        if nodes > node_budget:
            raise BudgetExceededError("all_circuits_upto", node_budget)
        if d + 1 < kmax:
            for t, x in enumerate(live):
                later = live[t + 1:]
                if later:  # else the node below only counts its nodes
                    x = list(x)  # t's coefficient moves from the last slot to slot d
                    x[at], x[own], x[n + at], x[n + own] = x[own], 0, x[n + own], 0
                    pivot = _pivot(x, h)
                    later = [_clear(y, pivot) for y in later]
                extend(members + [live_ks[t]], live_ks[t + 1:], later)

    extend([], range(m.ground_size), [v[:h] + pad + (1,) + v[h:] + pad + (0,) for v in m.vectors])
    del extend  # it refers to itself: break the cycle, so the search is freed now, not by gc
    return sorted(out)
