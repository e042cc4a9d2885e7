"""The linear matroid of a root system: C3, rank oracle and circuit enumeration.

C3 comes straight from the integer line vectors (a | b), coordinate k
being a_k + b_k*sqrt(5): a plane through a line v is keyed by the line_key
of any other of its lines reduced modulo v, one Z[sqrt 5] elimination step.
Given generators of a group that preserves C3, only one line per orbit is
keyed, and a transversal maps its triples to the rest of the orbit.

The rank oracle and the circuit enumeration hold the matroid as integer
rows, built once from the same vectors.  When every b is zero the matroid
is over Q and a line becomes the one row a.  Otherwise it is over
Q(sqrt 5) and a line becomes the two rows [a | b] and [5b | a]; their
rational span is the Q(sqrt 5)-span of the line (restriction of scalars),
so a rank over Q(sqrt 5) is the integer rank divided by the degree 2.
Both reduce rows by fraction-free (Bareiss) steps, `_reduce`: each one
divides exactly by the previous pivot, so entries stay small with no gcd.

The circuit enumeration asks the rank oracle only for the matroid's rank:
each search node carries its candidates' rows reduced against the current
independent set, with coefficient columns that record which members' rows
they combine, so a dependent candidate is a circuit exactly when no
member's coefficient is zero.  The reduction is Q(sqrt 5)-linear, so over
Q(sqrt 5) a first row reads as a vector (a | b).  The last two levels are
fused and keyed as C3 is: below a node S, each pair of candidates is keyed
by the plane it spans modulo span(S), the line_key of one's image modulo
the other, and coefficients are formed only for parallel pairs and for
triples in one plane.

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
    def __init__(self, ground_size, rows, degree):
        self.ground_size = ground_size
        self.rows = rows  # rows[i]: the `degree` integer rows of element i
        self.degree = degree  # 1 over Q, 2 over Q(sqrt 5)

    @staticmethod
    def from_vectors(vectors) -> "LinearMatroid":
        """The matroid of integer vectors (a | b), each the line a + b*sqrt(5)."""
        h = len(vectors[0]) // 2 if vectors else 0
        degree = 2 if any(any(v[h:]) for v in vectors) else 1
        rows = [_primitive(v[:h * degree]) for v in vectors]  # a, or (a | b) and then (5b | a)
        rows = tuple((r,) if degree == 1 else (r, tuple([5 * y for y in r[h:]]) + r[:h]) for r in rows)
        return LinearMatroid(len(rows), rows, degree)


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


def _reduce(row, steps):
    """row after each fraction-free (Bareiss) elimination step in turn.

    A step (pivot row, column c, pivot p, previous pivot) maps v to
    (p*v - v[c]*pivot row) // previous pivot, clearing column c.  Entries
    stay minors of the original rows, so it divides exactly with no gcd;
    every row takes every step, also one with v[c] == 0, or a later one would not.
    """
    for pivot, c, p, prev in steps:
        f = row[c]
        if f:
            row = [(p * a - f * b) // prev for a, b in zip(row, pivot)]
        elif p != prev:
            row = [p * a // prev for a in row]
    return row


def _step(row, prev):
    """The step that clears the first nonzero column of row with row itself."""
    p = next(filter(None, row))
    return row, row.index(p), p, prev


def _steps(rows, prev, n):
    """The steps of an element's rows, each reduced by those before it, from pivot prev.

    Over Q(sqrt 5) row 1, sqrt(5) times row 0, pivots on the partner column n/2
    away (of n vector columns) from row 0's pivot, its entry a nonzero multiple of
    a norm a^2 - 5b^2: pivots come in partner pairs, and row 1 stays sqrt(5) times row 0.
    """
    steps = [_step(rows[0], prev)]
    for v in rows[1:]:
        v, c = _reduce(v, steps), (steps[0][1] + n // 2) % n
        steps.append((v, c, v[c], steps[0][2]))
    return steps


def rank(m: LinearMatroid, subset) -> int:
    steps = []
    for i in subset:
        if not 0 <= i < m.ground_size:
            raise IndexError(f"element {i} out of range")
        # the span so far is closed under sqrt(5): the first row of i decides
        for row in m.rows[i]:
            row = _reduce(row, steps)
            if not any(row):
                break
            steps.append(_step(row, steps[-1][2] if steps else 1))
    return len(steps) // m.degree


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
    span(S)) reduced against S by each member's `degree` steps (`_steps`).
    A row is the vector columns, a block of `degree` coefficient columns per
    depth and a last block for the candidate (a unit in column r of row r at
    first), moved to block d when it is pushed at depth d.  A candidate whose
    first row is zero in the vector columns lies in span(S), closed under
    sqrt(5); its blocks hold the dependency of S plus it, unique up to a
    scalar, so it closes a circuit exactly when every member's block, over
    Q(sqrt 5) alpha + beta*sqrt(5), is nonzero, and none below a further member.

    A node S of kmax - 3 members enters no node below it (`last_two`): the
    circuits S + t + u and S + t + u + v come from its candidates' first rows
    alone, by one code path over Q and Q(sqrt 5).  It still counts each S + t,
    and S + t + u for u not parallel to t modulo S, so the budget is spent as
    if they were entered.
    """
    if kmax < 1 or not m.ground_size:
        return []
    out, nodes, deg, last = [], 0, m.degree, m.ground_size - 1
    n, full = len(m.rows[0][0]), rank(m, range(m.ground_size))
    # blocks of kmax - 3 members (kmax - 1 below order 3), at most full; then the candidate's
    own = n + min(kmax - 3 if kmax > 2 else kmax - 1, full) * deg
    units = [[0] * (own - n) + [int(c == r) for c in range(deg)] for r in range(deg)]

    def last_two(members, ks, live):
        """The circuits S + t + u and S + t + u + v below S, from the live first rows.

        Off S's pivots (partner pairs: `_steps`) the first rows stand for the quotient
        by span(S): vectors (a | b) and member blocks (alpha | beta) over Z[sqrt 5], b
        and beta 0 over Q.  u's image x[p] u - u[p] x (x t's vector, p its first nonzero
        coordinate) is 0 when u is parallel to t, and S + t + u is then a circuit when
        the blocks b_u' = x[p] b_u - u[p] b_t are nonzero; else its line_key keys the
        plane of t and u.  Images u', v' in a plane, with entries r_u, r_v on its first
        nonzero coordinate, give r_u v' - r_v u' = 0: S + t + u + v is a circuit when
        u, v are not parallel (t's coefficient r_u v[p] - r_v u[p] is then nonzero) and
        the blocks r_u b_v' - r_v b_u' are nonzero.
        """
        nonlocal nodes
        # S's pivots are zero in every row; the rest of a partner pair, n/2 apart, is kept whole
        # (a second row, sqrt(5) times the first, is nonzero on the partners of its nonzero columns)
        used, h = list(map(any, zip(*[vs[0][:n] for vs in live]))), n // deg
        cols = list(itertools.compress(range(n), map(or_, used, used[h:] + used[:h])))
        d, k = len(members), len(cols) // deg
        bcols = [n + j * deg + r for r in range(deg) for j in range(d)]
        vecs = [[vs[0][c] for c in cols] + [0] * (2 * k - len(cols)) for vs in live]
        blocks = [[vs[0][c] for c in bcols] + [0] * (2 * d - len(bcols)) for vs in live]

        def nonzero(b):  # every member block (alpha | beta) nonzero
            return all(map(or_, b[:d], b[d:]))

        # spans: one plane, all of the quotient; par[u]: u's class of parallels
        spans, after, par = d + 2 == full, 0, list(range(len(ks)))
        for t in reversed(range(len(ks))):
            x, bt, planes = vecs[t], blocks[t], {}
            p = next(itertools.compress(range(k), map(or_, x, x[k:])))
            xp = x[p], x[k + p]
            nodes += last - ks[t] + after  # S + t and each S + t + u; a parallel u is taken back
            after += last - ks[t]
            for u, y in enumerate(vecs[t + 1:], t + 1):
                up = y[p], y[k + p]
                w = combine(xp, y, up, x)
                if any(w):
                    planes.setdefault(spans or line_key(w), []).append((u, w, up))
                else:
                    nodes -= last - ks[u]
                    par[t] = par[u]
                    if nonzero(combine(xp, blocks[u], up, bt)):
                        out.append(tuple(members + [ks[t], ks[u]]))
            if nodes > node_budget:
                raise BudgetExceededError("all_circuits_upto", node_budget)
            for plane in planes.values():
                if len(plane) > 1:
                    w = plane[0][1]
                    q = next(itertools.compress(range(k), map(or_, w, w[k:])))
                    plane = [(u, (w[q], w[k + q]), combine(xp, blocks[u], up, bt)) for u, w, up in plane]
                    for (u, ru, bu), (v, rv, bv) in itertools.combinations(plane, 2):
                        if par[u] != par[v] and nonzero(combine(ru, bv, rv, bu)):
                            out.append(tuple(members + [ks[t], ks[u], ks[v]]))

    def extend(members, ks, carried, prev):
        nonlocal nodes
        d, at = len(members), n + len(members) * deg
        live_ks, live = [], []
        for k, rows in zip(ks, carried):
            if any(rows[0][:n]):
                live_ks.append(k)
                live.append(rows)
            elif all(map(any, zip(*[iter(rows[0][n:at])] * deg))):  # every member's block nonzero
                out.append(tuple(members + [k]))
        nodes += m.ground_size - (members[-1] + 1 if members else 0)
        if nodes > node_budget:
            raise BudgetExceededError("all_circuits_upto", node_budget)
        if d + 3 == kmax:
            last_two(members, live_ks, live)
        elif d + 1 < kmax:
            for t, rows in enumerate(live):
                later, pivot = live[t + 1:], prev
                if later:  # else the node below only counts its nodes
                    moved = [v[:at] + v[own:] + v[at + deg:own] + [0] * deg for v in rows]
                    steps = _steps(moved, prev, n)  # with t's last block moved to block d
                    keep = 1 if d + 4 == kmax else deg  # last_two reads first rows only
                    later, pivot = [[_reduce(v, steps) for v in vs[:keep]] for vs in later], steps[-1][2]
                extend(members + [live_ks[t]], live_ks[t + 1:], later, pivot)

    extend([], range(m.ground_size),
           [[list(row) + units[r] for r, row in enumerate(rows)] for rows in m.rows], 1)
    del extend  # it refers to itself: break the cycle, so the search is freed now, not by gc
    return sorted(out)
