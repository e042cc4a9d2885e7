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
member's coefficient is zero.  Its last level is keyed as C3 is:
S + t + u can be a circuit only when u lies in span(S + t), that is when
the reduced vector parts of t and u span one line over Q, or one rational
plane over Q(sqrt 5).  So the candidates are bucketed by the primitive
vector of that line or the primitive Pluecker vector of that plane, and u
is reduced against t only within a bucket.

Circuits are emitted as sorted index tuples in lexicographic order, so all
dumps are byte-reproducible.
"""

from __future__ import annotations

import itertools
from math import gcd

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
        parts = [(list(v[:len(v) // 2]), list(v[len(v) // 2:])) for v in vectors]
        degree = 2 if any(any(b) for _, b in parts) else 1
        rows = tuple((_primitive(a),) if degree == 1
                     else (_primitive(a + b), _primitive([5 * y for y in b] + a)) for a, b in parts)
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


def _steps(rows, prev=1):
    """The steps of independent rows, each reduced by those before it, from pivot prev."""
    steps = [_step(rows[0], prev)]
    for v in rows[1:]:
        steps.append(_step(_reduce(v, steps), steps[-1][2]))
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


def _span_key(rows, n):
    """A key of the rational span of the vector parts rows[r][:n] of one or two rows.

    One row spans a line, keyed by its primitive vector; two independent
    rows span a plane, keyed by the primitive vector of their 2 x 2 minors
    (Pluecker coordinates); the sign makes the first nonzero entry positive.
    """
    v = rows[0][:n]
    if len(rows) == 2:
        w = rows[1]
        v = [a * w[j] - v[j] * w[i] for i, a in enumerate(v) for j in range(i + 1, n)]
    g = gcd(*v) if next(filter(None, v)) > 0 else -gcd(*v)
    return tuple(map(g.__rfloordiv__, v))  # each c // g


def all_circuits_upto(m: LinearMatroid, kmax, node_budget=DEFAULT_NODE_BUDGET):
    """All circuits of order <= kmax, lexicographically sorted.

    Depth-first over independent sets S in lexicographic order; a set is
    only extended while independent (every circuit is some independent
    prefix plus one dependent element).  Raises BudgetExceededError when
    the search frontier exceeds node_budget nodes, a node counting one for
    every element after the last member of S.

    A node carries its candidates' rows (the elements after S not in
    span(S)) reduced against S: pushing a member j is one level, j's
    `degree` rows reducing the candidates after j by one `_reduce` step
    each.  A row is n vector columns, one block of `degree` coefficient
    columns per depth and a last block for the candidate (a unit in column
    r of row r at the start), moved to block d when it is pushed at depth
    d, so a reduced row is its vector part next to the integer combination
    of rows that produced it.  A candidate whose first row is zero in the
    vector columns lies in span(S); its blocks hold the dependency of S
    plus it, unique up to a scalar as S is independent, and the set is a
    circuit exactly when every member's block is nonzero.  Over Q(sqrt 5)
    a block (alpha, beta) is the coefficient alpha + beta*sqrt(5) (row 1 is
    sqrt(5) times row 0); span(S) is closed under sqrt(5), so the first row
    alone decides.  Such a candidate is dropped: below a further member j
    its dependency is the same, 0 at j, so it closes no circuit through j.

    The nodes of kmax - 1 members are not entered.  Such a node S + t
    could only close the circuits S + t + u with u a later candidate in
    span(S + t), which holds exactly when the reduced vector parts of t and
    u span one space (`_span_key`; a space, not a vector, since span(S) is
    closed under sqrt(5)).  So S buckets its candidates by that key, or
    puts them in one bucket when S + t spans the matroid, and reduces u
    against t only within a bucket (`close_pairs`); each S + t is still
    counted, so the budget is spent as if it were entered.
    """
    if kmax < 1 or not m.ground_size:
        return []
    out, nodes, deg, n = [], 0, m.degree, len(m.rows[0][0])
    full = rank(m, range(m.ground_size))
    # no set of more than dim = n // deg members is extended, so a huge
    # kmax needs no more blocks; the candidate's own block comes last
    own = n + (min(kmax, n // deg + 1) - 1) * deg
    units = [[0] * (own - n) + [int(c == r) for c in range(deg)] for r in range(deg)]

    def closes(blocks):  # every member's block nonzero; over Q(sqrt 5) a block is a pair
        return all(blocks if deg == 1 else map(any, zip(blocks[::2], blocks[1::2])))

    def close_pairs(members, at, ks, live, bucket):
        # the bucket's vector parts span one space, met independently by the
        # pivot columns of its first candidate's rows: each candidate is cut
        # once to its rows on those columns and its member blocks, and u's
        # first row reduced by t's cut rows leaves the blocks of S + t + u
        cols = [c for _, c, _, _ in _steps([v[:n] for v in live[bucket[0]]])]
        cut = [[[v[c] for c in cols] + v[n:at] for v in live[t]] for t in bucket]
        for i in range(len(cut) - 1):
            steps = _steps(cut[i])
            for j in range(i + 1, len(cut)):
                if closes(_reduce(cut[j][0], steps)[deg:]):
                    out.append(tuple(members + [ks[bucket[i]], ks[bucket[j]]]))

    def extend(members, ks, carried, prev):
        nonlocal nodes
        d, at = len(members), n + len(members) * deg
        live_ks, live = [], []
        for k, rows in zip(ks, carried):
            if any(rows[0][:n]):
                live_ks.append(k)
                live.append(rows)
            elif closes(rows[0][n:at]):
                out.append(tuple(members + [k]))
        nodes += m.ground_size - (members[-1] + 1 if members else 0)
        if d + 2 == kmax:  # the last level: its children S + t are counted, not entered
            nodes += len(live_ks) * (m.ground_size - 1) - sum(live_ks)
        if nodes > node_budget:
            raise BudgetExceededError("all_circuits_upto", node_budget)
        if d + 2 == kmax:
            if d + 1 == full:  # S + t spans the matroid: one bucket
                buckets = [range(len(live))]
            else:
                buckets = {}
                for t, rows in enumerate(live):
                    buckets.setdefault(_span_key(rows, n), []).append(t)
                buckets = buckets.values()
            for bucket in buckets:
                if len(bucket) > 1:
                    close_pairs(members, at, live_ks, live, bucket)
        elif d + 1 < kmax:
            for t, rows in enumerate(live):
                later, pivot = live[t + 1:], prev
                if later:  # else the node below only counts its nodes
                    moved = [v[:at] + v[own:] + v[at + deg:own] + [0] * deg for v in rows]
                    steps = _steps(moved, prev)  # with t's last block moved to block d
                    later, pivot = [[_reduce(v, steps) for v in vs] for vs in later], steps[-1][2]
                extend(members + [live_ks[t]], live_ks[t + 1:], later, pivot)

    extend([], range(m.ground_size),
           [[list(row) + units[r] for r, row in enumerate(rows)] for rows in m.rows], 1)
    del extend  # it refers to itself: break the cycle, so the search is freed now, not by gc
    return sorted(out)
