"""Reference circuit enumeration, an independent check of `linmatroid.all_circuits_upto`.

It enters the same search nodes as the enumeration in `src/`, in the same
order, and counts them the same way, so it must return the same circuits
and exceed the same budgets.  It differs only in its arithmetic, so the two
share no elimination code: a line over Q(sqrt 5) is restricted to Q as the
two integer rows [a | b] and [5b | a], and rows are reduced by
fraction-free (Bareiss) steps, `_reduce`, where the enumeration combines
Z[sqrt 5] rows (a | b) and makes each primitive (`linmatroid._clear`).
"""

from math import gcd

from rootmat.errors import BudgetExceededError
from rootmat.linmatroid import DEFAULT_NODE_BUDGET


def _primitive(vec):
    """The integer vector divided by the gcd of its entries."""
    g = gcd(*vec)
    # tuple() of a list, not of a generator: a generator's tuple is grown by
    # reallocation, and each one freed would park in its size's free list
    return tuple([c // g for c in vec]) if g > 1 else tuple(vec)


def restricted_rows(vectors):
    """(degree, rows): each vector (a | b)'s integer rows, a over Q, [a | b] and [5b | a] over Q(sqrt 5)."""
    h = len(vectors[0]) // 2 if vectors else 0
    degree = 2 if any(any(v[h:]) for v in vectors) else 1
    rows = [_primitive(v[:h * degree]) for v in vectors]  # a, or (a | b) and then (5b | a)
    rows = tuple((r,) if degree == 1 else (r, tuple([5 * y for y in r[h:]]) + r[:h]) for r in rows)
    return degree, rows


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


def pairwise_circuits(m, kmax, node_budget=DEFAULT_NODE_BUDGET):
    """All circuits of order <= kmax, lexicographically sorted, one child node at a time."""
    if kmax < 1 or not m.ground_size:
        return []
    deg, element_rows = restricted_rows(m.vectors)
    out, nodes, n = [], 0, len(element_rows[0][0])
    own = n + (min(kmax, n // deg + 1) - 1) * deg
    units = [[0] * (own - n) + [int(c == r) for c in range(deg)] for r in range(deg)]

    def extend(members, ks, carried, prev):
        nonlocal nodes
        nodes += m.ground_size - (members[-1] + 1 if members else 0)
        if nodes > node_budget:
            raise BudgetExceededError("all_circuits_upto", node_budget)
        d, at = len(members), n + len(members) * deg
        live_ks, live = [], []
        for k, rows in zip(ks, carried):
            first = rows[0]
            if any(first[:n]):
                live_ks.append(k)
                live.append(rows)
            elif all(first[n:at] if deg == 1 else map(any, zip(first[n:at:2], first[n + 1:at:2]))):
                out.append(tuple(members + [k]))
        if d + 1 < kmax:
            for t, rows in enumerate(live):
                later, pivot = live[t + 1:], prev
                if later:
                    steps = []
                    for v in rows:
                        v = v[:at] + v[own:] + v[at + deg:own] + [0] * deg
                        steps.append(_step(_reduce(v, steps), steps[-1][2] if steps else prev))
                    later, pivot = [[_reduce(v, steps) for v in vs] for vs in later], steps[-1][2]
                extend(members + [live_ks[t]], live_ks[t + 1:], later, pivot)

    extend([], range(m.ground_size),
           [[list(row) + units[r] for r, row in enumerate(rows)] for rows in element_rows], 1)
    del extend
    return sorted(out)
