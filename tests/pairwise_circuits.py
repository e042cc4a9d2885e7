"""Reference circuit enumeration that reduces every pair at the last level.

A test-side copy of `linmatroid.all_circuits_upto` as it was before its
last level bucketed the candidates by span: every child node S + t of the
last level is entered, counted and closed by reducing each later candidate
against t.  It shares the Bareiss kernel (`_reduce`, `_step`) and the node
count, so it must return the same circuits and exceed the same budgets.
"""

from rootmat.errors import BudgetExceededError
from rootmat.linmatroid import DEFAULT_NODE_BUDGET, _reduce, _step


def pairwise_circuits(m, kmax, node_budget=DEFAULT_NODE_BUDGET):
    """All circuits of order <= kmax, lexicographically sorted, one child node at a time."""
    if kmax < 1 or not m.ground_size:
        return []
    out, nodes, deg, n = [], 0, m.degree, len(m.rows[0][0])
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
           [[list(row) + units[r] for r, row in enumerate(rows)] for rows in m.rows], 1)
    del extend
    return sorted(out)
