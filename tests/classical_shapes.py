"""Reference circuit catalogue for the classical families, from graph shapes.

A test-side check of the circuit enumerator: the circuits of A_n, B_n and
D_n read off combinatorial shapes (cycles, dumbbells, marked paths) with no
linear algebra at all.
"""

import itertools

from rootmat.errors import BudgetExceededError
from rootmat.linmatroid import DEFAULT_NODE_BUDGET
from rootmat.rootsystems import line_key


def classical_circuits(system, kmax, node_budget=DEFAULT_NODE_BUDGET):
    """Circuits of an A/B/D system from their graph shapes, no linear algebra.

    Encode each line as an edge or mark on the vertex set {e_1..e_N}:
    a black edge {i,j} is the line e_i - e_j, a red edge is e_i + e_j, a
    mark on i is the line e_i.  Circuits are exactly:

      A_n: cycles (black edges only);
      D_n: cycles with an even number of red edges, or two odd-red cycles
           (length 2 allowed: the red+black digon) joined by a path, which
           may be trivial when the cycles share a vertex;
      B_n: the D_n shapes, or a path whose two end vertices are marked, or
           an odd-red cycle joined by a (possibly trivial) path to a single
           marked vertex.

    The circuit order is the number of edges plus the number of marks.
    """
    fam = system.family
    if fam not in ("A", "B", "D"):
        raise ValueError("classical_circuits covers the A, B, D families only")
    n = system.rank_param
    nverts = n + 1 if fam == "A" else n
    index = _classical_line_index(system, fam, n)
    out = set()
    budget = [node_budget, node_budget]  # [nodes left, configured budget]

    def emit(edges, marks=()):
        lines = [index[e] for e in edges] + [index[("mark", i)] for i in marks]
        out.add(tuple(sorted(lines)))

    if fam == "A":
        for edges in _cycles(nverts, kmax, colored=False, budget=budget):
            emit(edges)
        return sorted(out)

    for edges in _cycles(nverts, kmax, colored=True, budget=budget):
        if _red_count(edges) % 2 == 0:
            emit(edges)
    for edges in _dumbbells(nverts, kmax, budget):
        emit(edges)
    if fam == "D":
        return sorted(out)

    # B_n extras: marked paths and odd-red cycles with one marked vertex.
    for edges, ends in _paths(nverts, kmax - 2, budget):
        emit(edges, marks=ends)
    for edges, mark in _cycle_with_tail(nverts, kmax - 1, budget):
        emit(edges, marks=(mark,))
    return sorted(out)


def _classical_line_index(system, fam, n):
    dim = system.ambient_dim
    return {label: system.line_index[line_key(vec + [0] * dim)]
            for label, vec in _classical_line_vectors(fam, n, dim)}


def _classical_line_vectors(fam, n, dim):
    nverts = n + 1 if fam == "A" else n
    for i in range(nverts):
        for j in range(i + 1, nverts):
            black = [0] * dim
            black[i], black[j] = 1, -1
            yield ("black", i, j), black
            if fam != "A":
                red = [0] * dim
                red[i], red[j] = 1, 1
                yield ("red", i, j), red
    if fam == "B":
        for i in range(nverts):
            mark = [0] * dim
            mark[i] = 1
            yield ("mark", i), mark


def _edge(color, i, j):
    return (color, i, j) if i < j else (color, j, i)


def _red_count(edges):
    return sum(1 for e in edges if e[0] == "red")


def _spend(budget):
    budget[0] -= 1
    if budget[0] < 0:
        raise BudgetExceededError("classical_circuits", budget[1])


def _cycles(nverts, max_edges, colored, budget):
    """All cycle edge sets with <= max_edges edges (length >= 3 here;
    digons only occur inside dumbbells)."""
    seen = set()
    for size in range(3, max_edges + 1):
        for verts in itertools.combinations(range(nverts), size):
            for order in _cyclic_orders(verts):
                edges_plain = [
                    (order[k], order[(k + 1) % size]) for k in range(size)
                ]
                colorings = (
                    itertools.product(("black", "red"), repeat=size)
                    if colored
                    else [("black",) * size]
                )
                for colors in colorings:
                    _spend(budget)
                    edges = frozenset(
                        _edge(c, a, b) for c, (a, b) in zip(colors, edges_plain)
                    )
                    if len(edges) == size and edges not in seen:
                        seen.add(edges)
                        yield edges


def _cyclic_orders(verts):
    """Vertex orders modulo rotation and reflection (fix the first vertex)."""
    first, rest = verts[0], verts[1:]
    for perm in itertools.permutations(rest):
        if len(perm) < 2 or perm[0] < perm[-1]:
            yield (first,) + perm


def _odd_cycles_on(verts, budget):
    """Odd-red cycle edge sets covering exactly the given vertices."""
    if len(verts) == 2:
        i, j = verts
        _spend(budget)
        yield frozenset({_edge("black", i, j), _edge("red", i, j)}), 2
        return
    size = len(verts)
    for order in _cyclic_orders(tuple(verts)):
        edges_plain = [(order[k], order[(k + 1) % size]) for k in range(size)]
        for colors in itertools.product(("black", "red"), repeat=size):
            if colors.count("red") % 2 == 0:
                continue
            _spend(budget)
            edges = frozenset(
                _edge(c, a, b) for c, (a, b) in zip(colors, edges_plain)
            )
            if len(edges) == size:
                yield edges, size


def _simple_paths(start, end, avoid, nverts, max_edges, budget):
    """Colored simple paths from start to end avoiding the given vertices."""
    def walk(v, used, edges):
        if len(edges) > max_edges:
            return
        if v == end:
            yield frozenset(edges)
            return
        for w in range(nverts):
            if w in used or (w in avoid and w != end):
                continue
            for color in ("black", "red"):
                _spend(budget)
                yield from walk(w, used | {w}, edges + [_edge(color, v, w)])

    if start == end:
        yield frozenset()
        return
    yield from walk(start, {start} | (avoid - {end}), [])


def _dumbbells(nverts, max_edges, budget):
    """Two odd-red cycles joined by a (possibly trivial) path."""
    verts = range(nverts)
    for size1 in range(2, nverts + 1):
        for vs1 in itertools.combinations(verts, size1):
            for cyc1, e1 in _odd_cycles_on(vs1, budget):
                if e1 + 2 > max_edges:
                    continue
                # second cycle shares exactly one vertex (trivial path)...
                for size2 in range(2, nverts + 1):
                    for vs2 in itertools.combinations(verts, size2):
                        common = set(vs1) & set(vs2)
                        if len(common) == 1:
                            for cyc2, e2 in _odd_cycles_on(vs2, budget):
                                if e1 + e2 <= max_edges:
                                    yield cyc1 | cyc2
                        elif not common:
                            # ...or is disjoint, joined by a nonempty path
                            for cyc2, e2 in _odd_cycles_on(vs2, budget):
                                room = max_edges - e1 - e2
                                if room < 1:
                                    continue
                                for a in vs1:
                                    for b in vs2:
                                        avoid = (set(vs1) | set(vs2)) - {b}
                                        for path in _simple_paths(
                                            a, b, avoid, nverts, room, budget
                                        ):
                                            if path:
                                                yield cyc1 | cyc2 | path


def _paths(nverts, max_edges, budget):
    """Simple colored paths with both (distinct) endpoints marked."""
    for a in range(nverts):
        for b in range(a + 1, nverts):
            for path in _simple_paths(a, b, set(), nverts, max_edges, budget):
                if path:
                    yield path, (a, b)


def _cycle_with_tail(nverts, max_edges, budget):
    """Odd-red cycle plus a (possibly trivial) path to one marked vertex."""
    verts = range(nverts)
    for size in range(2, nverts + 1):
        for vs in itertools.combinations(verts, size):
            for cyc, e in _odd_cycles_on(vs, budget):
                if e > max_edges:
                    continue
                for mark in vs:  # trivial path: mark on the cycle
                    yield cyc, mark
                room = max_edges - e
                if room < 1:
                    continue
                for a in vs:
                    for mark in verts:
                        if mark in vs:
                            continue
                        avoid = set(vs) - {a}
                        for path in _simple_paths(
                            a, mark, avoid | set(vs) - {a, mark}, nverts, room, budget
                        ):
                            if path:
                                yield cyc | path, mark
