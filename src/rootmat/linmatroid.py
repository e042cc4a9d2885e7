"""The linear matroid of a root system: rank oracle and circuit enumeration.

Every matroid is held as integer rows, computed once from the line
coordinates.  A rational line becomes its primitive integer multiple.  A
line a + b*sqrt(5) over Q(sqrt 5), with a and b integer vectors after
clearing denominators, becomes the two rows [a | b] and [5b | a]; their
rational span is the Q(sqrt 5)-span of the line (restriction of scalars),
so a rank over Q(sqrt 5) is the integer rank divided by the degree 2.
All elimination is on integer rows kept primitive (each divided by the
gcd of its entries), through one incremental echelon form.

The circuit enumeration needs no rank oracle: each row it reduces carries
integer coefficient columns that record which members' rows it combines,
so a dependent candidate's reduced row holds its dependency, and the
candidate is a circuit exactly when no member's coefficient is zero.

Circuits are emitted as sorted index tuples in lexicographic order, so all
dumps are byte-reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import BudgetExceededError
from .scalar import integer_parts


@dataclass(frozen=True)
class LinearMatroid:
    ground_size: int
    rows: tuple  # rows[i]: the `degree` integer rows of element i
    degree: int  # 1 over Q, 2 over Q(sqrt 5)

    @staticmethod
    def from_vectors(vectors) -> "LinearMatroid":
        parts = [integer_parts(v) for v in vectors]
        degree = 2 if any(any(b) for _, b in parts) else 1
        rows = []
        for a, b in parts:
            if degree == 1:
                rows.append((_primitive(a),))
            else:
                rows.append((_primitive(a + b), _primitive([5 * y for y in b] + a)))
        return LinearMatroid(len(rows), tuple(rows), degree)


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


def _eliminate(vec, pivot_row, col):
    """Clear column col of vec with pivot_row (nonzero there), kept primitive."""
    if not vec[col]:
        return vec
    p, f = pivot_row[col], vec[col]
    return _primitive([p * a - f * b for a, b in zip(vec, pivot_row)])


class _Echelon:
    """Incremental integer row echelon form (for rank and the circuit DFS)."""

    def __init__(self):
        self.rows = []  # primitive rows, each reduced against the earlier ones
        self.pivots = []

    def reduce(self, vec):
        for row, p in zip(self.rows, self.pivots):
            vec = _eliminate(vec, row, p)
        return vec

    def push(self, reduced_vec):
        p = next(i for i, c in enumerate(reduced_vec) if c)
        self.rows.append(reduced_vec)
        self.pivots.append(p)

    def pop(self):
        self.rows.pop()
        self.pivots.pop()


def rank(m: LinearMatroid, subset) -> int:
    ech = _Echelon()
    for i in subset:
        if not 0 <= i < m.ground_size:
            raise IndexError(f"element {i} out of range")
        # the span so far is closed under sqrt(5): the first row of i decides
        first, *rest = m.rows[i]
        reduced = ech.reduce(first)
        if any(reduced):
            ech.push(reduced)
            for row in rest:
                ech.push(ech.reduce(row))
    return len(ech.rows) // m.degree


# -- order-3 circuits -----------------------------------------------------


def _span_key(rows):
    """Canonical label of the rational row space of integer rows.

    Gauss-Jordan elimination clears each pivot column in every other row
    and leaves each row primitive with a positive pivot: the reduced row
    echelon form up to a positive scale per row, which depends only on the
    space.
    """
    done, rest = [], list(rows)
    for col in range(len(rows[0])):
        k = next((k for k, r in enumerate(rest) if r[col]), None)
        if k is None:
            continue
        piv = rest.pop(k)
        if piv[col] < 0:
            piv = tuple(-c for c in piv)
        done = [_eliminate(r, piv, col) for r in done]
        rest = [_eliminate(r, piv, col) for r in rest]
        done.append(piv)
    return tuple(done)


def circuits3(m: LinearMatroid):
    """All 3-element circuits, sorted lexicographically.

    No two ground elements are parallel in a root-system matroid, so a
    triple is a circuit exactly when it is coplanar; grouping elements by
    the plane spanned with a partner enumerates these without scanning
    every triple.
    """
    planes = {}
    for i, j in itertools.combinations(range(m.ground_size), 2):
        key = _span_key(m.rows[i] + m.rows[j])
        bucket = planes.setdefault(key, set())
        bucket.add(i)
        bucket.add(j)
    out = set()
    for bucket in planes.values():
        if len(bucket) >= 3:
            out.update(itertools.combinations(sorted(bucket), 3))
    return sorted(out)


# -- bounded circuit enumeration ------------------------------------------

DEFAULT_NODE_BUDGET = 5_000_000


def all_circuits_upto(m: LinearMatroid, kmax, node_budget=DEFAULT_NODE_BUDGET):
    """All circuits of order <= kmax, lexicographically sorted.

    Depth-first over independent sets in lexicographic order; a set is
    only extended while independent (every circuit is some independent
    prefix plus one dependent element).  Raises BudgetExceededError when
    the search frontier exceeds node_budget nodes.

    Each row in the echelon carries kmax * degree coefficient columns (at
    most (dim + 1) * degree) after its n vector columns; a pushed row is
    nonzero in the vector columns, so every pivot is one of them.  Row r of
    the element at depth d starts with a unit in column n + d * degree + r;
    elimination is linear, so every reduced row is its vector part next to
    the integer combination of the members' rows that produced it.  When
    the first row of a candidate reduces to zero in the vector columns, its
    coefficient columns hold the dependency of the candidate set, scaled.
    The current set is independent, so that dependency is unique up to a
    scalar of the field, and the set is a circuit exactly when every
    member's coefficient is nonzero (the candidate's own is, by
    construction).  Over Q(sqrt 5) a member's two columns (alpha, beta)
    give the coefficient alpha + beta*sqrt(5) (row 1 is sqrt(5) times
    row 0), which is zero only when both are.
    """
    if kmax < 1 or not m.ground_size:
        return []
    out = []
    ech = _Echelon()
    nodes = 0
    deg = m.degree
    n = len(m.rows[0][0])
    # A circuit has at most dim + 1 = n // deg + 1 elements, so no deeper
    # candidate exists and a huge kmax needs no more columns.
    width = min(kmax, n // deg + 1) * deg
    units = [tuple(int(c == j) for c in range(width)) for j in range(width)]

    def extend(current):
        nonlocal nodes
        d = len(current)
        start = current[-1] + 1 if current else 0
        for k in range(start, m.ground_size):
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceededError("all_circuits_upto", node_budget)
            # Over Q(sqrt 5) the span of the current rows is closed under
            # multiplication by sqrt(5), so the first row of k alone
            # decides whether k depends on the current set.
            rows = m.rows[k]
            reduced = ech.reduce(rows[0] + units[d * deg])
            if any(reduced[:n]):
                if d + 1 < kmax:
                    ech.push(reduced)
                    for r in range(1, deg):
                        ech.push(ech.reduce(rows[r] + units[d * deg + r]))
                    extend(current + [k])
                    for _ in rows:
                        ech.pop()
            elif all(any(reduced[n + j * deg:n + (j + 1) * deg]) for j in range(d)):
                out.append(tuple(current + [k]))

    extend([])
    return sorted(out)


# -- combinatorial circuit shapes for the classical families --------------


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
    from .rootsystems import canonical_line  # local import avoids a cycle

    index = {}
    dim = len(system.lines[0])
    for label, vec in _classical_line_vectors(fam, n, dim):
        index[label] = system.lines.index(canonical_line(vec))
    return index


def _classical_line_vectors(fam, n, dim):
    nverts = n + 1 if fam == "A" else n
    for i in range(nverts):
        for j in range(i + 1, nverts):
            black = [Fraction(0)] * dim
            black[i], black[j] = Fraction(1), Fraction(-1)
            yield ("black", i, j), black
            if fam != "A":
                red = [Fraction(0)] * dim
                red[i], red[j] = Fraction(1), Fraction(1)
                yield ("red", i, j), red
    if fam == "B":
        for i in range(nverts):
            mark = [Fraction(0)] * dim
            mark[i] = Fraction(1)
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
