"""The linear matroid of a root system: C3, rank oracle and circuit enumeration.

C3 comes straight from the integer line vectors (a | b), coordinate k
being a_k + b_k*sqrt(5): a plane through a line v is keyed by the line_key
of any other of its lines reduced modulo v, one Z[sqrt 5] elimination step.

The rank oracle and the circuit enumeration hold the matroid as integer
rows, built once from the same vectors.  When every b is zero the matroid
is over Q and a line becomes the one row a.  Otherwise it is over
Q(sqrt 5) and a line becomes the two rows [a | b] and [5b | a]; their
rational span is the Q(sqrt 5)-span of the line (restriction of scalars),
so a rank over Q(sqrt 5) is the integer rank divided by the degree 2.
All rows are kept primitive (divided by the gcd of their entries) through
one incremental echelon form.

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
from math import gcd

from .errors import BudgetExceededError
from .rootsystems import combine, line_key


@dataclass(frozen=True)
class LinearMatroid:
    ground_size: int
    rows: tuple  # rows[i]: the `degree` integer rows of element i
    degree: int  # 1 over Q, 2 over Q(sqrt 5)

    @staticmethod
    def from_vectors(vectors) -> "LinearMatroid":
        """The matroid of integer vectors (a | b), each the line a + b*sqrt(5)."""
        parts = [(list(v[:len(v) // 2]), list(v[len(v) // 2:])) for v in vectors]
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


def circuits3(lines):
    """All 3-element circuits of integer lines (a | b), sorted lexicographically.

    With no parallel pair, a triple i < j < k is a circuit exactly when it
    is coplanar.  Let p be the first nonzero coordinate of v = lines[i].
    The map x -> v[p] x - x[p] v is Q(sqrt 5)-linear with kernel the line
    of v, so lines j and k map to one line_key exactly when {i, j, k} is
    coplanar: each bucket of line i gives its pairs (j, k).  A zero vector,
    or a later line parallel to v (mapped to zero), raises ValueError.
    """
    out = []
    for i, v in enumerate(lines):
        # line_key raises ValueError on a zero v, and keeps its first nonzero coordinate
        p, n = next(k for k, c in enumerate(line_key(v)) if c), len(v) // 2
        vp, buckets = (v[p], v[n + p]), {}
        for j, x in enumerate(lines[i + 1:], i + 1):
            w = combine(vp, x, (x[p], x[n + p]), v)
            if any(x) and not any(w):
                raise ValueError(f"lines {i} and {j} are parallel")
            buckets.setdefault(line_key(w), []).append(j)
        for bucket in buckets.values():
            out.extend((i, j, k) for j, k in itertools.combinations(bucket, 2))
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
