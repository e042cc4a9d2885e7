"""Root systems as lists of antipodal-line representatives.

Every coordinate is an element a + b*sqrt(5) of Z[sqrt 5], and a vector is
stored as the integer vector (a | b) of its 2 * dim parts; the rational
families have b = 0.  Only one representative per pair {v, -v} is kept:
the line_key of the line, which makes the representative of a line unique
and so silently realizes the quotients by -Id and by the antipodal
subgroup that appear in the classification.

Root lengths are irrelevant to the matroid, so each root is scaled for
convenience: the half-integer roots of E8 and D'4 are doubled, and the
golden-ratio coordinates of H3/H4 are doubled into Z[sqrt 5], e.g.
2*phi = 1 + sqrt(5) is the pair (1, 1).

A family is one row of FAMILIES (see Family), which build, the id
parsers, K(R) and expected_aut_order read.

K(R) is generated by the reflections in the simple roots of the positive
system the stored lines form, plus the row's extra maps.  At rank <= 2 it
is Sym(X) on line indices, as the matroid is uniform once C3 is every
triple; I2(m)'s stored lines (1, k), k < m, realize its matroid U_{2,m}
but are not its roots.
"""

from __future__ import annotations

import itertools
import re
from functools import cached_property
from math import factorial, gcd
from operator import mul

class RootSystem:
    def __init__(self, family, rank_param, ambient_dim, lines, components=()):
        self.family = family
        self.rank_param = rank_param
        self.ambient_dim = ambient_dim
        self.lines = lines  # integer vectors (a | b), each the line_key of its line
        self.components = components  # direct sums only

    @property
    def system_id(self) -> str:
        if self.family == "DirectSum":
            return "+".join(c.system_id for c in self.components)
        return self.family if FAMILIES[self.family].least is None else (
            series_prefix(self.family) + str(self.rank_param))

    @property
    def matroid(self) -> str:
        """The id of the system whose matroid this one has: its row's matroid, else its own;
        a direct sum's joins its components' (D4+D4 for D4+Dprime4)."""
        if self.family == "DirectSum":
            return "+".join(c.matroid for c in self.components)
        row = FAMILIES[self.family]
        return row.matroid(self.rank_param) if row.matroid else self.system_id

    @cached_property
    def line_index(self):
        """line_key -> line index; built once, it serves every K(R) generator."""
        return {x: i for i, x in enumerate(self.lines)}

    @property
    def num_lines(self) -> int:
        return len(self.lines)

    @property
    def rank(self) -> int:
        """Dimension of the span of the roots."""
        if self.family == "DirectSum":
            return sum(c.rank for c in self.components)
        return FAMILIES[self.family].rank or self.rank_param


def _e(i, dim):
    v = [0] * dim
    v[i] = 1
    return v


def _lines(roots, dim):
    """The line_key of each root's line, in order of first occurrence.

    A root is an integer vector (a | b), or just a when it is rational.
    """
    return tuple(dict.fromkeys(
        line_key(r if len(r) == 2 * dim else tuple(r) + (0,) * dim) for r in roots))


def _d_roots(n):
    """e_i + e_j and e_i - e_j for i < j."""
    return [tuple(1 if k == i else s if k == j else 0 for k in range(n))
            for i in range(n) for j in range(i + 1, n) for s in (1, -1)]


def _dprime4_roots():
    # Doubled coordinates: 2*e_i and all (+-1, +-1, +-1, +-1).
    roots = [tuple(2 * c for c in _e(i, 4)) for i in range(4)]
    roots.extend(itertools.product((1, -1), repeat=4))
    return roots


def _dot(u, v):
    return sum(map(mul, u, v))


def _e_roots(n):
    # E8: the roots of D8 and the half-integer roots, doubled to (+-1)^8 with
    # an even number of -1s; E7: those orthogonal to e7 + e8; E6: to e6 + e8 as well
    roots = _d_roots(8) + [signs for signs in itertools.product((1, -1), repeat=8)
                           if signs.count(-1) % 2 == 0]
    normals = [(0,) * 6 + (1, 1), (0,) * 5 + (1, 0, 1)][:8 - n]
    return [r for r in roots if all(_dot(r, w) == 0 for w in normals)]


def _golden(a, b, signs, order):
    """(a | b) of the vector whose coordinate k is signs[k] * (a + b*sqrt5)[order[k]]."""
    return (tuple(s * a[i] for s, i in zip(signs, order))
            + tuple(s * b[i] for s, i in zip(signs, order)))


def _h3_roots():
    # Icosidodecahedron directions: cyclic shifts of (0, 0, 2*phi) and of
    # (+-1, +-phi, +-phi^2), the latter doubled to (+-2, +-2*phi, +-2*phi^2),
    # where 2*phi = 1 + sqrt(5) and 2*phi^2 = 3 + sqrt(5).
    a, b = (2, 1, 3), (0, 1, 1)
    roots = []
    for shift in range(3):
        axis = tuple(_e(shift, 3))
        roots.append(axis + axis)
        order = [(k + shift) % 3 for k in range(3)]
        roots.extend(_golden(a, b, s, order) for s in itertools.product((1, -1), repeat=3))
    return roots


def _h4_roots():
    # doubled unit quaternions: permutations of (+-2, 0, 0, 0)
    roots = [[2 * s * c for c in _e(i, 4)] for i in range(4) for s in (1, -1)]
    # (+-1, +-1, +-1, +-1)
    roots.extend(itertools.product((1, -1), repeat=4))
    # even permutations of (0, +-1, +-1/phi, +-phi), doubled from halves and
    # doubled again into Z[sqrt 5]: 2/phi = -1 + sqrt(5), 2*phi = 1 + sqrt(5)
    a, b = (0, 2, -1, 1), (0, 0, 1, 1)
    for order in itertools.permutations(range(4)):
        if sum(x > y for x, y in itertools.combinations(order, 2)) % 2 == 0:
            roots.extend(_golden(a, b, s, order) for s in itertools.product((1, -1), repeat=4))
    return roots


F4_DUALITY_MATRIX = ((1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1))


def _d_extra(n):
    """D_n (n >= 5): the sign flip e1 -> -e1, in B_n the reflection in e1.  D4:
    the reflections in D'4's lines, the short roots of F4 (triality comes for free)."""
    if n >= 5:
        return [lambda x: (-x[0],) + x[1:n] + (-x[n],) + x[n + 1:]]
    return [reflection(v) for v in build("Dprime4").lines]


def _f4_duality(x):
    """F4_DUALITY_MATRIX on both halves of x = (a | b): it swaps F4's two D4 copies."""
    return [_dot(row, half) for half in (x[:4], x[4:]) for row in F4_DUALITY_MATRIX]


def _conj_swap(x):
    """H3/H4: Galois conjugation, b -> -b on x = (a | b), then a swap of the last two coordinates.

    Both preserve linear dependence.  Conjugation reverses the golden-ratio
    pattern, an odd permutation, so alone it maps the line set to its mirror
    image in these coordinates; the swap brings it back."""
    n = len(x) // 2
    order = [*range(n - 2), n - 1, n - 2]
    return [x[k] for k in order] + [-x[n + k] for k in order]


class Family:
    """One row of FAMILIES: how a family's systems are built, their K(R) and their matroid.

    least is the least parameter n of a series, or None for a family of one
    system, whose parameter is its rank.  dim(n), roots(n) and lines(n) are
    the ambient dimension, the roots (integer vectors (a | b), or just a when
    rational) and the line count |R|/2.  rank is the rank, None when it is
    n.  matroid(n), when given, is the id of the system whose matroid R(n)
    has (D'4 has D4's), the class that `expected_aut_order` and
    `wreath_order` go by; a system with none is its own class.  extra(n) lists
    the (semi)linear maps on vectors (a | b) that K(R(n)) has beyond the
    reflections (none if not given), and order(n) is the closed-form
    |Aut(M(R(n)))| of a system of rank >= 3 that is its own class.
    """

    def __init__(self, least, dim, roots, lines, rank=None, matroid=None, extra=None, order=None):
        self.least, self.dim, self.roots, self.lines = least, dim, roots, lines
        self.rank, self.matroid, self.extra, self.order = rank, matroid, extra, order


#: family -> its row; registering a family is adding a row
FAMILIES = {
    # A_n: the roots e_i - e_j of D_{n+1}; B_n: the e_i and D_n's
    "A": Family(1, lambda n: n + 1, lambda n: [r for r in _d_roots(n + 1) if sum(r) == 0],
                lambda n: n * (n + 1) // 2, order=lambda n: factorial(n + 1)),
    "B": Family(2, lambda n: n, lambda n: [_e(i, n) for i in range(n)] + _d_roots(n),
                lambda n: n * n, order=lambda n: 2 ** (n - 1) * factorial(n)),
    "D": Family(4, lambda n: n, _d_roots, lambda n: n * (n - 1), extra=_d_extra,
                order=lambda n: 576 if n == 4 else 2 ** (n - 1) * factorial(n)),
    "I2": Family(5, lambda m: 2, lambda m: [(1, k) for k in range(m)], lambda m: m, rank=2),
    "Dprime4": Family(None, lambda n: 4, lambda n: _dprime4_roots(), lambda n: 12, rank=4,
                      matroid=lambda n: "D4",
                      extra=lambda n: [reflection(v) for v in build("D", 4).lines]),
    "E6": Family(None, lambda n: 8, _e_roots, lambda n: 36, rank=6, order=lambda n: 51840),
    "E7": Family(None, lambda n: 8, _e_roots, lambda n: 63, rank=7, order=lambda n: 1451520),
    "E8": Family(None, lambda n: 8, _e_roots, lambda n: 120, rank=8, order=lambda n: 348364800),
    "F4": Family(None, lambda n: 4, lambda n: _d_roots(4) + _dprime4_roots(), lambda n: 24, rank=4,
                 extra=lambda n: [_f4_duality], order=lambda n: 1152),
    "H3": Family(None, lambda n: 3, lambda n: _h3_roots(), lambda n: 15, rank=3,
                 extra=lambda n: [_conj_swap], order=lambda n: 120),
    "H4": Family(None, lambda n: 4, lambda n: _h4_roots(), lambda n: 60, rank=4,
                 extra=lambda n: [_conj_swap], order=lambda n: 14400),
}


def series_prefix(family):
    """What a series' id puts before the parameter: the family, then "_" after a digit (I2_7)."""
    return family + "_" if family[-1:].isdigit() else family


def build(family: str, n_or_m: int | None = None) -> RootSystem:
    """Construct a root system from its FAMILIES row and parameter (none for one system).

    The lines must number the row's line count, each its own line_key.
    """
    row = FAMILIES.get(family)
    if row is None:
        raise ValueError(f"unknown root system family: {family!r}")
    n = row.rank if row.least is None else n_or_m
    if n is None:
        raise ValueError(f"family {family} needs a rank parameter")
    if row.least is not None and n < row.least:
        raise ValueError(f"D_n requires n >= {row.least} (D3 would alias A3)" if family == "D"
                         else f"{family} requires parameter >= {row.least}, got {n}")
    lines = _lines(row.roots(n), row.dim(n))
    if len(lines) != row.lines(n) or any(line_key(v) != v for v in lines):
        raise AssertionError(f"{family}{n}: {len(lines)} lines, not {row.lines(n)} line_keys")
    return RootSystem(family, n, row.dim(n), lines)


def direct_sum(components) -> RootSystem:
    """Block-diagonal direct sum of root systems.

    Each line is padded with zeros in both its a- and b-block; a padded
    line_key is still the line_key of its line.
    """
    components = tuple(components)
    if len(components) < 2:
        raise ValueError("direct_sum needs at least 2 components")
    for c in components:
        if c.family == "DirectSum":
            raise ValueError("nest direct sums by flattening the component list")
    dims = [c.ambient_dim for c in components]
    total = sum(dims)
    lines = []
    offset = 0
    for c, d in zip(components, dims):
        pad = (0,) * offset, (0,) * (total - offset - d)
        lines.extend(pad[0] + v[:d] + pad[1] + pad[0] + v[d:] + pad[1] for v in c.lines)
        offset += d
    return RootSystem("DirectSum", 0, total, tuple(lines), components=components)


# -- line permutations ----------------------------------------------------


def line_key(x):
    """Key of the line through x = (a | b), the integer vector of a + b*sqrt(5).

    x is multiplied by the conjugate of its first nonzero coordinate, which
    makes that coordinate rational, then divided by the gcd with the sign
    that makes it positive, so every nonzero Q(sqrt 5)-multiple gets one key.
    """
    n = len(x) // 2
    for i in range(n):
        if x[i] or x[n + i]:
            break
    else:
        raise ValueError("zero vector spans no line")
    p, q = x[i], x[n + i]
    if q:
        x = ([s * p - 5 * t * q for s, t in zip(x[:n], x[n:])]
             + [t * p - s * q for s, t in zip(x[:n], x[n:])])
    g = gcd(*x) if x[i] > 0 else -gcd(*x)
    return tuple(x) if g == 1 else tuple(map(g.__rfloordiv__, x))


def perm_from_linear_map(system, image_of_line):
    """Permutation induced on lines by a linear map on integer vectors (a | b); see _line_perm."""
    index = system.line_index
    return _line_perm(system, [index.get(line_key(image_of_line(x))) for x in system.lines])


def _line_perm(system, images):
    """Line i -> images[i]; raises on a None (that image is no line) or a repeat (no bijection)."""
    if None in images:
        v = system.lines[images.index(None)]
        raise ValueError(f"map does not preserve the line set (image of {v})")
    if len(set(images)) != len(images):
        raise ValueError("induced map on lines is not a bijection")
    return tuple(images)


def dot(u, v):
    """u.v of integer vectors (a | b) over Z[sqrt 5], as the pair (a, b) of a + b*sqrt5."""
    n = len(u) // 2
    ua, ub, va, vb = u[:n], u[n:], v[:n], v[n:]
    return _dot(ua, va) + 5 * _dot(ub, vb), _dot(ua, vb) + _dot(ub, va)


def combine(s, x, t, v):
    """s*x - t*v for scalars s, t = (a, b) of Z[sqrt 5] and vectors x, v = (a | b).

    Rational s and t (b = 0) scale the a- and b-parts alike: one product
    pair per entry, not four products per coordinate.
    """
    (p, q), (r, w) = s, t
    if not (q or w):
        return [p * a - r * c for a, c in zip(x, v)]
    n = len(x) // 2
    cols = list(zip(x[:n], x[n:], v[:n], v[n:]))
    return ([p * a + 5 * q * b - r * c - 5 * w * d for a, b, c, d in cols]
            + [q * a + p * b - w * c - r * d for a, b, c, d in cols])


def reflection(v):
    """Reflection in the hyperplane normal to v = (a | b), scaled by v.v to stay integral.

    It is the map x -> (v.v) x - 2 (x.v) v on integer vectors (a | b).
    """
    vv, v2 = dot(v, v), [2 * c for c in v]
    return lambda x: combine(vv, x, dot(x, v2), v)


def extra_symmetry_perms(system: RootSystem):
    """The line permutations of the row's extra maps (Family.extra), none by default."""
    extra = FAMILIES[system.family].extra
    return [perm_from_linear_map(system, f) for f in extra(system.rank_param)] if extra else []


def _positive(x):
    """Whether x = (a | b) is lexicographically positive; a scalar a + b*sqrt5 is x = (a, b)."""
    n = len(x) // 2
    a, b = next(((a, b) for a, b in zip(x[:n], x[n:]) if a or b), (0, 0))
    return a > 0 if a * a > 5 * b * b else b > 0


def simple_reflections(system: RootSystem):
    """(index, line permutation) of the reflections in the rank simple roots, in line order.

    The line_keys, all lexicographically positive, are the positive roots up
    to positive scalars: v is simple exactly when its reflection makes no
    other line negative.  One sweep over the lines x takes d = x.2v, summed
    over v's nonzero coordinates k only, one term (k, dim + k, 2a_k, 2b_k)
    each: a root touches few of the ambient coordinates.  d = 0 fixes x's
    line, as s_v(x) = (v.v) x; else s_v(x) = (v.v) x - d v, and a witness
    (d > 0, s_v(x) < 0) shows v is not simple.  Simple lines found so far
    come first (a non-simple v has a simple witness, Humphreys 1990, ch. 1).
    The witness test forms no image but at equal leads, lead(x) being x's
    first nonzero coordinate, positive on a line_key: below lead(v) s_v(x)
    leads with (v.v) x[lead] > 0, and beyond it with -d v[lead] < 0.  A
    simple v's reflection is an involution on lines, so each moved pair
    (j, k) takes one image and one lookup, and k gets j.
    """
    lines, index, simple, n = system.lines, system.line_index, {}, system.num_lines
    dim = system.ambient_dim
    lead = [next(k for k, c in enumerate(x) if c) for x in lines]
    for i, v in enumerate(lines):
        vv, moved, lv = dot(v, v), {}, lead[i]
        terms = [(k, dim + k, 2 * v[k], 2 * v[dim + k]) for k in range(dim) if v[k] or v[dim + k]]
        for j in itertools.chain(simple, (j for j in range(n) if j != i and j not in simple)):
            x, p, q = lines[j], 0, 0
            for k, m, a, b in terms:
                p += x[k] * a + 5 * x[m] * b
                q += x[k] * b + x[m] * a
            if p or q:
                moved[j] = d = p, q
                if lead[j] >= lv and _positive(d) and (
                        lead[j] > lv or not _positive(combine(vv, x, d, v))):
                    break
        else:
            images = list(range(n))
            for j, d in moved.items():
                if images[j] == j:
                    k = images[j] = index.get(line_key(combine(vv, lines[j], d, v)))
                    if k is not None:
                        images[k] = j
            simple[i] = _line_perm(system, images)
            if len(simple) == system.rank:
                break
    return list(simple.items())


def known_group_generators(system: RootSystem):
    """Generators of K(R) on lines: the simple reflections, then the extra symmetries.

    At rank <= 2 they are Sym(X) instead, an n-cycle and a transposition (none
    for one line).  These are index maps, not the line maps of linear
    bijections: they preserve C3 only once C3 is checked to be every triple,
    which makes the matroid uniform.  A direct sum gets each component's
    generators, acting on that component's lines.
    """
    n = system.num_lines
    if system.family == "DirectSum":
        gens, start = [], 0
        for c in system.components:
            stop = start + c.num_lines
            gens += [tuple(range(start)) + tuple(start + i for i in g) + tuple(range(stop, n))
                     for g in known_group_generators(c)]
            start = stop
        return gens
    if system.rank <= 2:
        return [(*range(1, n), 0), (1, 0, *range(2, n))] if n > 1 else []
    return [perm for _, perm in simple_reflections(system)] + extra_symmetry_perms(system)


# -- string ids -----------------------------------------------------------

def parse_system_id(system_id: str) -> RootSystem:
    """Resolve ids like "A3", "E8", "I2_7", or sums like "A2+A2+B3", by the FAMILIES rows."""
    parts = [p.strip() for p in system_id.split("+")]
    if len(parts) > 1:
        if "" in parts:
            raise ValueError(f"unrecognized system id: {system_id!r} (empty component)")
        try:
            components = [parse_system_id(p) for p in parts]
        except ValueError as exc:  # a component's error, named with the whole id
            raise ValueError(f"{exc}, in the sum {system_id!r}") from None
        return direct_sum(components)
    sid = parts[0]
    if sid in FAMILIES and FAMILIES[sid].least is None:
        return build(sid)
    series = {series_prefix(f): f for f, row in FAMILIES.items() if row.least is not None}
    m = re.fullmatch(r"(\w+?)(\d+)", sid)
    if not (m and m[1] in series):
        raise ValueError(f"unrecognized system id: {system_id!r}")
    return build(series[m[1]], int(m[2]))


def parse_families(spec: str) -> list:
    """The system ids of a table spec such as "A:1..7,E,I2:5..12".

    FAMILY:N or FAMILY:LO..HI names a range of a series, a letter the
    families of one system named by it and a digit (E: E6, E7 and E8), and
    any other part one system id.
    """
    ids = []
    for part in filter(None, (p.strip() for p in spec.split(","))):
        if ":" in part:
            fam, rng = part.split(":", 1)
            bounds = re.fullmatch(r"\s*(\d+)\s*(?:\.\.\s*(\d+)\s*)?", rng)
            lo, hi = (int(bounds[1]), int(bounds[2] or bounds[1])) if bounds else (1, 0)
            if lo > hi:
                raise ValueError(f"--families: bad range {part!r} "
                                 "(expected FAMILY:N or FAMILY:LO..HI with LO <= HI)")
            ids += [series_prefix(fam) + str(n) for n in range(lo, hi + 1)]
        else:
            ids += [f for f, row in FAMILIES.items()
                    if row.least is None and f[0] == part and f[1:].isdigit()] or [part]
    if not ids:
        raise ValueError(f"--families {spec!r} names no system")
    return ids
