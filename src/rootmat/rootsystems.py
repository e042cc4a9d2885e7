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

K(R) is generated by the reflections in the simple roots of the positive
system the stored lines form, plus the extra symmetries.  I2(m) is stored
as the lines (1, k), k < m, which realize its matroid U_{2,m} but are not
its roots; its K(R) is the dihedral group on indices.
"""

from __future__ import annotations

import itertools
import re
from functools import cached_property
from math import gcd
from operator import mul

#: expected line count |R|/2 per family, as a function of the parameter
LINE_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "Dprime4": lambda n: 12,
    "E6": lambda n: 36,
    "E7": lambda n: 63,
    "E8": lambda n: 120,
    "F4": lambda n: 24,
    "H3": lambda n: 15,
    "H4": lambda n: 60,
    "I2": lambda m: m,
}


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
        if self.family in ("A", "B", "D"):
            return f"{self.family}{self.rank_param}"
        if self.family == "I2":
            return f"I2_{self.rank_param}"
        return self.family

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
        return 2 if self.family == "I2" else self.rank_param


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


def _a_roots(n):
    dim = n + 1
    return [
        tuple(1 if k == i else (-1 if k == j else 0) for k in range(dim))
        for i in range(dim)
        for j in range(i + 1, dim)
    ]


def _d_roots(n):
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            for sj in (1, -1):
                v = [0] * n
                v[i] = 1
                v[j] = sj
                roots.append(tuple(v))
    return roots


def _b_roots(n):
    return [tuple(_e(i, n)) for i in range(n)] + _d_roots(n)


def _dprime4_roots():
    # Doubled coordinates: 2*e_i and all (+-1, +-1, +-1, +-1).
    roots = [tuple(2 * c for c in _e(i, 4)) for i in range(4)]
    roots.extend(itertools.product((1, -1), repeat=4))
    return roots


def _e8_roots():
    roots = _d_roots(8)
    # half-integer roots, doubled to (+-1)^8 with an even number of -1s
    for signs in itertools.product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            roots.append(signs)
    return roots


def _dot(u, v):
    return sum(map(mul, u, v))


def _e8_sub_roots(orthogonal_to):
    return [r for r in _e8_roots() if all(_dot(r, w) == 0 for w in orthogonal_to)]


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


_MIN_PARAM = {"A": 1, "B": 2, "D": 4, "I2": 5}


def build(family: str, n_or_m: int | None = None) -> RootSystem:
    """Construct a root system by family name and parameter."""
    if family in _MIN_PARAM:
        n = _require_param(family, n_or_m, _MIN_PARAM[family])
    if family == "A":
        dim, roots = n + 1, _a_roots(n)
    elif family in ("B", "D"):
        dim, roots = n, (_b_roots if family == "B" else _d_roots)(n)
    elif family == "I2":
        dim, roots = 2, [(1, k) for k in range(n)]
    elif family in ("Dprime4", "F4"):
        n = dim = 4
        roots = _dprime4_roots() if family == "Dprime4" else _d_roots(4) + _dprime4_roots()
    elif family in ("E6", "E7", "E8"):
        # E7: the roots of E8 orthogonal to e7 + e8; E6: to e6 + e8 as well
        normals = [(0,) * 6 + (1, 1), (0,) * 5 + (1, 0, 1)][:8 - int(family[1])]
        n, dim, roots = int(family[1]), 8, _e8_sub_roots(normals)
    elif family in ("H3", "H4"):
        n = dim = int(family[1])
        roots = _h3_roots() if family == "H3" else _h4_roots()
    else:
        raise ValueError(f"unknown root system family: {family!r}")
    return RootSystem(family, n, dim, _check_lines(family, n, _lines(roots, dim)))


def _require_param(family, n, minimum):
    if n is None:
        raise ValueError(f"family {family} needs a rank parameter")
    if n < minimum:
        raise ValueError(f"{family}_n requires n >= {minimum} (D3 would alias A3)" if family == "D"
                         else f"{family} requires parameter >= {minimum}, got {n}")
    return n


def _check_lines(family, n, lines):
    expected = LINE_COUNTS[family](n)
    if len(lines) != expected:
        raise AssertionError(f"{family}{n}: built {len(lines)} lines, expected {expected}")
    for v in lines:
        if line_key(v) != v:
            raise AssertionError(f"{family}{n}: representative {v} is not its line_key")
    return lines


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
    i = next((k for k in range(n) if x[k] or x[n + k]), None)
    if i is None:
        raise ValueError("zero vector spans no line")
    p, q = x[i], x[n + i]
    if q:
        x = ([s * p - 5 * t * q for s, t in zip(x[:n], x[n:])]
             + [t * p - s * q for s, t in zip(x[:n], x[n:])])
    g = gcd(*x) if x[i] > 0 else -gcd(*x)
    return tuple(x) if g == 1 else tuple([c // g for c in x])


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


F4_DUALITY_MATRIX = (
    (1, 1, 0, 0),
    (1, -1, 0, 0),
    (0, 0, 1, 1),
    (0, 0, 1, -1),
)


def extra_symmetry_perms(system: RootSystem):
    """Generators of the known symmetries beyond the reflections.

    D_n (n >= 5): the sign flip e1 -> -e1, which in B_n is the reflection in
    e1.  D4: the reflections in the short roots of F4 (triality comes for
    free).  F4: the integer duality matrix swapping the two D4 copies.
    H3/H4: coordinatewise Galois conjugation.  Everything else needs none.
    """
    fam, n = system.family, system.ambient_dim
    if fam == "D" and system.rank_param >= 5:
        flip = lambda x: (-x[0],) + x[1:n] + (-x[n],) + x[n + 1:]
        return [perm_from_linear_map(system, flip)]
    if fam in ("D", "Dprime4"):
        other = build("Dprime4") if fam == "D" else build("D", 4)
        return [perm_from_linear_map(system, reflection(v)) for v in other.lines]
    if fam == "F4":
        duality = lambda x: [sum(m * c for m, c in zip(row, half))
                             for half in (x[:4], x[4:]) for row in F4_DUALITY_MATRIX]
        return [perm_from_linear_map(system, duality)]
    if fam in ("H3", "H4"):
        # Galois conjugation, b -> -b on (a | b), maps the line set to its
        # mirror image in these coordinates (conjugation reverses the
        # golden-ratio pattern, an odd permutation); swapping the last two
        # coordinates brings it back.  Both steps preserve linear dependence,
        # and perm_from_linear_map verifies the line set is actually preserved.
        order = list(range(n - 2)) + [n - 1, n - 2]
        conj_swap = lambda x: [x[k] for k in order] + [-x[n + k] for k in order]
        return [perm_from_linear_map(system, conj_swap)]
    return []


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

    The simple reflections generate the reflection group (I2: the dihedral
    pair k -> k + 1, k -> -k, since its lines are not roots).  A direct sum
    gets each component's generators, acting on that component's lines.
    """
    if system.family == "DirectSum":
        gens, start, n = [], 0, system.num_lines
        for c in system.components:
            stop = start + c.num_lines
            gens += [tuple(range(start)) + tuple(start + i for i in g) + tuple(range(stop, n))
                     for g in known_group_generators(c)]
            start = stop
        return gens
    if system.family == "I2":
        m = system.num_lines
        return [tuple((k + 1) % m for k in range(m)), tuple(-k % m for k in range(m))]
    gens = [perm for _, perm in simple_reflections(system)]
    gens.extend(extra_symmetry_perms(system))
    return gens


# -- string ids -----------------------------------------------------------

_ID_RE = re.compile(r"^(A|B|D)(\d+)$|^(E6|E7|E8|F4|H3|H4|Dprime4)$|^I2_(\d+)$")


def parse_system_id(system_id: str) -> RootSystem:
    """Resolve ids like "A3", "E8", "I2_7", or sums like "A2+A2+B3"."""
    parts = system_id.split("+")
    if len(parts) > 1:
        return direct_sum(parse_system_id(p.strip()) for p in parts)
    m = _ID_RE.match(system_id.strip())
    if not m:
        raise ValueError(f"unrecognized system id: {system_id!r}")
    if m.group(1):
        return build(m.group(1), int(m.group(2)))
    if m.group(3):
        return build(m.group(3))
    return build("I2", int(m.group(4)))
