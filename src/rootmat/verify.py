"""Pipeline orchestration: squeeze certification and table reproduction.

For an irreducible system R the certificate is a squeeze: the known
symmetry group K(R) (generated by the simple reflections and the extra
symmetries) is contained in Aut(M(R)), which in turn is contained in the
automorphism group of the incidence graph of the order-3 circuits, whose
order is at most the first-path bound `graphauto.path_bound`.  |K(R)|
equal to that bound and to the table order collapses the chain, certifying
both the order-3 characterization and the table row in one shot.  K(R)'s
generators come first, so at rank >= 3 C3 is built from one line per K(R)-orbit,
and K(R)'s BSGS is built only until its basic orbits multiply to the bound;
one that stops short reports that product, a lower bound on |K(R)|.

A matroid of rank <= 2 is uniform once C3 is every triple, so there both
ends are Sym(X): known = aut = n!, certified with no K(R), graph or BSGS.
verify_theorem runs these steps top to bottom and searches no graph.

oracle_crosscheck and verify_wreath share one check instead, with no K(R)
and no circuit enumeration: C3's graph is searched once, each generator of
its group must be induced by (semi)linear bijections between component
spans, which puts it in Aut(M(R)) <= Aut(G(X, C3)), and the group's order
must equal `expected_aut_order` (the wreath-product formula for a sum).
`circuits_upto` serves `rootmat circuits` only.
"""

from __future__ import annotations

import time
from math import comb, factorial, prod
from operator import or_

from . import graphauto, linmatroid, permgrp, rootsystems
from .incidencegraph import build_incidence, restrict_to_ground

PASS = "PASS"
FAIL = "FAIL"
_ORDER_FIELDS = ("aut_order", "expected_order", "known_group_order")


class VerificationReport:
    def __init__(self, system_id, num_lines, c3_count, aut_order, expected_order,
                 known_group_order, status, timing_ms, detail=""):
        self.system_id = system_id
        self.num_lines = num_lines
        self.c3_count = c3_count
        self.aut_order = aut_order  # the squeeze's bound or the C3 group's order; 0 if not computed
        self.expected_order = expected_order
        # |K(R)| (a lower bound on a FAIL short of aut_order) or the realized order (PASS) or 0
        self.known_group_order = known_group_order
        self.status = status
        self.timing_ms = timing_ms
        self.detail = detail

    def to_json_dict(self):
        """The fields in order, each group order as a decimal string."""
        return {k: str(v) if k in _ORDER_FIELDS else v for k, v in vars(self).items()}


def expected_aut_order(system: rootsystems.RootSystem) -> int:
    """Closed-form table order of Aut(M(R)) on lines, that of R's matroid: a sum's
    `wreath_order`, n! at rank <= 2 (the matroid is uniform), else the row's order."""
    if system.family == "DirectSum":
        return wreath_order(system)
    if system.matroid != system.system_id:
        return expected_aut_order(rootsystems.parse_system_id(system.matroid))
    if system.rank <= 2:
        return factorial(system.num_lines)
    order = rootsystems.FAMILIES[system.family].order
    if order is None:
        raise ValueError(f"no closed-form order for {system.system_id}")
    return order(system.rank_param)


def wreath_order(system: rootsystems.RootSystem) -> int:
    """prod_i p_i! * |Aut(M(R_i))|^{p_i} over the components' matroid classes (D'4 is in D4's)."""
    classes = {}
    for c in system.components:
        classes.setdefault(c.matroid, []).append(c)
    return prod(factorial(len(members)) * expected_aut_order(members[0]) ** len(members)
                for members in classes.values())


def _preserves_c3(gens, g, num_lines):
    """Whether each generator maps every triple of C3 into C3, looked up on its support only.

    C3 is read from its incidence graph g: the set vertices' neighbours are
    the triples, a line's are the triples through it.  C3 and each image are
    keyed by the power sums of their lines, x + m x^2 + m^2 x^3 summed with
    m = 3 n^2 for n lines: one small int, injective on 3-multisets by
    Newton's identities, so a tuple that merges two lines of a triple gives
    the key of no 3-set.  A triple that avoids a generator's support is
    fixed exactly, so only the triples through its moved lines need a
    lookup: the check is as strong as a full pass over C3 for any tuple.
    """
    m, adj = 3 * num_lines * num_lines, g.adjacency
    keys = [x + m * x * x + m * m * x * x * x for x in range(num_lines)]
    family = {keys[a] + keys[b] + keys[c] for a, b, c in adj[num_lines:]}
    for gen in gens:
        moved = set().union(*[adj[i] for i in range(num_lines) if gen[i] != i])
        key = [keys[p] for p in gen]
        if not all(key[a] + key[b] + key[c] in family for a, b, c in map(adj.__getitem__, moved)):
            return False
    return True


def aut_group_from_family(system, family):
    """(order, generators on X) of the graph group of a set family's incidence graph.

    The order is the first-path bound, which `automorphism_group`'s orbit check proves exact.
    """
    g = build_incidence(system.num_lines, family)
    gens = graphauto.automorphism_group(g)
    return graphauto.path_bound(g), [restrict_to_ground(p, system.num_lines) for p in gens]


def _report(system, c3, aut_order, expected, known_order, status, start, detail=""):
    return VerificationReport(system.system_id, system.num_lines, len(c3), aut_order, expected,
                              known_order, status, int((time.perf_counter() - start) * 1000),
                              detail)


def verify_theorem(system_id: str) -> VerificationReport:
    """Certify K(R) <= Aut(M(R)) <= Aut(G(X, C3)), closed by equal orders.

    The squeeze covers irreducible systems; a direct sum raises ValueError.
    Checks come before counts; a failed one reports both orders as 0.  At
    rank <= 2 C3, built with no generators, must be every triple: the
    matroid is then uniform, both ends are Sym(X) and aut = known = n!.
    Above, C3 is built from K(R)'s orbits (each generator is the line map
    of a (semi)linear bijection), so each generator must be checked to
    preserve it (`_preserves_c3`, on the triples meeting its support): that
    catches one that is no automorphism (a transposition of two lines) and
    puts K(R) in Aut(G(X, C3)).  Then K(R), built up to the first-path
    bound, proves K(R) = Aut(M(R)) = Aut(G(X, C3)) by reaching it.  C3's
    graph, built once for the check and the bound, is gone before K's BSGS.
    A K(R) short of the bound FAILs with what its chain proves, a lower
    bound: "K(R) >= known, short of the bound aut".  A bound other than the
    table order FAILs with "order mismatch".
    """
    start = time.perf_counter()
    system = rootsystems.parse_system_id(system_id)
    if system.family == "DirectSum":
        raise ValueError(f"{system.system_id} is a direct sum; "
                         f"use rootmat wreath --spec {system.system_id}")
    n, expected = system.num_lines, expected_aut_order(system)
    if system.rank <= 2:
        c3 = linmatroid.circuits3(system.lines)
        if len(c3) != comb(n, 3):
            return _report(system, c3, 0, expected, 0, FAIL, start, "C3 is not the full triple set")
        bound = known_order = factorial(n)
    else:
        gens = rootsystems.known_group_generators(system)
        c3 = linmatroid.circuits3(system.lines, gens)
        g = build_incidence(n, c3)
        if not _preserves_c3(gens, g, n):
            return _report(system, c3, 0, expected, 0, FAIL, start,
                           "known generator does not preserve C3")
        bound = graphauto.path_bound(g)
        del g  # K's BSGS sets the peak memory, so the graph does not live through it
        known_order = permgrp.bsgs(gens, degree=n, bound=bound).order()
    if known_order < bound:
        detail = f"K(R) >= {known_order}, short of the bound {bound}"
    else:
        detail = "" if bound == expected else "order mismatch"
    return _report(system, c3, bound, expected, known_order, FAIL if detail else PASS, start,
                   detail)


#: the classification table, as a `rootmat table --families` spec
TABLE_FAMILIES = "A:1..7,B:2..7,D:4..7,E,F,H,I2:5..12"


def default_table_ids():
    return rootsystems.parse_families(TABLE_FAMILIES)


def verify_table(system_ids=None):
    """One report per listed system (the full classification by default)."""
    if system_ids is None:
        system_ids = default_table_ids()
    return [verify_theorem(sid) for sid in system_ids]


def verify_wreath(sum_spec: str) -> VerificationReport:
    """Check the wreath-product formula on a direct sum (ValueError on any other system).

    The order-3 characterization is stated for irreducible systems only, so
    this is `oracle_crosscheck`'s report, whose order check is against `wreath_order`.
    """
    start = time.perf_counter()
    system = rootsystems.parse_system_id(sum_spec)
    if system.family != "DirectSum":
        raise ValueError(f"{sum_spec!r} is not a direct sum")
    return _c3_group_check(system, start)


def oracle_crosscheck(system_id: str) -> VerificationReport:
    """Direct check with no K(R): the C3 graph group is Aut(M(R)), of the table order.

    The table order is `expected_aut_order`, so a PASS also certifies the table row.
    """
    start = time.perf_counter()
    return _c3_group_check(rootsystems.parse_system_id(system_id), start)


def _c3_group_check(system, start):
    """One search of C3's graph, each generator of its group realized by (semi)linear maps.

    Aut(M) lies in the C3 group.  A generator that `_realizes` accepts lies in
    Aut(M) too: a tau-semilinear bijection maps dependent sets to dependent
    sets and back (tau a field automorphism; Artin, Geometric Algebra, 1957,
    ch. II); M(R) is the direct sum of its components' matroids, as their
    spans are independent; and a component of rank <= 2 is uniform (no two
    lines are parallel), so any bijection onto one of its class is an
    isomorphism.  Once every generator is accepted the two groups are equal,
    and the first-path bound, exact by `automorphism_group`'s orbit check, is
    |Aut(M)|.  It must then be `expected_aut_order`: PASS reports it twice;
    FAIL names the first generator not realized, or "order mismatch", with
    known_group_order 0.
    """
    c3 = linmatroid.circuits3(system.lines)
    expected = expected_aut_order(system)
    order, gens = aut_group_from_family(system, c3)
    frames = _frames(system)
    for gen in gens:
        if not _realizes(frames, gen):
            return _report(system, c3, order, expected, 0, FAIL, start, f"C3 group generator "
                           f"{permgrp.cycle_notation(gen)} is not induced by a (semi)linear map")
    if order != expected:
        return _report(system, c3, order, expected, 0, FAIL, start, "order mismatch")
    return _report(system, c3, order, expected, order, PASS, start)


def _conjugate(x):
    """b -> -b on x = (a | b), a vector or a scalar (a, b): the Galois conjugation of Q(sqrt 5)."""
    h = len(x) // 2
    return (*x[:h], *[-b for b in x[h:]])


#: the field automorphisms tau a semilinear map may twist by: the identity (a copy), then,
#: over Q(sqrt 5) only, conjugation
_TAUS = (tuple, _conjugate)


class _Frame:
    """A component, its lines placed from start on among the system's.

    At rank >= 3: basis B, its simple lines; coords[i], line i's coordinates
    (a | b) in B up to a scalar; f, the first line with no coordinate zero
    (the highest root); taus, the tau to try.
    """

    def __init__(self, c, start):
        self.start, self.lines, self.matroid, self.rank = start, c.lines, c.matroid, c.rank
        if c.rank >= 3:
            self.basis = [i for i, _ in rootsystems.simple_reflections(c)]
            self.coords = linmatroid.coordinates([c.lines[i] for i in self.basis], c.lines)
            self.f = next((i for i, x in enumerate(self.coords or ()) if _no_zero(x)), None)
            if self.f is None:
                raise ValueError(f"{c.system_id}: no frame of simple lines and a line off "
                                 "their coordinate hyperplanes")
            self.taus = _TAUS if any(any(x[c.ambient_dim:]) for x in c.lines) else _TAUS[:1]


def _frames(system):
    """One `_Frame` per component, in line order (the system itself if it is no sum)."""
    frames, start = [], 0
    for c in system.components or (system,):
        frames.append(_Frame(c, start))
        start += c.num_lines
    return frames


def _no_zero(x):
    """Whether no coordinate a + b*sqrt(5) of x = (a | b) is zero."""
    h = len(x) // 2
    return all(map(or_, x[:h], x[h:]))


def _scale(s, v):
    """s v for a scalar s = (a, b) of Z[sqrt 5] and a vector v = (a | b), or a scalar."""
    return rootsystems.combine(s, v, (0, 0), v)


def _realizes(frames, gen):
    """Whether the line permutation gen maps each component onto one of its matroid class,
    at rank >= 3 by the map a tau-semilinear bijection L of their spans induces.

    The component's frame B + f forces L: with sigma(f) = sum_j mu_j
    sigma(b_j) and lambda_j = mu_j / tau(c_j(f)), L(x) = sum_j tau(c_j(x))
    lambda_j sigma(b_j).  sigma(B) must be a basis and no mu_j zero.  Each
    lambda_j is taken times prod_k tau(c_k(f)), which scales L and so moves
    no line.
    """
    for fr in frames:
        n, r = len(fr.lines), fr.rank
        to = next(t for t in frames if 0 <= gen[fr.start] - t.start < len(t.lines))
        sigma = [i - to.start for i in gen[fr.start:fr.start + n]]
        if (to.matroid, len(to.lines)) != (fr.matroid, n) or not all(0 <= i < n for i in sigma):
            return False
        if r < 3:
            continue
        rows = [to.lines[sigma[i]] for i in fr.basis]
        mu = linmatroid.coordinates(rows, [to.lines[sigma[fr.f]]])
        if mu is None or not _no_zero(mu[0]):
            return False
        for tau in fr.taus:
            cf = tau(fr.coords[fr.f])
            images = []
            for j in range(r):
                lam = (mu[0][j], mu[0][r + j])
                for k in range(r):
                    if k != j:
                        lam = _scale((cf[k], cf[r + k]), lam)
                images.append(_scale(lam, rows[j]))
            if all(rootsystems.line_key(_combination(tau(x), images)) == to.lines[i]
                   for x, i in zip(fr.coords, sigma)):
                break
        else:
            return False
    return True


def _combination(coeffs, vectors):
    """sum_j c_j vectors[j] for coefficients coeffs = (a | b), not all zero, over Z[sqrt 5]."""
    r = len(vectors)
    terms = [_scale((a, b), w) for a, b, w in zip(coeffs[:r], coeffs[r:], vectors) if a or b]
    return [sum(col) for col in zip(*terms)]


def circuits_upto(system, kmax, node_budget=linmatroid.DEFAULT_NODE_BUDGET):
    """The circuits of order <= kmax, sorted, enumerated one component at a time.

    A direct sum's circuits are its components' (Oxley 4.2), shifted to their
    lines; a system that is no sum is its own one component.  A component has
    no circuit of more than rank + 1 elements, so its enumeration stops there;
    node_budget bounds each component's enumeration on its own.
    """
    out, offset = [], 0
    for c in system.components or (system,):
        circuits = linmatroid.all_circuits_upto(linmatroid.matroid_of(c), min(kmax, c.rank + 1),
                                                node_budget)
        out += [tuple(offset + i for i in circuit) for circuit in circuits]
        offset += c.num_lines
    return sorted(out)
