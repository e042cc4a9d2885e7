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

oracle_crosscheck and verify_wreath share one check instead: C3's graph
is searched once, each generator of its group must map the circuits up to the rank,
enumerated one component at a time, onto themselves, and its order must equal
`expected_aut_order` (the wreath-product formula for a sum).
"""

from __future__ import annotations

import time
from math import comb, factorial, prod

from . import graphauto, linmatroid, permgrp, rootsystems
from .errors import BudgetExceededError
from .incidencegraph import build_incidence, restrict_to_ground

PASS = "PASS"
FAIL = "FAIL"
BUDGET_EXCEEDED = "BUDGET_EXCEEDED"
_ORDER_FIELDS = ("aut_order", "expected_order", "known_group_order")


class VerificationReport:
    def __init__(self, system_id, num_lines, c3_count, aut_order, expected_order,
                 known_group_order, status, timing_ms, detail=""):
        self.system_id = system_id
        self.num_lines = num_lines
        self.c3_count = c3_count
        self.aut_order = aut_order  # the squeeze's bound or the C3 group's order; 0 if not computed
        self.expected_order = expected_order
        # |K(R)| (a lower bound on a FAIL short of aut_order) or the all-circuits order (PASS) or 0
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


def _by_mask(sets):
    """{the bitmask of its lines: the set} for sets of lines."""
    return {sum(map((1).__lshift__, c)): c for c in sets}


def _preserves_family(perm, family):
    """Whether perm maps a set family, keyed `_by_mask`, onto itself.

    A tuple that is no bijection fails first: the bits of a set it merges
    could add up to another set's mask.  A bijection maps each set to the
    set whose mask is the sum of its images' bits.
    """
    if len(set(perm)) < len(perm):
        return False
    bit = [1 << p for p in perm].__getitem__
    return all(sum(map(bit, c)) in family for c in family.values())


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
    return _c3_group_check(system, None, start)


def oracle_crosscheck(system_id: str, kmax=None) -> VerificationReport:
    """Direct check: the C3 graph group is that of the circuits of order <= kmax, of table order.

    kmax < 3 (no C3) is a ValueError; the default max(rank, 3) gives the group of all circuits,
    and the table order is `expected_aut_order`, so a PASS also certifies the table row.
    """
    if kmax is not None and kmax < 3:
        raise ValueError(f"crosscheck needs a maximum circuit order of at least 3, got {kmax}")
    start = time.perf_counter()
    system = rootsystems.parse_system_id(system_id)
    return _c3_group_check(system, kmax, start)


def _c3_group_check(system, kmax, start):
    """One search of C3's graph, its group's generators checked against the circuits.

    A permutation preserving every circuit of order <= kmax (kmax >= 3)
    preserves C3, so the group of those circuits lies in the C3 group; it
    is all of it exactly when each generator of the C3 group maps the
    circuits onto themselves.  kmax None is max(rank, 3), since a set is independent
    iff it has <= rank elements and no circuit of <= rank elements (Oxley 1.1).
    A full pass over the circuits beats `_preserves_c3`'s index, as these generators
    move most lines.  The order must then be `expected_aut_order`: PASS reports it twice;
    FAIL names the first generator that moves a circuit off the set, or "order mismatch",
    with known_group_order 0.  An exhausted enumeration gives BUDGET_EXCEEDED.
    """
    c3 = linmatroid.circuits3(system.lines)
    expected = expected_aut_order(system)
    try:
        order, gens = aut_group_from_family(system, c3)
        circuits = _by_mask(circuits_upto(system, kmax or max(system.rank, 3)))
    except BudgetExceededError as exc:
        return _report(system, c3, 0, expected, 0, BUDGET_EXCEEDED, start, str(exc))
    for gen in gens:
        if not _preserves_family(gen, circuits):
            return _report(system, c3, order, expected, 0, FAIL, start, f"C3 group generator "
                           f"{permgrp.cycle_notation(gen)} does not preserve the circuits")
    if order != expected:
        return _report(system, c3, order, expected, 0, FAIL, start, "order mismatch")
    return _report(system, c3, order, expected, order, PASS, start)


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
