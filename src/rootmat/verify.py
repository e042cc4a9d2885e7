"""Pipeline orchestration: squeeze certification and table reproduction.

For an irreducible system R the certificate is a squeeze: the known
symmetry group K(R) (generated by the simple reflections and the extra
symmetries) is contained in Aut(M(R)), which in turn is contained in the
automorphism group of the incidence graph of the order-3 circuits, whose
order is at most the first-path bound `graphauto.path_bound`.  |K(R)|
equal to that bound and to the table order collapses the chain, certifying
both the order-3 characterization and the table row in one shot.  K(R)'s
generators come first, so at rank >= 3 C3 is built from one line per K(R)-orbit,
and K(R)'s BSGS is built only until its basic orbits multiply to the bound.

A matroid of rank <= 2 is uniform once C3 is every triple, so there both
ends are Sym(X), certified without a graph.
verify_theorem, verify_wreath and oracle_crosscheck run one pipeline,
`_verdict`, each with its own input check, at most one searched set family
(all circuits for verify_wreath, C3 for oracle_crosscheck) and decision.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from math import comb, factorial

from . import graphauto, linmatroid, permgrp, rootsystems
from .errors import BudgetExceededError
from .incidencegraph import build_incidence, restrict_to_ground

PASS = "PASS"
FAIL = "FAIL"
BUDGET_EXCEEDED = "BUDGET_EXCEEDED"
_ORDER_FIELDS = ("aut_order", "expected_order", "known_group_order")


@dataclass
class VerificationReport:
    system_id: str
    num_lines: int
    c3_count: int
    aut_order: int  # squeeze: exact on PASS, the first-path bound on a rank >= 3 FAIL
    expected_order: int
    known_group_order: int
    status: str
    timing_ms: int
    detail: str = ""

    def to_json_dict(self):
        """The fields in order, each group order as a decimal string."""
        return {k: str(v) if k in _ORDER_FIELDS else v for k, v in asdict(self).items()}


_EXCEPTIONAL_ORDERS = {"D4": 576, "Dprime4": 576, "E6": 51840, "E7": 1451520,
                       "E8": 348364800, "F4": 1152, "H3": 120, "H4": 14400}  # D'4 is isomorphic to D4


def expected_aut_order(system: rootsystems.RootSystem) -> int:
    """Closed-form classification-table order of Aut(M(R)) on lines."""
    fam, n = system.family, system.rank_param
    if fam == "DirectSum":
        return wreath_order(system)
    if system.rank <= 2:
        # the matroid is uniform, so all of Sym(X) acts
        return factorial(system.num_lines)
    if system.system_id in _EXCEPTIONAL_ORDERS:
        return _EXCEPTIONAL_ORDERS[system.system_id]
    if fam == "A":
        return factorial(n + 1)
    if fam in ("B", "D"):
        return 2 ** (n - 1) * factorial(n)
    raise ValueError(f"no closed-form order for {fam}")


def wreath_order(system: rootsystems.RootSystem) -> int:
    """prod_i p_i! * |Aut(M(R_i))|^{p_i} over matroid classes (D'4 is in that of D4)."""
    counts = {}
    for c in system.components:
        key = ("D", 4) if c.family == "Dprime4" else (c.family, c.rank_param)
        counts[key] = counts.get(key, 0) + 1
    total = 1
    for (fam, n), p in counts.items():
        base = expected_aut_order(rootsystems.build(fam, n))
        total *= factorial(p) * base ** p
    return total


def _preserves_family(perm, family):
    """Whether perm maps the set family (a set of sorted tuples) onto itself."""
    return all(tuple(sorted([perm[i] for i in c])) in family for c in family)


def aut_group_from_family(system, family):
    """(order, generators on X) of the graph group of a set family's incidence graph.

    The order is the first-path bound, which `automorphism_group`'s orbit check proves exact.
    """
    g = build_incidence(system.num_lines, family)
    gens = graphauto.automorphism_group(g)
    return graphauto.path_bound(g), [restrict_to_ground(p, system.num_lines) for p in gens]


def _verdict(system_id, plan, decide) -> VerificationReport:
    """One timed report: parse, plan, K(R) or the family, C3, its group, decide.

    plan(system) checks the system (ValueError) and returns None or the one
    set family to search, a function of (system, C3).  Without one, K(R)'s
    generators come first; at rank >= 3, where each is the line map of a
    (semi)linear bijection (I2's are index maps), C3 comes from their orbits,
    and K(R) is built up to C3's graph's first-path bound.  decide(system,
    c3, expected, order, gens, bound) -> (status, aut, known, detail) gets
    K(R)'s, or the family's graph group's with bound None (as at rank <= 2).
    An exhausted circuit enumeration gives BUDGET_EXCEEDED.
    """
    start = time.perf_counter()
    system = rootsystems.parse_system_id(system_id)
    family = plan(system)
    gens = () if family else rootsystems.known_group_generators(system)
    c3 = linmatroid.circuits3(system.lines, gens if system.rank >= 3 else ())
    expected = expected_aut_order(system)
    bound = (None if family or system.rank <= 2
             else graphauto.path_bound(build_incidence(system.num_lines, c3)))
    try:
        group = (aut_group_from_family(system, family(system, c3)) if family
                 else (permgrp.bsgs(gens, degree=system.num_lines, bound=bound).order(), gens))
        status, aut_order, known_order, detail = decide(system, c3, expected, *group, bound)
    except BudgetExceededError as exc:
        status, aut_order, known_order, detail = BUDGET_EXCEEDED, 0, 0, str(exc)
    return VerificationReport(system.system_id, system.num_lines, len(c3), aut_order, expected,
                              known_order, status, int((time.perf_counter() - start) * 1000),
                              detail)


def verify_theorem(system_id: str) -> VerificationReport:
    """Certify the order-3 squeeze and the table row for one irreducible system.

    The squeeze covers irreducible systems; a direct sum raises ValueError.
    It searches no graph at any rank.
    """
    def plan(system):
        if system.family == "DirectSum":
            raise ValueError(f"{system.system_id} is a direct sum; "
                             f"use rootmat wreath --spec {system.system_id}")
        return None

    return _verdict(system_id, plan, _squeeze)


def _squeeze(system, c3, expected, known_order, gens, bound):
    """K(R) <= Aut(M(R)) <= Aut(G(X, C3)), closed by equal orders.

    At rank <= 2 C3 must be every triple; the matroid is then uniform and
    both ends are Sym(X).  Above, C3 is built from K(R)'s orbits, so each
    generator must first be checked to preserve it: that catches one that is
    no automorphism (a transposition of two lines) and puts K(R), built up to
    the first-path bound, in Aut(G(X, C3)).  Then |K(R)| equal to that bound
    proves K(R) = Aut(M(R)) = Aut(G(X, C3)).
    """
    n = system.num_lines
    uniform = system.rank <= 2
    if uniform and len(c3) != comb(n, 3):
        return FAIL, 0, 0, "C3 is not the full triple set"
    aut_order = factorial(n) if uniform else bound
    family = set(c3)
    if not all(_preserves_family(gen, family) for gen in gens):
        return FAIL, aut_order, known_order, "known generator does not preserve C3"
    ok = (aut_order if uniform else known_order) == aut_order == expected
    return PASS if ok else FAIL, aut_order, known_order, "" if ok else "order mismatch"


def default_table_ids():
    ids = [f"A{n}" for n in range(1, 8)]
    ids += [f"B{n}" for n in range(2, 8)]
    ids += [f"D{n}" for n in range(4, 8)]
    ids += ["E6", "E7", "E8", "F4", "H3", "H4"]
    ids += [f"I2_{m}" for m in range(5, 13)]
    return ids


def verify_table(system_ids=None):
    """One report per listed system (the full classification by default)."""
    if system_ids is None:
        system_ids = default_table_ids()
    return [verify_theorem(sid) for sid in system_ids]


def verify_wreath(sum_spec: str) -> VerificationReport:
    """Brute-force check of the wreath-product formula on a direct sum.

    The order-3 characterization is stated for irreducible systems only,
    so reducible systems go through the full circuit set (`sum_circuits`).
    """
    def plan(system):
        if system.family != "DirectSum":
            raise ValueError(f"{sum_spec!r} is not a direct sum")
        return lambda s, c3: sum_circuits(s)

    def decide(system, c3, expected, order, gens, bound):
        return PASS if order == expected else FAIL, order, 0, ""

    return _verdict(sum_spec, plan, decide)


def sum_circuits(system):
    """All circuits of a direct sum, sorted: its components' (Oxley 4.2), shifted to their lines."""
    out, offset = [], 0
    for c in system.components:
        out += [tuple(offset + i for i in circuit) for circuit in
                linmatroid.all_circuits_upto(linmatroid.matroid_of(c), c.rank + 1)]
        offset += c.num_lines
    return sorted(out)


def oracle_crosscheck(system_id: str, kmax=None) -> VerificationReport:
    """Direct check: the C3 graph group equals the group of all circuits of order <= kmax.

    A permutation preserving every circuit of order <= kmax preserves C3, so
    the all-circuits group lies in the C3 group; it is all of it exactly when
    each generator of the C3 group (one search) maps the enumerated circuits
    onto themselves.  PASS reports the C3 group's order twice; FAIL names the
    first generator that moves a circuit off the set, with known_group_order 0
    (not computed).  The circuits of order <= kmax include C3 only for
    kmax >= 3 (else ValueError); the default is rank + 1, raised to 3 for
    rank 1 (no circuits).
    """
    if kmax is not None and kmax < 3:
        raise ValueError(f"crosscheck needs a maximum circuit order of at least 3, got {kmax}")

    def decide(system, c3, expected, order, gens, bound):
        k = kmax or max(system.rank + 1, 3)
        family = set(linmatroid.all_circuits_upto(linmatroid.matroid_of(system), k))
        for gen in gens:
            if not _preserves_family(gen, family):
                return (FAIL, order, 0, f"C3 group generator "
                        f"{permgrp.cycle_notation(gen)} does not preserve the circuits")
        return PASS, order, order, ""

    return _verdict(system_id, lambda system: lambda s, c3: c3, decide)
