"""Acceptance gate.

Each test is one acceptance criterion and emits exactly one PASS/FAIL line
(written past pytest's capture so it always appears in the run log):

  1. classification-table reproduction with exact orders and runtime bounds
  2. squeeze certification: K(R) <= Aut(G(X, C3)) with matching orders
  3. oracle equivalence: the C3 graph group equals the all-circuits graph group
  4. combinatorial circuit-shape catalogue agrees with brute-force enumeration
  5. wreath-product formula for reducible systems
  6. property suites (matroid axioms, reflection closure, BSGS, equivariance,
     representative-flip invariance)

Expensive intermediates (notably the full circuit sets of the rank-5
classical systems) are computed once per session and shared.
"""

import itertools
import random
import time
from math import factorial

import pytest

from classical_shapes import classical_circuits
from perm_helpers import perm_from_cycles, reflection_perm
from rootmat import graphauto, linmatroid, permgrp
from rootmat.incidencegraph import build_incidence, restrict_to_ground
from rootmat.linmatroid import all_circuits_upto, circuits3, matroid_of
from rootmat.permgrp import bsgs, is_subgroup
from rootmat.rootsystems import known_group_generators, parse_system_id
from rootmat.verify import aut_group_from_family, default_table_ids, verify_wreath

BIG_BUDGET = 10**7

# Exact expected orders.  A1 and B2 are the two degenerate small cases: the
# single line of A1 admits only the identity, and B2's matroid is the uniform
# U_{2,4} (it is I2(4) in disguise), whose group is the full Sym(4).
EXPECTED = {
    **{f"A{n}": (factorial(n + 1) if n >= 2 else 1) for n in range(1, 8)},
    **{f"B{n}": (2 ** (n - 1) * factorial(n) if n >= 3 else 24) for n in range(2, 8)},
    "D4": 576,
    **{f"D{n}": 2 ** (n - 1) * factorial(n) for n in range(5, 8)},
    "E6": 51840,
    "E7": 1451520,
    "E8": 348364800,
    "F4": 1152,
    "H3": 120,
    "H4": 14400,
    **{f"I2_{m}": factorial(m) for m in range(5, 13)},
}

TIME_LIMIT_S = {"E7": 120.0, "E8": 600.0}
DEFAULT_TIME_LIMIT_S = 10.0


def _emit(capsys, num, title, failures):
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"[ACCEPTANCE {num}] {title}: {status}")
    assert not failures, "; ".join(failures)


def _graph_group(system, family):
    """The BSGS of the family's graph group on X, and the order returned with its generators."""
    order, gens = aut_group_from_family(system, family)
    return bsgs(gens, degree=system.num_lines), order


@pytest.fixture(scope="session")
def pipeline():
    """For every table system: C3, the graph group, its returned order, K(R), the wall time."""
    data = {}
    for sid in default_table_ids():
        start = time.perf_counter()
        system = parse_system_id(sid)
        c3 = circuits3(system.lines)
        aut, returned = _graph_group(system, c3)
        elapsed = time.perf_counter() - start
        known = bsgs(known_group_generators(system), degree=system.num_lines)
        data[sid] = {"system": system, "c3": c3, "aut": aut, "returned": returned,
                     "known": known, "seconds": elapsed}
    return data


@pytest.fixture(scope="session")
def classical_ground_truth():
    """Brute-force full circuit sets (orders <= rank+1) for small A/B/D."""
    ids = [f"A{n}" for n in range(1, 6)]
    ids += [f"B{n}" for n in range(2, 6)]
    ids += ["D4", "D5"]
    out = {}
    for sid in ids:
        system = parse_system_id(sid)
        m = matroid_of(system)
        out[sid] = (system, m, all_circuits_upto(m, system.rank + 1,
                                                 node_budget=BIG_BUDGET))
    return out


def test_criterion_1_table_reproduction(pipeline, capsys):
    failures = []
    for sid, d in pipeline.items():
        got, want = d["aut"].order(), EXPECTED[sid]
        if got != want:
            failures.append(f"{sid}: |Aut| = {got}, expected {want}")
        if d["returned"] != got:
            failures.append(f"{sid}: returned order {d['returned']} != BSGS order {got}")
        limit = TIME_LIMIT_S.get(sid, DEFAULT_TIME_LIMIT_S)
        if d["seconds"] > limit:
            failures.append(f"{sid}: took {d['seconds']:.1f}s > {limit}s")
    _emit(capsys, 1, "table reproduction (exact orders, within time budget)",
          failures)


def test_criterion_2_squeeze(pipeline, capsys):
    failures = []
    for sid, d in pipeline.items():
        system, aut, known = d["system"], d["aut"], d["known"]
        if not is_subgroup(known, aut):
            failures.append(f"{sid}: K(R) is not a subgroup of the graph group")
            continue
        if system.rank == 2:
            # uniform U_{2,m}: the squeeze is replaced by the direct argument
            # that every triple is a circuit, so the graph group is Sym(m)
            triples = set(itertools.combinations(range(system.num_lines), 3))
            if set(d["c3"]) != triples:
                failures.append(f"{sid}: C3 is not the full triple set")
            if aut.order() != factorial(system.num_lines):
                failures.append(f"{sid}: graph group is not Sym({system.num_lines})")
        elif known.order() != aut.order():
            failures.append(f"{sid}: |K(R)| = {known.order()} != |Aut| = {aut.order()}")
    _emit(capsys, 2, "squeeze certification K(R) = Aut(G(X, C3))", failures)


def test_criterion_3_oracle_equivalence(pipeline, classical_ground_truth, capsys):
    failures = []
    targets = list(classical_ground_truth)
    targets += ["H3", "I2_5", "I2_6", "I2_7"]
    for sid in targets:
        if sid in classical_ground_truth:
            system, m, circuits = classical_ground_truth[sid]
        else:
            system = parse_system_id(sid)
            m = matroid_of(system)
            circuits = all_circuits_upto(m, system.rank + 1, node_budget=BIG_BUDGET)
        from_all, returned = _graph_group(system, circuits)
        from_c3 = (pipeline[sid]["aut"] if sid in pipeline
                   else _graph_group(system, circuits3(system.lines))[0])
        if not permgrp.equal(from_c3, from_all):
            failures.append(f"{sid}: C3 group differs from all-circuits group")
        if returned != from_all.order():
            failures.append(f"{sid}: returned order {returned} != BSGS order {from_all.order()}")
    _emit(capsys, 3, "C3 graph group equals all-circuits graph group", failures)


def test_criterion_4_circuit_shape_catalogue(classical_ground_truth, capsys):
    failures = []
    for sid, (system, m, circuits) in classical_ground_truth.items():
        shapes = classical_circuits(system, system.rank + 1)
        if set(shapes) != set(circuits):
            failures.append(f"{sid}: shape catalogue disagrees with brute force")
    _emit(capsys, 4, "combinatorial circuit shapes match brute force (A/B/D, n <= 5)",
          failures)


def test_criterion_5_wreath_formula(capsys):
    cases = {"A1+A1": 2, "A1+A2": 6, "A2+A2": 72, "A1+A1+A1": 6}
    failures = []
    for spec, want in cases.items():
        r = verify_wreath(spec)
        if r.status != "PASS" or r.aut_order != want:
            failures.append(f"{spec}: got {r.aut_order} ({r.status}), expected {want}")
    _emit(capsys, 5, "wreath-product formula on direct sums", failures)


def _check_matroid_axioms(m):
    n = m.ground_size
    ranks = {}
    for r in range(n + 1):
        for s in itertools.combinations(range(n), r):
            ranks[s] = linmatroid.rank(m, s)
    problems = []
    indep = {s for s, r in ranks.items() if r == len(s)}
    # hereditary: subsets of independent sets are independent
    for s in indep:
        for i in range(len(s)):
            if s[:i] + s[i + 1:] not in indep:
                problems.append(f"hereditary fails at {s}")
    # exchange: |A| < |B| independent implies A + x independent for some x in B
    for a in indep:
        for b in indep:
            if len(a) < len(b):
                if not any(x not in a and tuple(sorted(a + (x,))) in indep
                           for x in b):
                    problems.append(f"exchange fails for {a}, {b}")
    return problems


def test_criterion_6_property_suites(pipeline, capsys):
    failures = []
    rng = random.Random(20260823)

    # matroid axioms, exhaustively
    for sid in ("A3", "B3", "D4"):
        failures += [f"{sid}: {p}"
                     for p in _check_matroid_axioms(matroid_of(parse_system_id(sid)))]

    # reflection closure: every reflection of every table system permutes lines
    for sid, d in pipeline.items():
        system = d["system"]
        if system.family == "I2":
            continue
        for k in range(system.num_lines):
            try:
                reflection_perm(system, k)
            except Exception as exc:
                failures.append(f"{sid}: reflection in line {k} fails: {exc}")
                break

    # BSGS sanity: symmetric-group orders up to n = 8
    for n in range(2, 9):
        gens = [perm_from_cycles(n, [[0, 1]]), perm_from_cycles(n, [list(range(n))])]
        if bsgs(gens).order() != factorial(n):
            failures.append(f"BSGS order wrong for Sym({n})")

    # graph-automorphism equivariance under random relabelings
    for sid in ("A3", "B3", "H3"):
        d = pipeline[sid]
        system, c3 = d["system"], d["c3"]
        order = d["aut"].order()
        for _ in range(2):
            p = rng.sample(range(system.num_lines), system.num_lines)
            relabeled = [frozenset(p[i] for i in c) for c in c3]
            rng.shuffle(relabeled)
            g = build_incidence(system.num_lines, relabeled)
            gens = graphauto.automorphism_group(g)
            ground = bsgs([restrict_to_ground(q, system.num_lines) for q in gens],
                          degree=system.num_lines)
            if ground.order() != order:
                failures.append(f"{sid}: relabeling changed the group order")

    # representative-flip invariance: negating any line representative
    # changes no rank
    for sid in ("A3", "B3", "H3"):
        system = parse_system_id(sid)
        m = matroid_of(system)
        for k in range(system.num_lines):
            flipped_lines = list(system.lines)
            flipped_lines[k] = tuple(-x for x in flipped_lines[k])
            flipped = linmatroid.LinearMatroid.from_vectors(flipped_lines)
            for r in range(1, min(system.rank + 2, system.num_lines) + 1):
                for s in itertools.combinations(range(system.num_lines), r):
                    if linmatroid.rank(m, s) != linmatroid.rank(flipped, s):
                        failures.append(f"{sid}: rank changed after flipping {k}")
                        break
                else:
                    continue
                break

    _emit(capsys, 6, "property suites (axioms, closure, BSGS, equivariance, flips)",
          failures)

