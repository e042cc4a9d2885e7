import itertools
import json
import os
import random
import subprocess
import sys
import weakref
from math import factorial, prod
from pathlib import Path

import pytest

from perm_helpers import by_mask, preserves_family, reflection_perm
from reference_permgrp import bsgs, equal
import rootmat
from rootmat import graphauto, linmatroid, permgrp, rootsystems, verify
from rootmat.cli import build_parser, main
from rootmat.errors import BudgetExceededError
from rootmat.incidencegraph import build_incidence
from rootmat.verify import (
    FAIL,
    PASS,
    VerificationReport,
    default_table_ids,
    expected_aut_order,
    oracle_crosscheck,
    verify_table,
    verify_theorem,
    verify_wreath,
    wreath_order,
)
from rootmat.rootsystems import (
    build,
    extra_symmetry_perms,
    known_group_generators,
    parse_system_id,
    simple_reflections,
)


@pytest.mark.parametrize("sid,order", [
    ("F4", 1152),
    ("H3", 120),
    ("I2_7", 5040),
    ("A3", 24),
    ("D4", 576),
])
def test_verify_theorem(sid, order):
    r = verify_theorem(sid)
    assert r.status == PASS
    assert r.aut_order == r.expected_order == order


def test_verify_theorem_i2_known_group_is_dihedral():
    # K(I2_6) contains the dihedral group and, at rank 2, is all of Sym(X)
    r = verify_theorem("I2_6")
    assert r.status == PASS
    assert r.known_group_order == r.aut_order == 720


def test_expected_orders():
    assert expected_aut_order(build("B", 4)) == 192
    assert expected_aut_order(build("D", 4)) == 576
    assert expected_aut_order(build("E6")) == 51840
    assert expected_aut_order(build("A", 7)) == 40320


@pytest.mark.parametrize("spec,order", [
    ("A1+A1", 2),
    ("A1+A2", 6),
    ("A2+A2", 72),
    ("A1+A1+A1", 6),
    ("A1+I2_5", 120),
])
def test_verify_wreath(spec, order):
    r = verify_wreath(spec)
    assert r.status == PASS
    assert r.aut_order == r.expected_order == order
    # the old path: search the incidence graph of all circuits itself
    system = parse_system_id(spec)
    circuits = linmatroid.all_circuits_upto(linmatroid.matroid_of(system), system.rank + 1)
    assert verify.aut_group_from_family(system, circuits)[0] == order


def test_wreath_order_formula():
    # 2! * 6^2 for the repeated A2 pair, times 1! * 24 for B3
    assert wreath_order(parse_system_id("A2+A2+B3")) == 2 * 36 * 24
    # D'4 has the matroid of D4, so the two form one class: 2! * 576^2
    assert wreath_order(parse_system_id("D4+Dprime4")) == 2 * 576 ** 2


def test_wreath_order_builds_no_system(monkeypatch):
    # each class's order comes from a component the sum already holds
    sums = [parse_system_id(spec) for spec in ("A2+A2+B3", "D4+Dprime4")]

    def no_build(*args):
        raise AssertionError(f"rootsystems.build{args}")

    monkeypatch.setattr(rootsystems, "build", no_build)
    assert [wreath_order(s) for s in sums] == [2 * 36 * 24, 2 * 576 ** 2]


# H3+A1 and A2+I2_5 mix a Q(sqrt 5) or rank-2 component into the sum
@pytest.mark.parametrize("spec", ["A1+A2+B3", "A3+A3", "A2+I2_5", "H3+A1"])
def test_sum_circuits_are_the_whole_sum_circuits(spec):
    s = parse_system_id(spec)
    for kmax in (3, 4, s.rank + 1):
        whole = linmatroid.all_circuits_upto(linmatroid.matroid_of(s), kmax)
        assert verify.circuits_upto(s, kmax) == whole, kmax


def test_verify_wreath_rejects_irreducible():
    with pytest.raises(ValueError):
        verify_wreath("A3")


@pytest.mark.parametrize("sid", ["A4", "D4", "B3", "I2_5", "H3", "A2+A2", "A1+A2+B3", "H3+A1"])
def test_oracle_crosscheck(sid):
    r = oracle_crosscheck(sid)
    assert r.status == PASS
    system = parse_system_id(sid)
    if system.family == "DirectSum":
        assert r.aut_order == r.known_group_order == wreath_order(system)


def test_verify_table_subset():
    reports = verify_table(["A2", "B2", "I2_5"])
    assert [r.status for r in reports] == [PASS] * 3
    # B2's matroid is uniform U_{2,4}, so its group is all of Sym(4)
    assert [r.aut_order for r in reports] == [6, 24, 120]


def _exhaust_every_enumeration(monkeypatch):
    def exhausted(*args, **kwargs):
        raise BudgetExceededError("all_circuits_upto", 10)

    monkeypatch.setattr(linmatroid, "all_circuits_upto", exhausted)


def test_budget_exceeded_status(monkeypatch):
    # no verdict enumerates circuits, so none can run out of a budget: the status is gone, and
    # wreath PASSes with every enumeration exhausted at once
    _exhaust_every_enumeration(monkeypatch)
    assert not hasattr(verify, "BUDGET_EXCEEDED")
    assert verify_wreath("A3+A3").status == PASS


def test_crosscheck_passes_with_every_enumeration_exhausted(monkeypatch):
    _exhaust_every_enumeration(monkeypatch)
    r = oracle_crosscheck("A4")
    assert (r.status, r.aut_order, r.detail) == (PASS, 120, "")


def test_cli_verify_exit_codes(monkeypatch):
    assert main(["verify", "--system", "A3"]) == 0
    full = verify.wreath_order
    monkeypatch.setattr(verify, "wreath_order", lambda system: full(system) + 1)
    assert main(["wreath", "--spec", "A3+A3"]) == 1


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_cli_verify_and_table_exit_1_on_a_fail(fmt, monkeypatch, capsys):
    # K(R) without its first generator stops short of A3's bound; A2 still PASSes by uniformity
    full = rootsystems.known_group_generators
    monkeypatch.setattr(rootsystems, "known_group_generators", lambda s: full(s)[1:])
    assert main(["verify", "--system", "A3"]) == 1
    detail = "K(R) >= 6, short of the bound 24"
    assert f"known=6            FAIL: {detail}  (" in capsys.readouterr().out
    assert main(["table", "--families", "A:2..3", "--format", fmt]) == 1
    out = capsys.readouterr().out
    assert out.count("PASS") == out.count("FAIL") == 1
    assert detail in out  # the text line, or the CSV and JSON detail field


def test_cli_verify_and_table_take_no_budget(capsys):
    # only circuits takes --budget, for its enumeration; the graph walk is bounded by construction
    for argv in (["verify", "--system", "E6", "--budget", "3"], ["table", "--budget", "3"],
                 ["aut", "--system", "E6", "--budget", "3"],
                 ["wreath", "--spec", "A1+A2", "--budget", "3"],
                 ["crosscheck", "--system", "A3", "--budget", "3"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == "rootmat: error: unrecognized arguments: --budget 3\n"


def test_cli_table_formats(capsys):
    assert main(["table", "--families", "A:2..3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [d["system_id"] for d in data] == ["A2", "A3"]
    # big integers travel as decimal strings
    assert [(d["aut_order"], d["expected_order"], d["known_group_order"]) for d in data] == [
        ("6", "6", "6"), ("24", "24", "24")]
    assert main(["table", "--families", "A:2..2,I2:5..6", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("system_id,")
    assert "I2_6" in out


def test_cli_circuits_json(capsys):
    assert main(["circuits", "--system", "B2", "--max-order", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"system": "B2", "order": 3,
                    "circuits": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}


def test_cli_wreath_and_crosscheck():
    assert main(["wreath", "--spec", "A1+A2"]) == 0
    assert main(["crosscheck", "--system", "A3"]) == 0


def test_cli_crosscheck_labels_the_all_circuits_order(capsys):
    # the order of the group of all circuits, which a PASS proves by realizing its generators
    assert main(["crosscheck", "--system", "A3"]) == 0
    out = capsys.readouterr().out
    assert "realized=24" in out
    assert "known=" not in out


def test_cli_wreath_prints_no_known_order(capsys):
    # a wreath report builds no K(R), so it has no known order to print
    assert main(["wreath", "--spec", "A3+A3"]) == 0
    out = capsys.readouterr().out
    assert "expected=1152" in out
    assert "known=" not in out


def test_cli_closed_stdout_ends_quietly():
    # the read end is closed before the child starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(rootmat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run([sys.executable, "-m", "rootmat.cli", "circuits", "--system", "A3"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_cli_aut_generators(capsys):
    assert main(["aut", "--system", "A2", "--emit-generators"]) == 0
    out = capsys.readouterr().out
    assert "|Aut(G(X, C3))| = 6" in out


@pytest.mark.parametrize("argv", [
    ["verify", "--system", "X9"],
    ["verify", "--system", "D3"],
    ["table", "--families", ","],
    ["circuits", "--system", "B4", "--max-order", "5", "--budget", "10"],
    # aut, crosscheck and wreath take no --budget: argparse's rejection is one line too
    ["aut", "--system", "E6", "--budget", "3"],
    ["crosscheck", "--system", "A3", "--max-order", "2"],
    ["crosscheck", "--system", "A3", "--max-order", "0"],
    ["crosscheck", "--system", "A3", "--max-order", "-2"],
    ["crosscheck", "--system", "A3", "--budget", "-5"],
    ["wreath", "--spec", "A1+A2", "--budget", "0"],
    ["circuits", "--system", "A3", "--budget", "-1"],
    # a circuits order below 1 is rejected as a budget below 1 is
    ["circuits", "--system", "A3", "--max-order", "0"],
    ["circuits", "--system", "A3", "--max-order", "-2"],
    ["circuits", "--system", "A3", "--max-order", "-5", "--format", "text"],
], ids=["unknown-id", "D3", "empty-families", "circuits-budget", "aut-budget",
        "crosscheck-order-2", "crosscheck-order-0", "crosscheck-order-minus-2",
        "crosscheck-budget-minus-5", "wreath-budget-0", "circuits-budget-minus-1",
        "circuits-order-0", "circuits-order-minus-2", "circuits-order-minus-5"])
def test_cli_errors_are_one_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rootmat: error: ")
    assert captured.err.count("\n") == 1


def test_cli_reports_running_out_of_memory_in_one_line(monkeypatch, capsys):
    # a huge system id (say B999999999999) runs out of memory building its roots
    def exhausted(system_id):
        raise MemoryError

    monkeypatch.setattr(verify, "verify_theorem", exhausted)
    assert main(["verify", "--system", "B3"]) == 2
    assert capsys.readouterr() == ("", "rootmat: error: MemoryError\n")


def test_crosscheck_default_order_covers_a1():
    assert oracle_crosscheck("A1").status == PASS


@pytest.mark.parametrize("order", ["2", "1"])
def test_cli_circuits_below_order_three_are_empty(order, capsys):
    assert main(["circuits", "--system", "A3", "--max-order", order, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["circuits"] == []
    assert main(["circuits", "--system", "A3", "--max-order", order, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert out == f"# A3: 0 circuits of order <= {order}\n"


def test_cli_circuits_budget_bounds_each_component(capsys):
    # the whole A3+A3 enumeration needs 2,067 nodes, each A3 needs 53
    s = parse_system_id("A3+A3")
    whole = linmatroid.all_circuits_upto(linmatroid.matroid_of(s), 7)
    assert len(whole) == 14
    with pytest.raises(BudgetExceededError):
        linmatroid.all_circuits_upto(linmatroid.matroid_of(s), 7, node_budget=100)
    assert main(["circuits", "--system", "A3+A3", "--max-order", "7", "--budget", "100"]) == 0
    assert json.loads(capsys.readouterr().out)["circuits"] == [list(c) for c in whole]


def test_cli_circuits_enumerates_one_component_at_a_time(monkeypatch, capsys):
    calls, full = [], linmatroid.all_circuits_upto
    monkeypatch.setattr(linmatroid, "all_circuits_upto",
                        lambda m, *a: calls.append(m.ground_size) or full(m, *a))
    assert main(["circuits", "--system", "H3+H3", "--max-order", "7"]) == 0
    assert calls == [15, 15]
    per_h3 = len(full(linmatroid.matroid_of(build("H3")), 4))
    assert len(json.loads(capsys.readouterr().out)["circuits"]) == 2 * per_h3


def test_cli_circuits_max_order_error_names_the_flag(capsys):
    assert main(["circuits", "--system", "A3", "--max-order", "-5"]) == 2
    assert capsys.readouterr().err == "rootmat: error: --max-order must be at least 1, got -5\n"


def test_cli_circuits_budget_help_says_order_three_enumerates_nothing(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["circuits", "--help"])
    assert "above order 3" in " ".join(capsys.readouterr().out.split())


def test_cli_circuits_budget_defaults_to_enumerator_budget():
    args = build_parser().parse_args(["circuits", "--system", "E6", "--max-order", "6"])
    assert args.budget == linmatroid.DEFAULT_NODE_BUDGET


KNOWN_GROUP_IDS = [sid for sid in default_table_ids() if not sid.startswith("I2")]
KNOWN_GROUP_IDS += ["B9", "D10", "Dprime4"]


@pytest.mark.parametrize("sid", KNOWN_GROUP_IDS)
def test_simple_reflections_generate_the_known_group(sid):
    # K(R) from the simple reflections is K(R) from every reflection; at rank
    # <= 2, where K(R) is Sym(X), the simple reflections still generate W(R)
    system = parse_system_id(sid)
    every = [reflection_perm(system, i) for i in range(system.num_lines)]
    every += extra_symmetry_perms(system)
    gens = (known_group_generators(system) if system.rank >= 3
            else [perm for _, perm in simple_reflections(system)])
    assert equal(bsgs(gens, degree=system.num_lines), bsgs(every, degree=system.num_lines))


@pytest.mark.parametrize("sid", KNOWN_GROUP_IDS + ["B16", "D16", "A20"])
def test_known_group_has_rank_reflection_generators(sid):
    # large ids exercise the scan's stop at rank simple lines
    system = parse_system_id(sid)
    simple = [i for i, _ in simple_reflections(system)]
    assert len(simple) == system.rank
    if system.rank >= 3:
        assert known_group_generators(system) == (
            [reflection_perm(system, i) for i in simple] + extra_symmetry_perms(system))


@pytest.mark.parametrize("dropped", range(6))
def test_known_group_missing_a_simple_reflection_fails(dropped, monkeypatch):
    # a generator too few shrinks K(R): the squeeze must fail, never pass
    full = rootsystems.known_group_generators

    def short(system):
        gens = full(system)
        return gens[:dropped] + gens[dropped + 1:]

    monkeypatch.setattr(rootsystems, "known_group_generators", short)
    r = verify_theorem("E6")
    # K(R) stops short of the bound: the report gives what its chain proves, a lower bound
    assert (r.status, r.detail) == (
        FAIL, f"K(R) >= {r.known_group_order}, short of the bound 51840")
    assert r.aut_order == 51840
    e6 = parse_system_id("E6")
    assert 0 < r.known_group_order <= bsgs(short(e6), degree=e6.num_lines).order() < 51840


def test_known_group_reaching_a_bound_off_the_table_is_an_order_mismatch(monkeypatch):
    monkeypatch.setattr(rootsystems.FAMILIES["E6"], "order", lambda n: 51841)
    r = verify_theorem("E6")
    assert (r.status, r.detail) == (FAIL, "order mismatch")
    assert (r.aut_order, r.expected_order, r.known_group_order) == (51840, 51841, 51840)


def _record_counts(monkeypatch):
    """Record each call of the squeeze's two counts: K(R)'s BSGS and the first-path bound."""
    calls = []
    for owner, name in [(permgrp, "bsgs"), (graphauto, "path_bound")]:
        def counted(*a, full=getattr(owner, name), name=name, **k):
            calls.append(name)
            return full(*a, **k)

        monkeypatch.setattr(owner, name, counted)
    return calls


def _assert_counted_nothing(r, counts):
    """A failed check comes before the counts: no order is computed or reported."""
    assert r.aut_order == r.known_group_order == 0
    assert counts == []


@pytest.mark.parametrize("sid", ["E6", "I2_7"])
def test_squeeze_checks_before_it_counts(sid, monkeypatch):
    counts, preserves = _record_counts(monkeypatch), verify._preserves_c3
    monkeypatch.setattr(verify, "_preserves_c3", lambda *a: counts.append("check") or preserves(*a))
    assert verify_theorem(sid).status == PASS
    assert counts == (["check", "path_bound", "bsgs"] if sid == "E6" else [])


@pytest.mark.parametrize("sid", ["E8", "B9"])
def test_c3_graph_is_gone_before_the_known_group_bsgs(sid, monkeypatch):
    # one graph serves the preservation check and the first-path bound, and is
    # dropped before K(R)'s BSGS, which sets the peak memory
    graphs, calls = [], []
    build_graph, full_bsgs = verify.build_incidence, permgrp.bsgs

    def build(*args):
        g = build_graph(*args)
        graphs.append(weakref.ref(g))
        return g

    def k_bsgs(*args, **kwargs):
        assert len(graphs) == 1 and graphs[0]() is None
        calls.append("bsgs")
        return full_bsgs(*args, **kwargs)

    monkeypatch.setattr(verify, "build_incidence", build)
    monkeypatch.setattr(permgrp, "bsgs", k_bsgs)
    assert verify_theorem(sid).status == PASS
    assert calls == ["bsgs"]


def _bogus_generator_cases():
    for sid in ["E6", "H4", "D5", "F4"]:
        for i in range(len(known_group_generators(parse_system_id(sid)))):
            yield sid, i


@pytest.mark.parametrize("sid,replaced", list(_bogus_generator_cases()))
def test_generator_that_is_no_line_map_fails(sid, replaced, monkeypatch):
    # C3 is built from K(R)'s orbits: a generator that is not an automorphism
    # (the transposition of lines 0 and 1) must fail the preservation check
    full = rootsystems.known_group_generators

    def bogus(system):
        gens = list(full(system))
        gens[replaced] = (1, 0) + tuple(range(2, system.num_lines))
        return gens

    monkeypatch.setattr(rootsystems, "known_group_generators", bogus)
    counts = _record_counts(monkeypatch)
    r = verify_theorem(sid)
    assert (r.status, r.detail) == (FAIL, "known generator does not preserve C3")
    _assert_counted_nothing(r, counts)


@pytest.mark.parametrize("sid", ["E6", "H4", "D5", "F4", "B9"])
def test_generator_merging_two_lines_of_a_triple_fails(sid, monkeypatch):
    # a tuple that is no permutation: a -> b, which sends the triple (a, b, c) to (b, b, c)
    full = rootsystems.known_group_generators
    a, b, _ = linmatroid.circuits3(parse_system_id(sid).lines)[0]

    def merging(system):
        merge = list(range(system.num_lines))
        merge[a] = b
        return list(full(system)) + [tuple(merge)]

    monkeypatch.setattr(rootsystems, "known_group_generators", merging)
    counts = _record_counts(monkeypatch)
    r = verify_theorem(sid)
    assert (r.status, r.detail) == (FAIL, "known generator does not preserve C3")
    _assert_counted_nothing(r, counts)


@pytest.mark.parametrize("sid", ["E6", "H4"])
def test_preserves_c3_rejects_merges_and_transpositions(sid):
    # a -> b sends the triple (a, b, c) to the multiset {b, b, c}, whose key is no triple's
    s = parse_system_id(sid)
    n, gens = s.num_lines, known_group_generators(s)
    c3 = linmatroid.circuits3(s.lines, gens)
    g = build_incidence(n, c3)
    assert verify._preserves_c3(gens, g, n)
    a, b, _ = c3[0]
    merge = list(range(n))
    merge[a] = b
    assert not verify._preserves_c3(gens + [tuple(merge)], g, n)
    assert not verify._preserves_c3(gens + [(1, 0) + tuple(range(2, n))], g, n)


def test_preserves_c3_is_the_sorted_triple_lookup_on_every_tuple():
    # every map of 5 points, non-injective ones included, against the lookup
    # of each image triple's sorted tuple, on several families of triples
    triples = list(itertools.combinations(range(5), 3))
    for c3 in (triples, triples[:4], triples[::3], [triples[0], triples[-1]]):
        family, g = set(c3), build_incidence(5, c3)
        for gen in itertools.product(range(5), repeat=5):
            expected = all(tuple(sorted(gen[i] for i in c)) in family for c in c3)
            assert verify._preserves_c3([gen], g, 5) == expected


def test_preserves_c3_keys_tell_every_image_multiset_apart():
    # a family of one triple t and a map sending t onto each multiset m of
    # 3 of 8 lines: preserved exactly when m is t, so no two multisets share a key
    n = 8
    for t in itertools.combinations(range(n), 3):
        g = build_incidence(n, [t])
        for m in itertools.product(range(n), repeat=3):
            gen = list(range(n))
            for i, j in zip(t, m):
                gen[i] = j
            assert verify._preserves_c3([tuple(gen)], g, n) == (tuple(sorted(m)) == t)


def test_preserves_family_rejects_a_tuple_that_merges_lines():
    # (0, 0) maps {0} and {1} to {0}, and the bits of {0, 1} add up to {1}'s mask
    family = by_mask([(0,), (1,), (0, 1)])
    assert preserves_family((1, 0), family)
    assert not preserves_family((0, 0), family)
    assert not preserves_family((1, 0), by_mask([(0,), (0, 1)]))


def _record_calls(monkeypatch):
    """Count known_group_generators calls; record the generators circuits3 gets."""
    calls, c3_gens = [], []
    kgens, c3 = rootsystems.known_group_generators, linmatroid.circuits3
    monkeypatch.setattr(rootsystems, "known_group_generators",
                        lambda system: calls.append(system.system_id) or kgens(system))
    monkeypatch.setattr(linmatroid, "circuits3",
                        lambda lines, *a: c3_gens.append(a) or c3(lines, *a))
    return calls, c3_gens


@pytest.mark.parametrize("sid", ["A3", "E6", "H4", "B9", "I2_7", "A2"])
def test_verify_theorem_builds_known_generators_once(sid, monkeypatch):
    # one list of K(R)'s generators per verdict at rank >= 3, which C3 takes; none below
    calls, c3_gens = _record_calls(monkeypatch)
    assert verify_theorem(sid).status == PASS
    if parse_system_id(sid).rank >= 3:
        assert calls == [sid]
        assert c3_gens == [(known_group_generators(parse_system_id(sid)),)]
    else:
        assert (calls, c3_gens) == ([], [()])


def test_crosscheck_and_wreath_build_no_known_group(monkeypatch):
    calls, c3_gens = _record_calls(monkeypatch)
    assert oracle_crosscheck("D4").status == PASS
    assert verify_wreath("A1+A2+B3").status == PASS
    assert calls == []
    assert all(not any(a) for a in c3_gens)


def test_crosscheck_and_wreath_search_triples_only(monkeypatch):
    # a sum's C3 group is checked against its circuits, as an irreducible system's is
    families, build_graph = [], verify.build_incidence
    monkeypatch.setattr(verify, "build_incidence",
                        lambda n, sets: families.append(list(sets)) or build_graph(n, sets))
    assert verify_wreath("A1+A2+B3").status == PASS
    assert oracle_crosscheck("D4").status == PASS
    assert families == [linmatroid.circuits3(parse_system_id(sid).lines)
                        for sid in ("A1+A2+B3", "D4")]
    assert all(len(c) == 3 for family in families for c in family)


def test_wreath_order_mismatch_fails(monkeypatch):
    full = verify.wreath_order
    monkeypatch.setattr(verify, "wreath_order", lambda system: full(system) + 1)
    r = verify_wreath("A1+A2+B3")
    assert (r.status, r.detail) == (FAIL, "order mismatch")
    assert (r.aut_order, r.expected_order, r.known_group_order) == (144, 145, 0)


@pytest.mark.parametrize("spec,order,detail", [
    # A2's one triple dropped: A1's and A2's lines are then alike, and a generator mixing them
    # is no map between components
    ("A1+A2+B3", 576, "C3 group generator (0 1) is not induced by a (semi)linear map"),
    # a triple of the first A3 dropped: the group shrinks, and its generators still realize
    ("A3+A3", 144, "order mismatch"),
], ids=["A1+A2+B3", "A3+A3"])
def test_wreath_fails_on_a_missing_circuit(spec, order, detail, monkeypatch):
    # a C3 missing its first 3-circuit is no matroid's C3: the check must FAIL, never PASS
    full = linmatroid.circuits3
    monkeypatch.setattr(linmatroid, "circuits3", lambda lines, *a: full(lines, *a)[1:])
    r = verify_wreath(spec)
    assert (r.status, r.known_group_order, r.detail) == (FAIL, 0, detail)
    assert (r.aut_order, r.c3_count) == (order, len(full(parse_system_id(spec).lines)) - 1)


@pytest.mark.parametrize("spec", ["A2+A2", "H3+A1"])
def test_verify_theorem_rejects_direct_sums(spec):
    with pytest.raises(ValueError, match="rootmat wreath --spec"):
        verify_theorem(spec)


def test_cli_verify_direct_sum_is_a_usage_error(capsys):
    assert main(["verify", "--system", "A2+A2"]) == 2
    err = capsys.readouterr().err
    assert err == "rootmat: error: A2+A2 is a direct sum; use rootmat wreath --spec A2+A2\n"


@pytest.mark.parametrize("sid,kmax", [("I2_7", None), ("A3", 3), ("A3", None), ("D5", None),
                                      ("A2+A2", None)])
def test_crosscheck_makes_one_search_on_the_c3_graph(sid, kmax, monkeypatch):
    # C3's graph is searched once and no circuit is enumerated; the circuits of order <= kmax
    # (default: the rank), enumerated here afterwards, are preserved by the group it found
    searched, built, calls = [], [], []
    search, build_graph = graphauto.automorphism_group, verify.build_incidence

    def counted_search(g, *args, **kwargs):
        searched.append(g.num_vertices)
        return search(g, *args, **kwargs)

    def counted_build(*args, **kwargs):
        built.append(args)
        return build_graph(*args, **kwargs)

    monkeypatch.setattr(graphauto, "automorphism_group", counted_search)
    monkeypatch.setattr(verify, "build_incidence", counted_build)
    monkeypatch.setattr(permgrp, "equal", lambda *a: calls.append("equal"))
    monkeypatch.setattr(linmatroid, "all_circuits_upto", lambda *a: calls.append("enumerate"))
    r = oracle_crosscheck(sid)
    assert r.status == PASS
    assert searched == [r.num_lines + r.c3_count]
    assert len(built) == 1
    assert calls == []
    monkeypatch.undo()
    system = parse_system_id(sid)
    family = _circuit_oracle(system, kmax)
    gens = verify.aut_group_from_family(system, linmatroid.circuits3(system.lines))[1]
    assert all(preserves_family(g, family) for g in gens)


@pytest.mark.parametrize("sid,kmax", [("A3", 3), ("A3", None), ("A4", None), ("A5", None),
                                      ("B3", None), ("B4", None), ("D4", None), ("D5", None),
                                      ("H3", None), ("Dprime4", None), ("I2_7", None),
                                      ("A2+A2", None), ("B2+A1", None)])
def test_crosscheck_orders_match_the_all_circuits_search(sid, kmax):
    # the old path: search the all-circuits incidence graph itself
    system = parse_system_id(sid)
    k = kmax or max(system.rank + 1, 3)
    circuits = linmatroid.all_circuits_upto(linmatroid.matroid_of(system), k)
    order, gens = verify.aut_group_from_family(system, circuits)
    r = oracle_crosscheck(sid)
    assert r.status == PASS
    assert r.aut_order == r.known_group_order == order == bsgs(
        gens, degree=system.num_lines).order()


def _untimed(report):
    d = report.to_json_dict()
    del d["timing_ms"]
    return d


def test_crosscheck_checks_the_table_order(monkeypatch, capsys):
    # a C3 group that preserves the circuits but contradicts the table is a FAIL
    monkeypatch.setattr(rootsystems.FAMILIES["H3"], "order", lambda n: 121)
    r = oracle_crosscheck("H3")
    assert (r.status, r.detail) == (FAIL, "order mismatch")
    assert (r.aut_order, r.expected_order, r.known_group_order) == (120, 121, 0)
    assert main(["crosscheck", "--system", "H3"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "all-circuits=" not in out


def test_crosscheck_checks_the_closed_form_order(monkeypatch):
    full = verify.expected_aut_order
    monkeypatch.setattr(verify, "expected_aut_order", lambda system: full(system) + 1)
    r = oracle_crosscheck("A4")
    assert (r.status, r.detail) == (FAIL, "order mismatch")
    assert (r.aut_order, r.expected_order, r.known_group_order) == (120, 121, 0)
    assert main(["crosscheck", "--system", "A4"]) == 1


@pytest.mark.parametrize("spec", ["A1+A2+B3", "A3+A3", "A2+I2_5", "H3+A1", "D4+Dprime4"])
def test_wreath_report_is_the_crosscheck_report(spec):
    assert _untimed(verify_wreath(spec)) == _untimed(oracle_crosscheck(spec))


def test_cli_wreath_prints_the_all_circuits_order(capsys):
    assert main(["wreath", "--spec", "A3+A3"]) == 0
    assert "realized=1152" in capsys.readouterr().out


@pytest.mark.parametrize("sid", ["A1", "A3", "A4", "A5", "B3", "B4", "B5", "D4", "D5", "Dprime4",
                                 "F4", "H3", "I2_7"])
def test_crosscheck_default_order_reports_as_rank_plus_one(sid):
    # the report is the one the check against every circuit of order <= rank + 1 made: the group
    # of all circuits, its order reported twice
    system = parse_system_id(sid)
    circuits = linmatroid.all_circuits_upto(linmatroid.matroid_of(system), max(system.rank + 1, 3))
    order = verify.aut_group_from_family(system, circuits)[0]
    r = oracle_crosscheck(sid)
    assert (r.status, r.aut_order, r.known_group_order, r.detail) == (PASS, order, order, "")


def _circuit_oracle(system, kmax=None):
    """The circuits of order <= kmax (default: max(rank, 3)), keyed `by_mask`.

    A permutation preserving them preserves every circuit, since a set is
    independent iff it has <= rank elements and no circuit of <= rank
    elements (Oxley 1.1).
    """
    return by_mask(verify.circuits_upto(system, kmax or max(system.rank, 3)))


@pytest.mark.parametrize("sid", ["A1", "A2", "I2_7", "A3", "H3", "A4", "B4", "D5", "F4",
                                 "A1+A2+B3", "A3+A3"])
def test_crosscheck_enumerates_no_circuits(sid, monkeypatch):
    calls = []
    monkeypatch.setattr(linmatroid, "all_circuits_upto", lambda *a: calls.append(a))
    assert oracle_crosscheck(sid).status == PASS
    if "+" in sid:
        assert verify_wreath(sid).status == PASS
    assert calls == []


# CI's crosscheck systems: on each, the circuits of order <= rank can still be enumerated
@pytest.mark.parametrize("sid", ["D5", "H3", "A3+A3", "F4", "B5", "D6", "E6", "H4"])
def test_generators_realize_and_preserve_the_circuits_up_to_the_rank(sid):
    system = parse_system_id(sid)
    order, gens = verify.aut_group_from_family(system, linmatroid.circuits3(system.lines))
    frames, family = verify._frames(system), _circuit_oracle(system)
    assert gens
    for gen in gens:
        assert verify._realizes(frames, gen)
        assert preserves_family(gen, family)
    assert oracle_crosscheck(sid).aut_order == order


def _transposed(gen, i, j):
    """gen composed with the transposition (i j): an automorphism exactly when (i j) is one."""
    perm = list(gen)
    perm[i], perm[j] = perm[j], perm[i]
    return tuple(perm)


@pytest.mark.parametrize("sid", ["E6", "F4", "H4", "D4", "B5"])
def test_generator_composed_with_a_transposition_is_not_realized(sid, monkeypatch):
    system = parse_system_id(sid)
    gens = verify.aut_group_from_family(system, linmatroid.circuits3(system.lines))[1]
    frames, rng = verify._frames(system), random.Random(sid)
    for _ in range(20):
        i, j = rng.sample(range(system.num_lines), 2)
        assert not verify._realizes(frames, _transposed(rng.choice(gens), i, j)), (i, j)
    # end to end: the report names the generator, and keeps the searched order
    full = verify.aut_group_from_family
    monkeypatch.setattr(verify, "aut_group_from_family",
                        lambda *a: (lambda order, g: (order, [_transposed(g[0], 0, 1)] + g[1:]))(
                            *full(*a)))
    r = oracle_crosscheck(sid)
    bad = permgrp.cycle_notation(_transposed(gens[0], 0, 1))
    assert (r.status, r.known_group_order) == (FAIL, 0)
    assert r.detail == f"C3 group generator {bad} is not induced by a (semi)linear map"


@pytest.mark.parametrize("sid,unrealized", [("H3", 1), ("H4", 3)])
def test_golden_systems_need_conjugation(sid, unrealized, monkeypatch):
    # linear maps alone realize only some generators of H3's and H4's groups: the rest are
    # semilinear, twisted by Galois conjugation
    system = parse_system_id(sid)
    gens = verify.aut_group_from_family(system, linmatroid.circuits3(system.lines))[1]
    monkeypatch.setattr(verify, "_TAUS", verify._TAUS[:1])
    frames = verify._frames(system)
    assert sum(not verify._realizes(frames, g) for g in gens) == unrealized
    r = oracle_crosscheck(sid)
    assert (r.status, r.known_group_order) == (FAIL, 0)
    assert r.detail.endswith("is not induced by a (semi)linear map")


def _block_swap(system, image_of_line):
    """The involution of a two-component sum mapping the first component's line i to the
    second's image_of_line(i)."""
    n = system.components[0].num_lines
    perm = list(range(system.num_lines))
    for i in range(n):
        j = n + image_of_line(i)
        perm[i], perm[j] = j, i
    return tuple(perm)


def test_d4_block_swap_is_realized_through_the_f4_duality_only():
    system = parse_system_id("D4+Dprime4")
    d4, dprime4 = system.components
    frames = verify._frames(system)
    duality = [dprime4.line_index[rootsystems.line_key(rootsystems._f4_duality(x))]
               for x in d4.lines]
    assert verify._realizes(frames, _block_swap(system, duality.__getitem__))
    assert not verify._realizes(frames, _block_swap(system, lambda i: i))


@pytest.mark.parametrize("spec", ["A5+H3", "A3+I2_6"])
def test_swap_onto_another_matroid_class_is_not_realized(spec):
    # same line count, other matroid: A5 and H3 have 15 lines, A3 and I2_6 six
    system = parse_system_id(spec)
    assert not verify._realizes(verify._frames(system), _block_swap(system, lambda i: i))


def test_cli_crosscheck_takes_no_max_order(capsys):
    # the realization check enumerates no circuits, so there is no order to set
    assert main(["crosscheck", "--system", "D5", "--max-order", "6"]) == 2
    assert capsys.readouterr().err == "rootmat: error: unrecognized arguments: --max-order 6\n"


@pytest.mark.parametrize("families", ["A:1..2..3", "A:x", "A:", "A:3..1", "A:3..1,B:2"])
def test_cli_bad_families_range_names_the_flag(families, capsys):
    assert main(["table", "--families", families]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    bad = families.split(",")[0]
    assert captured.err.startswith(f"rootmat: error: --families: bad range {bad!r}")
    assert captured.err.count("\n") == 1


def test_import_loads_no_fractions_module():
    src = str(Path(rootmat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, rootmat.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_import_loads_no_introspection_modules():
    # dataclasses brings inspect, ast, dis and tokenize, about 12 ms of a cold start
    src = str(Path(rootmat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys; before = set(sys.modules); import rootmat; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("sid", default_table_ids() + ["I2_16", "I2_18", "I2_20", "B9", "D10"])
def test_rank_two_verdict_makes_no_search(sid, monkeypatch):
    # rank <= 2 is uniform, so both ends are Sym(X); above, K(R) closes the
    # squeeze by reaching the first-path bound: no search, Aut BSGS or subgroup test
    calls = []
    for owner, name in [(graphauto, "automorphism_group"), (verify, "aut_group_from_family"),
                        (permgrp, "is_subgroup")]:
        monkeypatch.setattr(owner, name, lambda *a, name=name, **k: calls.append(name))
    r = verify_theorem(sid)
    assert calls == []
    assert r.status == PASS
    uniform = parse_system_id(sid).rank <= 2
    assert r.aut_order == r.expected_order == (
        factorial(r.num_lines) if uniform else r.known_group_order)


@pytest.mark.parametrize("sid", [s for s in KNOWN_GROUP_IDS if parse_system_id(s).rank > 2])
def test_path_bound_is_the_searched_order_and_the_known_order(sid):
    system = parse_system_id(sid)
    c3 = linmatroid.circuits3(system.lines)
    n = system.num_lines
    g = build_incidence(n, c3)
    graph_group = bsgs(graphauto.automorphism_group(g), degree=g.num_vertices)
    order, gens = verify.aut_group_from_family(system, c3)
    assert graphauto.path_bound(g) == graph_group.order() == order == bsgs(
        gens, degree=n).order() == bsgs(known_group_generators(system), degree=n).order()


@pytest.mark.parametrize("sid", ["A3", "E6", "H4", "I2_7", "D4+Dprime4"])
def test_aut_group_from_family_builds_no_second_bsgs(sid, monkeypatch):
    # automorphism_group's per-level orbit check has proved the first-path bound to be the order
    calls = []
    monkeypatch.setattr(permgrp, "bsgs", lambda *a, **k: calls.append(a))
    system = parse_system_id(sid)
    order, _ = verify.aut_group_from_family(system, linmatroid.circuits3(system.lines))
    assert calls == []
    assert order == expected_aut_order(system)


@pytest.mark.parametrize("sid", ["E6", "H4"])
def test_missing_triple_fails_above_rank_two(sid, monkeypatch):
    # a C3 that K(R) does not preserve can never pass, whatever its bound
    full = linmatroid.circuits3
    monkeypatch.setattr(linmatroid, "circuits3", lambda lines, *a: full(lines, *a)[1:])
    counts = _record_counts(monkeypatch)
    r = verify_theorem(sid)
    assert (r.status, r.detail) == (FAIL, "known generator does not preserve C3")
    _assert_counted_nothing(r, counts)


@pytest.mark.parametrize("sid", ["A3", "H3", "E6"])
def test_squeeze_builds_no_matroid(sid, monkeypatch):
    # C3 comes from the lines; only the all-circuits families build the rows
    calls = []
    monkeypatch.setattr(linmatroid, "matroid_of", lambda *a: calls.append(a))
    assert verify_theorem(sid).status == PASS
    assert calls == []


@pytest.mark.parametrize("sid", ["A1", "A2", "B2", "I2_7", "I2_20"])
def test_rank_two_builds_no_known_group_graph_or_bsgs(sid, monkeypatch):
    # every triple is a circuit, so both ends are Sym(X): nothing is generated, built or counted
    calls = []
    for owner, name in [(rootsystems, "known_group_generators"), (verify, "build_incidence"),
                        (verify, "_preserves_c3"), (graphauto, "path_bound"), (permgrp, "bsgs")]:
        monkeypatch.setattr(owner, name, lambda *a, name=name, **k: calls.append(name))
    r = verify_theorem(sid)
    assert (r.status, calls) == (PASS, [])
    assert r.aut_order == r.known_group_order == r.expected_order == factorial(r.num_lines)


def test_rank_two_missing_triple_fails(monkeypatch):
    full = linmatroid.circuits3
    monkeypatch.setattr(linmatroid, "circuits3", lambda lines, *a: full(lines, *a)[1:])
    counts = _record_counts(monkeypatch)
    r = verify_theorem("I2_7")
    assert (r.status, r.detail) == (FAIL, "C3 is not the full triple set")
    _assert_counted_nothing(r, counts)


@pytest.mark.parametrize("spec", ["A2+I2_5", "H3+A1", "D4+Dprime4", "I2_5+I2_7",
                                  "A1+A2+B3", "A3+A3"])
def test_known_group_of_a_sum_is_the_product(spec):
    def order(system):
        return bsgs(known_group_generators(system), degree=system.num_lines).order()

    system = parse_system_id(spec)
    assert order(system) == prod(order(c) for c in system.components)


def test_cli_table_json_matches_the_golden_rows(capsys):
    # every row of the default table, apart from its timing
    golden = json.loads((Path(__file__).parent / "golden_table.json").read_text())
    assert main(["table", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    for row in rows:
        del row["timing_ms"]
    assert rows == golden
