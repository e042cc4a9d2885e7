"""The family table: parsed ids, built systems and their orders, pinned value by value.

PARSED and REJECTED were recorded from the per-family code paths that the
table replaced (`build`'s if-chain, the id regex, the order table keyed by
system id), so a table row must reproduce each of them exactly.
"""

import contextlib
import copy
import csv
import hashlib
import io

import pytest

from rootmat import rootsystems
from rootmat.cli import build_parser, main
from rootmat.rootsystems import Family, _d_roots, _e, parse_system_id
from rootmat.verify import (
    FAIL,
    PASS,
    TABLE_FAMILIES,
    default_table_ids,
    expected_aut_order,
    verify_theorem,
    verify_wreath,
    wreath_order,
)

TABLE_IDS = (
    [f"A{n}" for n in range(1, 8)] + [f"B{n}" for n in range(2, 8)] + [f"D{n}" for n in range(4, 8)]
    + ["E6", "E7", "E8", "F4", "H3", "H4"] + [f"I2_{m}" for m in range(5, 13)])

# id -> (system_id, family, rank_param, rank, ambient_dim, lines digest, expected_aut_order)
PARSED = {
    "A1": ("A1", "A", 1, 1, 2, "bab31ae303cd1ec8", 1),
    "A2": ("A2", "A", 2, 2, 3, "3623afa172b00a42", 6),
    "A3": ("A3", "A", 3, 3, 4, "59625ae623ef255f", 24),
    "A4": ("A4", "A", 4, 4, 5, "350897272ec8be82", 120),
    "A5": ("A5", "A", 5, 5, 6, "b803ba3e545cc821", 720),
    "A6": ("A6", "A", 6, 6, 7, "b5c3b7dff5f05039", 5040),
    "A7": ("A7", "A", 7, 7, 8, "c812571118b7f994", 40320),
    "B2": ("B2", "B", 2, 2, 2, "19c9ce9d27983739", 24),
    "B3": ("B3", "B", 3, 3, 3, "21669b0db4352a7c", 24),
    "B4": ("B4", "B", 4, 4, 4, "f27f7045ca46cc32", 192),
    "B5": ("B5", "B", 5, 5, 5, "9a07d3b897d6107c", 1920),
    "B6": ("B6", "B", 6, 6, 6, "9467193f6435bf93", 23040),
    "B7": ("B7", "B", 7, 7, 7, "cb33c81fea74f903", 322560),
    "D4": ("D4", "D", 4, 4, 4, "c3f03030816b28d4", 576),
    "D5": ("D5", "D", 5, 5, 5, "6378e9b2b8e43c12", 1920),
    "D6": ("D6", "D", 6, 6, 6, "3c041814818bc1d0", 23040),
    "D7": ("D7", "D", 7, 7, 7, "69b1ebcc8a9df3f1", 322560),
    "E6": ("E6", "E6", 6, 6, 8, "f5e279f3a62b79f3", 51840),
    "E7": ("E7", "E7", 7, 7, 8, "1fbd8d398a480c58", 1451520),
    "E8": ("E8", "E8", 8, 8, 8, "e8612b2d3e7de114", 348364800),
    "F4": ("F4", "F4", 4, 4, 4, "abf79101cf1e4cea", 1152),
    "H3": ("H3", "H3", 3, 3, 3, "77c567e4d43fa706", 120),
    "H4": ("H4", "H4", 4, 4, 4, "5b2b663901adaa9b", 14400),
    "I2_5": ("I2_5", "I2", 5, 2, 2, "963ca9f8bc53cdaa", 120),
    "I2_6": ("I2_6", "I2", 6, 2, 2, "1003ab9841e11069", 720),
    "I2_7": ("I2_7", "I2", 7, 2, 2, "7986d4da6ac32d9f", 5040),
    "I2_8": ("I2_8", "I2", 8, 2, 2, "1de622f0ddf90842", 40320),
    "I2_9": ("I2_9", "I2", 9, 2, 2, "79e79c10180583d6", 362880),
    "I2_10": ("I2_10", "I2", 10, 2, 2, "4da5d8bedbc730a8", 3628800),
    "I2_11": ("I2_11", "I2", 11, 2, 2, "5b12f27930313578", 39916800),
    "I2_12": ("I2_12", "I2", 12, 2, 2, "b351a474eb2067af", 479001600),
    "Dprime4": ("Dprime4", "Dprime4", 4, 4, 4, "56eebc8d9a688478", 576),
    "B9": ("B9", "B", 9, 9, 9, "720f36c6d3e777cd", 92897280),
    "D10": ("D10", "D", 10, 10, 10, "1240517e8f0bc705", 1857945600),
    "I2_20": ("I2_20", "I2", 20, 2, 2, "f9e68061846fc501", 2432902008176640000),
    "A03": ("A3", "A", 3, 3, 4, "59625ae623ef255f", 24),
    " A3 ": ("A3", "A", 3, 3, 4, "59625ae623ef255f", 24),
    "A2+I2_5": ("A2+I2_5", "DirectSum", 0, 4, 5, "c3fccd82a28e095c", 720),
}

REJECTED = {
    "A_3": "unrecognized system id: 'A_3'",
    "I27": "unrecognized system id: 'I27'",
    "I2": "unrecognized system id: 'I2'",
    "E9": "unrecognized system id: 'E9'",
    "Dprime": "unrecognized system id: 'Dprime'",
    "D": "unrecognized system id: 'D'",
    "D3": "D_n requires n >= 4 (D3 would alias A3)",
    "B1": "B requires parameter >= 2, got 1",
    "I2_4": "I2 requires parameter >= 5, got 4",
    "Z9": "unrecognized system id: 'Z9'",
}

# a sum with an empty component is rejected by its whole id, not by the empty part
EMPTY_COMPONENT_IDS = ["A3+", "+A3", "A3++B3", "A3+ +B3"]

# direct sum -> (its matroid, the components' joined; expected_aut_order; wreath_order),
# the orders recorded before a sum had a matroid
SUM_MATROIDS = {
    "A2+Dprime4": ("A2+D4", 3456, 3456),
    "D4+Dprime4": ("D4+D4", 663552, 663552),
    "Dprime4+D4+D4": ("D4+D4+D4", 1146617856, 1146617856),
    "A2+A2": ("A2+A2", 72, 72),
    "I2_5+A2+I2_5": ("I2_5+A2+I2_5", 172800, 172800),
}

# --families spec -> (exit code, system ids of the CSV rows, standard error)
FAMILY_SPECS = {
    "E,F,H": (0, ["E6", "E7", "E8", "F4", "H3", "H4"], ""),
    "A:2..1": (2, [], "rootmat: error: --families: bad range 'A:2..1' "
                      "(expected FAMILY:N or FAMILY:LO..HI with LO <= HI)\n"),
    ",": (2, [], "rootmat: error: --families ',' names no system\n"),
}


def _digest(lines):
    return hashlib.sha256(repr(lines).encode()).hexdigest()[:16]


def test_default_table_ids():
    assert default_table_ids() == TABLE_IDS


@pytest.mark.parametrize("sid", list(PARSED))
def test_parsed_system_matches_the_record(sid):
    s = parse_system_id(sid)
    assert (s.system_id, s.family, s.rank_param, s.rank, s.ambient_dim, _digest(s.lines),
            expected_aut_order(s)) == PARSED[sid]


@pytest.mark.parametrize("sid", list(REJECTED))
def test_rejected_id_message(sid):
    with pytest.raises(ValueError) as info:
        parse_system_id(sid)
    assert str(info.value) == REJECTED[sid]


@pytest.mark.parametrize("sid", EMPTY_COMPONENT_IDS)
def test_empty_sum_component_names_the_whole_id(sid, capsys):
    message = f"unrecognized system id: {sid!r} (empty component)"
    with pytest.raises(ValueError) as info:
        parse_system_id(sid)
    assert str(info.value) == message
    assert main(["verify", "--system", sid]) == 2
    assert capsys.readouterr().err == f"rootmat: error: {message}\n"


# a sum whose component is rejected -> (the command, the message, which names the whole id)
FAILED_COMPONENT_SUMS = {
    "A3+X9": (["verify", "--system"], "unrecognized system id: 'X9', in the sum 'A3+X9'"),
    "A3+D3": (["wreath", "--spec"], "D_n requires n >= 4 (D3 would alias A3), in the sum 'A3+D3'"),
    "B1+A2": (["crosscheck", "--system"], "B requires parameter >= 2, got 1, in the sum 'B1+A2'"),
}


@pytest.mark.parametrize("sid", list(FAILED_COMPONENT_SUMS))
def test_failed_sum_component_names_the_whole_id(sid, capsys):
    command, message = FAILED_COMPONENT_SUMS[sid]
    with pytest.raises(ValueError) as info:
        parse_system_id(sid)
    assert str(info.value) == message
    assert main(command + [sid]) == 2
    assert capsys.readouterr().err == f"rootmat: error: {message}\n"


@pytest.mark.parametrize("sid", list(SUM_MATROIDS))
def test_direct_sum_matroid_joins_its_components(sid):
    s = parse_system_id(sid)
    assert (s.matroid, expected_aut_order(s), wreath_order(s)) == SUM_MATROIDS[sid]


@pytest.mark.parametrize("spec", list(FAMILY_SPECS))
def test_families_spec_expansion(spec):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["table", "--families", spec, "--format", "csv"])
    rows = [r["system_id"] for r in csv.DictReader(io.StringIO(out.getvalue()))]
    assert (code, rows, err.getvalue()) == FAMILY_SPECS[spec]


# Two families registered by one row each: C_n (roots 2e_i and e_i +- e_j), whose
# matroid is B_n's, and G2 (e_i - e_j and 2e_i - e_j - e_k in Z^3), whose matroid is I2_6's.
C_ROW = Family(3, lambda n: n,
               lambda n: [[2 * c for c in _e(i, n)] for i in range(n)] + _d_roots(n),
               lambda n: n * n, matroid=lambda n: f"B{n}")
G2_ROW = Family(None, lambda n: 3, lambda n: [(1, -1, 0), (1, 0, -1), (0, 1, -1), (2, -1, -1),
                                              (-1, 2, -1), (-1, -1, 2)],
                lambda n: 6, rank=2, matroid=lambda n: "I2_6")


@pytest.fixture
def c_and_g2(monkeypatch):
    monkeypatch.setitem(rootsystems.FAMILIES, "C", C_ROW)
    monkeypatch.setitem(rootsystems.FAMILIES, "G2", G2_ROW)


def test_a_registered_row_is_a_family(c_and_g2):
    c4, g2 = parse_system_id("C4"), parse_system_id("G2")
    assert (c4.system_id, c4.rank, c4.num_lines, c4.matroid) == ("C4", 4, 16, "B4")
    assert (g2.system_id, g2.rank, g2.num_lines, g2.matroid) == ("G2", 2, 6, "I2_6")
    assert c4.lines == parse_system_id("B4").lines
    assert (expected_aut_order(c4), expected_aut_order(g2)) == (192, 720)
    for sid in ("C4", "G2"):
        assert verify_theorem(sid).status == PASS
    # C3 and B3 share one matroid class: 2! * 24^2
    assert wreath_order(parse_system_id("C3+B3")) == 2 * 24 ** 2
    assert verify_wreath("C3+B3").status == PASS
    assert rootsystems.parse_families("C:3..4,G") == ["C3", "C4", "G2"]


def test_a_registered_row_keeps_its_least_parameter(c_and_g2):
    with pytest.raises(ValueError, match="C requires parameter >= 3, got 2"):
        parse_system_id("C2")


def test_help_reads_the_ids_and_the_default_table_from_the_code(c_and_g2, capsys):
    described = " ".join(build_parser().format_help().split())
    for form in ["A<n> (n >= 1)", "I2_<n> (n >= 5)", "C<n> (n >= 3)", "Dprime4", "E8", "G2"]:
        assert form in described
    with pytest.raises(SystemExit):
        build_parser().parse_args(["table", "--help"])
    assert f"(default: {TABLE_FAMILIES}, the classification table)" in " ".join(
        capsys.readouterr().out.split())


@pytest.mark.parametrize("sid", ["C4", "G2"])
def test_unregistered_families_are_no_ids(sid):
    with pytest.raises(ValueError, match="unrecognized system id"):
        parse_system_id(sid)


def test_a_family_with_extra_symmetries_is_one_row(monkeypatch, capsys):
    # a copy of F4's row under a new key brings its duality map and its order along
    monkeypatch.setitem(rootsystems.FAMILIES, "F4copy", copy.copy(rootsystems.FAMILIES["F4"]))
    r = verify_theorem("F4copy")
    assert (r.status, r.aut_order, r.known_group_order) == (PASS, 1152, 1152)
    assert main(["table", "--families", "F4copy", "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [(row["system_id"], row["status"]) for row in rows] == [("F4copy", PASS)]


def test_the_row_extra_is_what_k_reads(monkeypatch, capsys):
    # without the duality map K(F4) is W(F4) on lines, half of Aut(M(F4))
    monkeypatch.setattr(rootsystems.FAMILIES["F4"], "extra", None)
    r = verify_theorem("F4")
    assert (r.status, r.detail, r.aut_order, r.known_group_order) == (
        FAIL, "order mismatch", 1152, 576)
    assert main(["verify", "--system", "F4"]) == 1
    assert "known=576 " in capsys.readouterr().out


def test_a_row_with_no_order_fails_in_one_line(monkeypatch, capsys):
    # a system of rank >= 3 that is its own class needs its row's order
    monkeypatch.setattr(rootsystems.FAMILIES["H3"], "order", None)
    with pytest.raises(ValueError, match="no closed-form order for H3"):
        expected_aut_order(parse_system_id("H3"))
    assert main(["verify", "--system", "H3"]) == 2
    assert capsys.readouterr() == ("", "rootmat: error: no closed-form order for H3\n")
