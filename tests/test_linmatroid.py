import itertools
import random
from math import comb

import pytest

from classical_shapes import classical_circuits
from pairwise_circuits import pairwise_circuits
from reference_field import field_vectors
from rootmat.errors import BudgetExceededError
from rootmat.linmatroid import (
    LinearMatroid,
    all_circuits_upto,
    circuits3,
    matroid_of,
    rank,
)
from rootmat.rootsystems import build, known_group_generators, line_key, parse_system_id
from rootmat.verify import _by_mask, _preserves_family, default_table_ids


def is_independent(m, subset):
    subset = list(subset)
    return rank(m, subset) == len(subset)


def is_circuit(m, subset):
    """Reference circuit test: rank k - 1, and every k - 1 of the k elements independent."""
    subset = sorted(subset)
    k = len(subset)
    if k == 0 or rank(m, subset) != k - 1:
        return False
    return all(
        rank(m, subset[:i] + subset[i + 1:]) == k - 1 for i in range(k)
    )


def circuits3_bruteforce(m):
    """Reference for circuits3: plain scan over all triples."""
    return [
        t for t in itertools.combinations(range(m.ground_size), 3)
        if is_circuit(m, t)
    ]


def _line_index(system, coords):
    return system.line_index[line_key(tuple(coords) + (0,) * len(coords))]


def test_rank_empty():
    m = matroid_of(build("A", 3))
    assert rank(m, []) == 0


def test_rank_full_a3():
    m = matroid_of(build("A", 3))
    assert rank(m, range(6)) == 3


def test_rank_triangle_a3():
    s = build("A", 3)
    m = matroid_of(s)
    tri = [_line_index(s, (1, -1, 0, 0)),
           _line_index(s, (0, 1, -1, 0)),
           _line_index(s, (1, 0, -1, 0))]
    assert rank(m, tri) == 2
    assert is_circuit(m, tri)


def _reference_rank(vectors):
    """Plain Gaussian elimination over the vectors' own field (Fraction or QuadExt)."""
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# every subset of size <= rank + 1, and of size <= 5 for H3 (rank 3)
@pytest.mark.parametrize("sid,max_size", [("H3", 5), ("A4", 5), ("B3", 4), ("D4", 5)])
def test_rank_matches_reference_elimination(sid, max_size):
    s = parse_system_id(sid)
    m = matroid_of(s)
    vectors = field_vectors(s.lines)
    for k in range(max_size + 1):
        for subset in itertools.combinations(range(s.num_lines), k):
            want = _reference_rank([vectors[i] for i in subset])
            assert rank(m, subset) == want, subset


def test_rank_i2_7_is_uniform():
    m = matroid_of(build("I2", 7))
    for k in range(8):
        for subset in itertools.combinations(range(7), k):
            assert rank(m, subset) == min(k, 2), subset


def test_rank_out_of_range():
    m = matroid_of(build("A", 2))
    with pytest.raises(IndexError):
        rank(m, [99])


def test_b2_circuits():
    s = build("B", 2)
    m = matroid_of(s)
    e1 = _line_index(s, (1, 0))
    e2 = _line_index(s, (0, 1))
    plus = _line_index(s, (1, 1))
    assert is_circuit(m, [e1, e2, plus])
    assert is_independent(m, [e1, e2]) and not is_circuit(m, [e1, e2])
    assert circuits3(s.lines) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def test_a4_four_cycle_is_a_circuit():
    s = build("A", 4)
    m = matroid_of(s)
    cyc = [_line_index(s, (1, -1, 0, 0, 0)),
           _line_index(s, (0, 1, -1, 0, 0)),
           _line_index(s, (0, 0, 1, -1, 0)),
           _line_index(s, (1, 0, 0, -1, 0))]
    assert is_circuit(m, cyc)
    assert not is_circuit(m, cyc[:3])


# the sums put padded lines in the plane keys, Q(sqrt 5) ones in H3+B2
@pytest.mark.parametrize("sid", ["A3", "A4", "B2", "B3", "D4", "F4", "H3", "H4", "I2_7",
                                 "E6", "Dprime4", "I2_12", "A2+I2_5", "H3+B2"])
def test_circuits3_matches_bruteforce(sid):
    s = parse_system_id(sid)
    assert circuits3(s.lines) == circuits3_bruteforce(matroid_of(s))


@pytest.mark.parametrize("vectors", [
    # a parallel pair: {0, 1} is a 2-circuit
    ([(1, 0, 0, 0), (2, 0, 0, 0), (0, 1, 0, 0)], "lines 0 and 1 are parallel"),
    # e1 + sqrt5 e2 and sqrt5 times it
    ([(1, 0, 0, 1), (0, 1, 0, 0), (0, 5, 1, 0)], "lines 0 and 2 are parallel"),
    # a zero vector is a loop
    ([(1, 0, 0, 0), (0, 0, 0, 0), (0, 1, 0, 0)], "zero vector spans no line"),
])
def test_circuits3_rejects_parallel_and_zero(vectors):
    lines, message = vectors
    with pytest.raises(ValueError, match=message):
        circuits3(lines)


def test_circuits3_counts():
    for n in range(2, 7):
        assert len(circuits3(build("A", n).lines)) == comb(n + 1, 3)
    for n in range(4, 7):
        assert len(circuits3(build("D", n).lines)) == 4 * comb(n, 3)
    # marked triples contribute 4 per pair: {e_i, e_j, e_i +- e_j} and
    # {e_i or e_j, e_i+e_j, e_i-e_j}
    for n in range(2, 7):
        expected = 4 * comb(n, 3) + 4 * comb(n, 2)
        assert len(circuits3(build("B", n).lines)) == expected


def test_circuits3_uniform():
    for m_param in (5, 8):
        s = build("I2", m_param)
        m = matroid_of(s)
        assert len(circuits3(s.lines)) == comb(m_param, 3)
        assert rank(m, range(m_param)) == 2


def test_all_circuits_a3():
    m = matroid_of(build("A", 3))
    circuits = all_circuits_upto(m, 4)
    assert len(circuits) == 7
    assert sum(1 for c in circuits if len(c) == 3) == 4
    assert sum(1 for c in circuits if len(c) == 4) == 3


def test_all_circuits_b2_caps_at_rank_plus_one():
    s = build("B", 2)
    assert all_circuits_upto(matroid_of(s), 3) == circuits3(s.lines)


def test_all_circuits_budget_error():
    m = matroid_of(build("B", 4))
    with pytest.raises(BudgetExceededError):
        all_circuits_upto(m, 5, node_budget=10)


def test_every_enumerated_set_is_a_circuit():
    m = matroid_of(build("D", 4))
    for c in all_circuits_upto(m, 5):
        assert is_circuit(m, c)


# every subset of size <= rank + 1 through the reference is_circuit, in
# lexicographic order; H3 exercises the Q(sqrt 5) coefficient pairs
@pytest.mark.parametrize("sid", ["A4", "B3", "D4", "H3", "I2_6", "A1+A2+B3"])
def test_all_circuits_match_bruteforce(sid):
    s = parse_system_id(sid)
    m = matroid_of(s)
    want = [
        c
        for k in range(1, s.rank + 2)
        for c in itertools.combinations(range(m.ground_size), k)
        if is_circuit(m, c)
    ]
    assert all_circuits_upto(m, s.rank + 1) == sorted(want)


def test_all_circuits_sqrt5_coefficient():
    # e1 + sqrt(5) e2 - (e1 + sqrt(5) e2) = 0: the coefficient of e2 is
    # sqrt(5), whose rational part is 0; as (a | b), e1 + sqrt(5) e2 is (1, 0 | 0, 1)
    m = LinearMatroid.from_vectors([(1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 1)])
    assert all_circuits_upto(m, 3) == [(0, 1, 2)]


def test_all_circuits_match_bruteforce_random_sqrt5():
    # includes parallel pairs and circuits of every order up to 4; the
    # entries 0, 0, 1, -1, sqrt5, -sqrt5, phi, 2 phi - 3, all doubled (one
    # scale for every vector keeps the matroid), as (a, b) pairs of a + b*sqrt(5)
    rng = random.Random(5)
    entries = [(0, 0), (0, 0), (2, 0), (-2, 0), (0, 2), (0, -2), (1, 1), (-4, 2)]
    for _ in range(20):
        vectors = [[rng.choice(entries) for _ in range(3)] for _ in range(8)]
        vectors = [tuple(a for a, _ in v) + tuple(b for _, b in v) for v in vectors]
        vectors = [v for v in vectors if any(v)]
        m = LinearMatroid.from_vectors(vectors)
        want = [
            c
            for k in range(1, 5)
            for c in itertools.combinations(range(m.ground_size), k)
            if is_circuit(m, c)
        ]
        assert all_circuits_upto(m, 4) == sorted(want), vectors
        assert pairwise_circuits(m, 4) == sorted(want), vectors


def _reference_circuits(vectors, kmax):
    """Circuits of order <= kmax by plain field elimination, sharing no rootmat code."""
    def dependent(subset):
        return _reference_rank([vectors[i] for i in subset]) < len(subset)

    return [c for k in range(1, kmax + 1)
            for c in itertools.combinations(range(len(vectors)), k)
            if dependent(c) and not any(dependent(c[:i] + c[i + 1:]) for i in range(k))]


def _random_vectors(rng, dim, irrational):
    """Eight integer vectors (a | b): five with entries a + b*sqrt(5), a in
    -3..3 and b in -2..2 (b = 0 over Q), and three combinations of two of
    them with such coefficients, for circuits of every small order."""
    def entry():
        return rng.randint(-3, 3), rng.randint(-2, 2) if irrational else 0

    vecs = [[entry() for _ in range(dim)] for _ in range(5)]
    for _ in range(3):
        u, w = rng.sample(vecs, 2)
        (s, s5), (t, t5) = entry(), entry()
        vecs.append([(s * a + 5 * s5 * b + t * c + 5 * t5 * d, s * b + s5 * a + t * d + t5 * c)
                     for (a, b), (c, d) in zip(u, w)])
    rng.shuffle(vecs)
    return [tuple(a for a, _ in v) + tuple(b for _, b in v) for v in vecs]


# entries beyond +-1 give fraction-free pivots other than +-1; loops,
# parallel pairs and circuits of orders 3 to 5 all occur, and kmax runs
# past rank + 1
@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("irrational", [False, True], ids=["Q", "Q(sqrt5)"])
def test_all_circuits_match_reference_field_elimination(seed, irrational):
    rng = random.Random(seed)
    vectors = _random_vectors(rng, rng.choice([3, 4]), irrational)
    m = LinearMatroid.from_vectors(vectors)
    assert m.degree == (2 if irrational else 1)
    exact = field_vectors(vectors)
    full_rank = _reference_rank(exact)
    want = _reference_circuits(exact, full_rank + 2)
    for kmax in range(1, full_rank + 3):
        assert all_circuits_upto(m, kmax) == [c for c in sorted(want) if len(c) <= kmax], kmax
        assert pairwise_circuits(m, kmax) == all_circuits_upto(m, kmax), kmax


def _embedded_vectors(rng, dim, rank, irrational):
    """`_random_vectors` in rank coordinates, mapped into dim coordinates by a
    random integer (Z[sqrt 5] if irrational) matrix of rank rank."""
    vecs = _random_vectors(rng, rank, irrational)
    while True:
        embed = [[(rng.randint(-2, 2), rng.randint(-1, 1) if irrational else 0) for _ in range(dim)]
                 for _ in range(rank)]
        if _reference_rank(field_vectors([tuple(a for a, _ in r) + tuple(b for _, b in r)
                                          for r in embed])) == rank:
            break
    out = []
    for v in vecs:
        x = list(zip(v[:rank], v[rank:]))  # the entries a + b*sqrt(5) as (a, b)
        image = [(sum(a * c + 5 * b * d for (a, b), (c, d) in zip(x, col)),
                  sum(a * d + b * c for (a, b), (c, d) in zip(x, col))) for col in zip(*embed)]
        out.append(tuple(a for a, _ in image) + tuple(b for _, b in image))
    return out


# a rank-3 or rank-4 span in 5 or 6 coordinates, as E6 and E7 sit in 8: redundant
# columns, planes keyed on more than three coordinates, and kmax below the rank
@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("irrational", [False, True], ids=["Q", "Q(sqrt5)"])
def test_all_circuits_in_more_coordinates_than_rank(seed, irrational):
    rng = random.Random(100 + seed)
    vectors = _embedded_vectors(rng, rng.choice([5, 6]), rng.choice([3, 4]), irrational)
    m = LinearMatroid.from_vectors(vectors)
    assert m.degree == (2 if irrational else 1)
    exact = field_vectors(vectors)
    full_rank = _reference_rank(exact)
    assert full_rank < len(vectors[0]) // 2
    want = _reference_circuits(exact, full_rank + 2)
    for kmax in range(1, full_rank + 3):
        assert all_circuits_upto(m, kmax) == [c for c in sorted(want) if len(c) <= kmax], kmax
        assert pairwise_circuits(m, kmax) == all_circuits_upto(m, kmax), kmax


@pytest.mark.parametrize("irrational", [False, True], ids=["Q", "Q(sqrt5)"])
def test_circuits_up_to_the_rank_give_the_group_of_all_circuits(irrational):
    # exhaustively over every permutation of 5-6 random vectors: a permutation
    # preserves the circuits of order <= rank exactly when it preserves them all,
    # the fact that lets crosscheck stop below the spanning (rank + 1)-circuits
    rng = random.Random(24)
    spanning = automorphisms = 0
    for _ in range(30):
        vectors = rng.sample(_random_vectors(rng, rng.choice([3, 4]), irrational), rng.choice([5, 6]))
        m = LinearMatroid.from_vectors(vectors)
        r = rank(m, range(m.ground_size))
        every = _by_mask(all_circuits_upto(m, m.ground_size))
        low = {mask: c for mask, c in every.items() if len(c) <= r}
        spanning += len(every) > len(low)
        for perm in itertools.permutations(range(m.ground_size)):
            assert _preserves_family(perm, low) == _preserves_family(perm, every), (vectors, perm)
            automorphisms += _preserves_family(perm, every)
    # the check is not vacuous: spanning circuits occur, and some non-identity permutations pass
    assert spanning > 0
    assert automorphisms > 30


@pytest.mark.parametrize("sid,kmax,count", [("B5", 6, 9302), ("F4", 5, 10400),
                                            ("D5", 6, 2182), ("H3", 4, 685)])
def test_all_circuits_counts_are_pinned(sid, kmax, count):
    assert len(all_circuits_upto(matroid_of(parse_system_id(sid)), kmax)) == count


def test_all_circuits_budget_boundary_is_pinned():
    m = matroid_of(build("B", 4))
    assert len(all_circuits_upto(m, 5, node_budget=4904)) > 0
    with pytest.raises(BudgetExceededError):
        all_circuits_upto(m, 5, node_budget=4903)


def _outcome(enumerate_circuits, m, kmax, node_budget):
    try:
        return enumerate_circuits(m, kmax, node_budget)
    except BudgetExceededError:
        return "BUDGET_EXCEEDED"


# the last level keys each candidate by the span it adds to S: a line over Q, a
# plane of Pluecker coordinates over Q(sqrt 5); at order rank + 1 there is one bucket
@pytest.mark.parametrize("sid", default_table_ids() + ["Dprime4"])
def test_span_buckets_match_pairwise_on_the_table(sid):
    s = parse_system_id(sid)
    m = matroid_of(s)
    for kmax in range(1, s.rank + 2):
        want = _outcome(pairwise_circuits, m, kmax, 50_000)
        assert _outcome(all_circuits_upto, m, kmax, 50_000) == want, kmax
        if want == "BUDGET_EXCEEDED":
            break


def test_span_buckets_match_pairwise_on_h4_up_to_order_4():
    # past the table test's budget; H3, the other Q(sqrt 5) system, is covered there
    m = matroid_of(build("H4"))
    for kmax in range(1, 5):
        assert all_circuits_upto(m, kmax) == pairwise_circuits(m, kmax), kmax


# the smallest passing budget of each case, pinned (B4/5's is also pinned by
# itself above); D5/5 and A5/5 are crosscheck's two heaviest enumerations
_BUDGETS = [("B4", 5, 4_904), ("B4", 4, 2_358), ("D4", 4, 761), ("A4", 3, 175), ("H3", 3, 575),
            ("H3", 4, 1_731), ("I2_6", 2, 21), ("D5", 5, 18_869), ("A5", 5, 4_223)]


@pytest.mark.parametrize("sid,kmax,budget", _BUDGETS, ids=[f"{s}-{k}" for s, k, _ in _BUDGETS])
def test_span_buckets_exceed_the_same_budgets(sid, kmax, budget):
    # the last two levels still count every node they no longer enter, so the
    # smallest budget that passes is the pairwise enumeration's
    m = matroid_of(parse_system_id(sid))
    low, high = 0, 1
    while _outcome(pairwise_circuits, m, kmax, high) == "BUDGET_EXCEEDED":
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        if _outcome(pairwise_circuits, m, kmax, mid) == "BUDGET_EXCEEDED":
            low = mid
        else:
            high = mid
    assert high == budget
    assert all_circuits_upto(m, kmax, node_budget=high) == pairwise_circuits(m, kmax)
    with pytest.raises(BudgetExceededError):
        all_circuits_upto(m, kmax, node_budget=high - 1)


@pytest.mark.parametrize("sid", ["A3", "H3"])
def test_all_circuits_order_beyond_rank_plus_one(sid):
    s = parse_system_id(sid)
    m = matroid_of(s)
    assert all_circuits_upto(m, 10_000) == all_circuits_upto(m, s.rank + 1)


@pytest.mark.parametrize("sid", ["A3", "B3", "H3", "I2_5"])
def test_all_circuits_below_order_three_is_empty(sid):
    m = matroid_of(parse_system_id(sid))
    for kmax in (-2, 0, 1, 2):
        assert all_circuits_upto(m, kmax) == []


@pytest.mark.parametrize("family,n", [("A", 2), ("A", 3), ("A", 4),
                                      ("B", 2), ("B", 3), ("B", 4),
                                      ("D", 4)])
def test_classical_shapes_match_bruteforce(family, n):
    s = build(family, n)
    m = matroid_of(s)
    kmax = n + 1
    assert set(classical_circuits(s, kmax)) == set(all_circuits_upto(m, kmax))


def test_classical_budget_error_names_the_budget():
    with pytest.raises(BudgetExceededError, match="node budget of 10 exceeded") as info:
        classical_circuits(build("B", 4), 5, node_budget=10)
    assert info.value.budget == 10


def test_classical_rejects_other_families():
    with pytest.raises(ValueError):
        classical_circuits(build("F4"), 5)


def _independence_table(m, max_size):
    table = {}
    for k in range(max_size + 1):
        for s in itertools.combinations(range(m.ground_size), k):
            table[frozenset(s)] = rank(m, s) == k
    return table


@pytest.mark.parametrize("sid", ["A3", "B3", "D4"])
def test_matroid_axioms_exhaustive(sid):
    m = matroid_of(parse_system_id(sid))
    max_size = 5
    indep = _independence_table(m, max_size)
    sets = [s for s, ok in indep.items() if ok]
    assert frozenset() in sets
    # hereditary
    for s in sets:
        for x in s:
            assert indep[s - {x}]
    # augmentation
    for a in sets:
        for b in sets:
            if len(a) > len(b):
                assert any(indep[b | {x}] for x in a - b), (sorted(a), sorted(b))


def test_representative_flip_invariance_exhaustive():
    for sid in ["A3", "B2"]:
        s = parse_system_id(sid)
        m = matroid_of(s)
        for i in range(s.num_lines):
            flipped_vectors = list(s.lines)
            flipped_vectors[i] = tuple(-c for c in flipped_vectors[i])
            fm = LinearMatroid.from_vectors(flipped_vectors)
            for k in range(s.num_lines + 1):
                for subset in itertools.combinations(range(s.num_lines), k):
                    assert rank(m, subset) == rank(fm, subset)


def test_representative_flip_invariance_randomized():
    rng = random.Random(42)
    s = build("D", 4)
    m = matroid_of(s)
    flipped_vectors = [
        tuple(-c for c in v) if rng.random() < 0.5 else v for v in s.lines
    ]
    fm = LinearMatroid.from_vectors(flipped_vectors)
    for _ in range(300):
        subset = rng.sample(range(s.num_lines), rng.randint(0, 6))
        assert rank(m, subset) == rank(fm, subset)


def test_circuits3_closed_under_known_group():
    for sid in ["A3", "B3", "D4", "F4", "H3"]:
        s = parse_system_id(sid)
        c3 = {frozenset(c) for c in circuits3(s.lines)}
        for g in known_group_generators(s):
            assert {frozenset(g[i] for i in c) for c in c3} == c3


# every table id, some beyond the table, and sums with several orbits
ORBIT_IDS = [sid for sid in default_table_ids() if parse_system_id(sid).rank >= 3]
ORBIT_IDS += ["B9", "D10", "Dprime4", "A3+A3", "H3+A1", "D4+Dprime4", "E6+A1"]
ORBIT_IDS += [sid for sid in default_table_ids() if parse_system_id(sid).rank <= 2]
ORBIT_IDS += ["B16", "D16", "A20"]


@pytest.mark.parametrize("sid", ORBIT_IDS)
def test_circuits3_from_known_orbits_is_circuits3(sid):
    # one bucket pass per orbit, its pairs carried down the orbit by the BFS, for
    # K(R) and for the subgroup of every other generator (more orbits); the sums
    # have product generators and several orbits
    s = parse_system_id(sid)
    gens, expected = known_group_generators(s), circuits3(s.lines)
    assert circuits3(s.lines, gens) == expected
    assert circuits3(s.lines, gens[::2]) == expected


def test_circuits3_from_a_subgroup_is_circuits3():
    # each prefix of E7's generators generates a subgroup, with more orbits
    s = build("E7")
    gens, expected = known_group_generators(s), circuits3(s.lines)
    for k in range(1, len(gens) + 1):
        assert circuits3(s.lines, gens[:k]) == expected


def test_circuits3_from_orbits_rejects_a_parallel_pair():
    # line 1 is in line 0's orbit, so only line 0's pass sees it
    lines = [(1, 0, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)]
    with pytest.raises(ValueError, match="lines 0 and 1 are parallel"):
        circuits3(lines, [(1, 0, 2)])


def test_quadext_rank_path():
    s = build("H3")
    m = matroid_of(s)
    assert rank(m, range(s.num_lines)) == 3
    assert len(circuits3(s.lines)) == len(circuits3_bruteforce(m))
