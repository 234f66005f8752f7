"""Acceptance gate: one test per deliverable criterion.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion.  Every check here is end-to-end: corpora are enumerated and
cross-checked against independent brute force, colorings and certificates
are re-validated from scratch, and charge arithmetic is exact rationals.
"""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import factorial

import pytest

import oracles
from conftest import random_graph
from strongedge import Graph, enumerate_connected
from strongedge import patterns as patterns_module
from strongedge.classes import THEOREMS, Scheme, classify, scheme_target
from strongedge.coloring import (
    PartialColoring,
    SetFamily,
    chi_s_exact,
    hall_sdr,
    is_valid_strong_coloring,
    k_colorable,
)
from strongedge.discharge import apply_rules, builtin_ruleset, initial_charges
from strongedge.graph import build_conflict_graph
from strongedge.metrics import mad_bruteforce, mad_exact, ore_degree
from strongedge.patterns import catalog, find_configurations, verify_reducibility
from strongedge.verify import verify_theorem

EXPECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


@pytest.fixture(scope="module")
def report1(corpus7):
    return verify_theorem(1, corpus7, descriptor="connected graphs n<=7")


@pytest.fixture(scope="module")
def report2(corpus7):
    return verify_theorem(2, corpus7, descriptor="connected graphs n<=7")


# ---------------------------------------------------------------- corpus
# Independent oracles for the enumerated corpus: count labeled connected
# graphs directly over all 2^C(n,2) edge subsets, and compare against the
# orbit sizes n!/|Aut| of the enumerated representatives.


def _labeled_connected_count(n):
    pairs = list(combinations(range(n), 2))
    total = 0
    for bits in range(1 << len(pairs)):
        adj = [0] * n
        for i, (u, v) in enumerate(pairs):
            if bits >> i & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        seen = 1
        stack = [0]
        while stack:
            u = stack.pop()
            rest = adj[u] & ~seen
            while rest:
                low = rest & -rest
                seen |= low
                stack.append(low.bit_length() - 1)
                rest &= ~low
        total += seen == (1 << n) - 1
    return total


def _automorphism_count(g):
    base = {frozenset(e) for e in g.edges}
    count = 0
    for p in permutations(range(g.n)):
        if all(frozenset((p[u], p[v])) in base for u, v in g.edges):
            count += 1
    return count


def test_criterion_01_theorem1_full_small_corpus(corpus7, report1):
    by_n = Counter(g.n for g in corpus7)
    assert dict(by_n) == EXPECTED_COUNTS
    for n in range(2, 7):
        reps = [g for g in corpus7 if g.n == n]
        orbit_total = sum(factorial(n) // _automorphism_count(g) for g in reps)
        assert orbit_total == _labeled_connected_count(n)

    s = report1.summary
    assert report1.bound == 13 and report1.target == Fraction(34, 11)
    assert s["corpus_size"] == 996 and s["rejected_disconnected"] == 0
    assert s["admitted"] + s["filtered"] == s["corpus_size"]
    assert s["failures"] == 0 and s["timeouts"] == 0
    assert s["passes"] == s["admitted"] > 0
    for rec in report1.records:
        assert rec.theta <= 7 and rec.mad < Fraction(34, 11)
        assert rec.passed and rec.chi_s <= 13
    assert report1.wall_ms < 600_000


def test_criterion_02_theorem2_full_small_corpus(report2):
    s = report2.summary
    assert report2.bound == 20 and report2.target == Fraction(113, 31)
    assert s["corpus_size"] == 996 and s["rejected_disconnected"] == 0
    assert s["admitted"] + s["filtered"] == s["corpus_size"]
    assert s["failures"] == 0 and s["timeouts"] == 0
    assert s["passes"] == s["admitted"] > 0
    for rec in report2.records:
        assert rec.theta <= 8 and rec.mad < Fraction(113, 31)
        assert rec.passed and rec.chi_s <= 20
    assert report2.wall_ms < 600_000


def test_criterion_03_every_admitted_graph_has_a_configuration(
    report1, report2
):
    for report in (report1, report2):
        assert report.records
        for rec in report.records:
            assert not rec.timeout
            assert len(rec.configurations_found) >= 1, rec.graph6


# ------------------------------------------------------ charge identities


def test_criterion_04_final_charge_identities():
    F = Fraction
    a7 = {r.id: r.amount for r in builtin_ruleset(Scheme.THETA7)}
    t7 = scheme_target(Scheme.THETA7)
    rows7 = [
        ("2-vertex, both 4-neighbors give",
         F(2) - t7 + 2 * a7["T7.R1a"], F(0)),
        ("4-vertex, one 2-receiver and three 3-receivers",
         F(4) - t7 - a7["T7.R1a"] - 3 * a7["T7.R1b"], F(0)),
        ("4-vertex, four 3-receivers",
         F(4) - t7 - 4 * a7["T7.R1b"], F(14, 33)),
        ("three-4-neighbor vertex, three donors",
         F(3) - t7 + 3 * a7["T7.R1b"], F(3, 11)),
        ("two-4-neighbor vertex, two donors minus its own gift",
         F(3) - t7 + 2 * a7["T7.R1b"] - a7["T7.R2"], F(7, 66)),
        ("strong one-4-neighbor vertex, backed by a two-4-neighbor one",
         F(3) - t7 + a7["T7.R1b"] + a7["T7.R2"] - a7["T7.R3"], F(5, 132)),
        ("moderate one-4-neighbor vertex",
         F(3) - t7 + a7["T7.R1b"] - a7["T7.R4"], F(0)),
        ("weak one-4-neighbor vertex, paying both supports",
         F(3) - t7 + a7["T7.R1b"] - 2 * a7["T7.R5"], F(0)),
        ("no-4-neighbor vertex with two two-4-neighbor gifts",
         F(3) - t7 + 2 * a7["T7.R2"], F(0)),
        ("no-4-neighbor vertex: one 3B, one weak, one moderate gift",
         F(3) - t7 + a7["T7.R2"] + a7["T7.R5"] + a7["T7.R4"], F(0)),
        ("no-4-neighbor vertex: one weak and two strong gifts",
         F(3) - t7 + a7["T7.R5"] + 2 * a7["T7.R3"], F(0)),
        ("no-4-neighbor vertex: three moderate gifts",
         F(3) - t7 + 3 * a7["T7.R4"], F(0)),
    ]
    for label, value, want in rows7:
        assert value == want, f"theta7: {label}: {value} != {want}"
    assert a7["T7.R2"] > a7["T7.R3"] > a7["T7.R4"] > a7["T7.R5"] > 0

    a8 = {r.id: r.amount for r in builtin_ruleset(Scheme.THETA8)}
    t8 = scheme_target(Scheme.THETA8)
    # two coincidences the identities below rely on
    assert a8["T8.R4b"] == a8["T8.R6"]
    assert a8["T8.R3a"] == a8["T8.R1b"]
    rows8 = [
        ("5-vertex, one weak-B receiver and four plain receivers",
         F(5) - t8 - a8["T8.R1a"] - 4 * a8["T8.R1b"], F(0)),
        ("5-vertex, five plain receivers",
         F(5) - t8 - 5 * a8["T8.R1b"], F(2, 31)),
        ("4A-vertex, four gifts out",
         F(4) - t8 - 4 * a8["T8.R2"], F(0)),
        ("4B-vertex, one 3-receiver and three 4-receivers",
         F(4) - t8 - a8["T8.R3a"] - 3 * a8["T8.R3b"], F(0)),
        ("strong 4C-vertex, both gifts out",
         F(4) - t8 - a8["T8.R4a"] - a8["T8.R4b"], F(0)),
        ("weak 4C-vertex, two gifts out and one 4B gift in",
         F(4) - t8 - 2 * a8["T8.R5"] + a8["T8.R3b"], F(0)),
        ("4D-vertex, three gifts out and one 4B gift in",
         F(4) - t8 - 3 * a8["T8.R6"] + a8["T8.R3b"], F(0)),
        ("three-5-neighbor vertex, three donors",
         F(3) - t8 + 3 * a8["T8.R1b"], F(4, 31)),
        ("strong two-5-neighbor vertex, two 5-donors and its 4-donor",
         F(3) - t8 + 2 * a8["T8.R1b"] + a8["T8.R4b"], F(0)),
        ("weak two-5-neighbor vertex, two boosted 5-donors",
         F(3) - t8 + 2 * a8["T8.R1a"], F(0)),
        ("one-5-neighbor vertex, one 5-donor and two weak-4C donors",
         F(3) - t8 + a8["T8.R1b"] + 2 * a8["T8.R5"], F(0)),
        ("no-5-neighbor vertex, three 4B donors",
         F(3) - t8 + 3 * a8["T8.R3a"], F(4, 31)),
    ]
    for label, value, want in rows8:
        assert value == want, f"theta8: {label}: {value} != {want}"
    assert all(v > 0 for v in a8.values())


def test_criterion_05_charge_conservation_fuzz():
    rng = random.Random(11711)
    for scheme in (Scheme.THETA7, Scheme.THETA8):
        rules = builtin_ruleset(scheme)
        target = scheme_target(scheme)
        for _ in range(1000):
            n = rng.randint(1, 11)
            g = random_graph(rng, n, rng.choice((0.15, 0.3, 0.5)))
            labels = classify(g, scheme).labels
            ledger = apply_rules(g, labels, rules, initial_charges(g, target))
            total = Fraction(2 * g.m) - g.n * target
            assert sum(ledger.initial.values()) == total
            assert sum(ledger.final.values()) == total


# ------------------------------------------------------------ density


def _assert_mad_match(g):
    value, witness = mad_exact(g)
    brute_value, _ = mad_bruteforce(g)
    assert value == brute_value
    inside = sum(1 for u, v in g.edges if u in set(witness) and v in set(witness))
    assert Fraction(2 * inside, len(witness)) == value


def test_criterion_06_mad_exact_vs_bruteforce(corpus8):
    for g in corpus8:
        if g.n >= 2:
            _assert_mad_match(g)
    rng = random.Random(31137)
    done = 0
    while done < 200:
        g = random_graph(rng, rng.randint(2, 12), rng.choice((0.2, 0.35, 0.5)))
        if g.m == 0:
            continue
        _assert_mad_match(g)
        done += 1


def test_criterion_07_bipartite_benchmarks():
    k34 = Graph(*oracles.complete_bipartite(3, 4))
    value, witness = mad_exact(k34)
    assert value == Fraction(24, 7)
    assert ore_degree(k34) == 7
    assert witness == tuple(range(7))

    k44 = Graph(*oracles.complete_bipartite(4, 4))
    value, witness = mad_exact(k44)
    assert value == Fraction(4)
    assert ore_degree(k44) == 8
    inside = sum(1 for u, v in k44.edges if u in set(witness) and v in set(witness))
    assert Fraction(2 * inside, len(witness)) == value


# ------------------------------------------------------------- coloring


def test_criterion_08_chi_exact_vs_oracle_small():
    # All graphs with at most 8 edges and no isolated vertices, one per
    # isomorphism class: disjoint unions of connected pieces, each piece a
    # canonical representative, multisets taken in nondecreasing pool order.
    pool = [
        g for n in range(2, 10) for g in enumerate_connected(n, max_edges=8)
    ]
    combos = []

    def extend(start, budget, acc):
        for i in range(start, len(pool)):
            if pool[i].m > budget:
                continue
            acc.append(i)
            combos.append(tuple(acc))
            extend(i, budget - pool[i].m, acc)
            acc.pop()

    extend(0, 8, [])
    per_m = Counter(sum(pool[i].m for i in c) for c in combos)
    assert [per_m[m] for m in range(1, 9)] == [1, 2, 5, 11, 26, 68, 177, 497]

    for combo in combos:
        edges, offset = [], 0
        for i in combo:
            edges += [(u + offset, v + offset) for u, v in pool[i].edges]
            offset += pool[i].n
        g = Graph(offset, edges)
        want = oracles.strong_chromatic_index(g.n, g.edges)
        got = chi_s_exact(build_conflict_graph(g))
        assert got.status == "OK" and got.value == want

    # fixed landmark values, each established by the oracle right here
    landmarks = [(oracles.cycle(5), 5), (oracles.cycle(6), 3)]
    landmarks += [(oracles.star(k), k) for k in range(1, 7)]
    landmarks += [(oracles.complete_bipartite(3, 3), 9), ((1, []), 0)]
    for (n, edges), want in landmarks:
        assert oracles.strong_chromatic_index(n, edges) == want
        got = chi_s_exact(build_conflict_graph(Graph(n, edges)))
        assert got.status == "OK" and got.value == want


def _check_sdr(universe, sets):
    fam = SetFamily.of(universe, sets)
    res = hall_sdr(fam)
    assert res.ok == oracles.has_sdr([sorted(s) for s in fam.sets])
    if res.ok:
        assert len(set(res.reps)) == len(fam.sets)
        for s, rep in zip(fam.sets, res.reps):
            assert rep in s
    else:
        union = set().union(*(fam.sets[i] for i in res.violator))
        assert len(union) == res.union_size < len(res.violator)


def test_criterion_09_sdr_certification():
    # exhaustive: every family of <= 6 subsets of a <= 4 element universe
    # (multisets in a fixed order; this covers every family up to symmetry
    # and far beyond)
    checked = 0
    for u in range(1, 5):
        subsets = [
            frozenset(c)
            for r in range(u + 1)
            for c in combinations(range(1, u + 1), r)
        ]
        for k in range(0, 7):
            for sets in combinations_with_replacement(subsets, k):
                _check_sdr(u, sets)
                checked += 1
    assert checked == 77854

    # structured boundary families on the larger universes
    for u in (5, 6):
        full = set(range(1, u + 1))
        _check_sdr(u, [full] * 6)
        _check_sdr(u, [{i} for i in range(1, u + 1)][:6])
        _check_sdr(u, [{1, 2}] * 3)
        _check_sdr(u, [{i, i % u + 1} for i in range(1, u + 1)][:6])
        _check_sdr(u, [set(), {1}])
        _check_sdr(u, [set(range(1, j + 1)) for j in range(1, u + 1)][:6])

    # seeded random families on universes 5 and 6
    rng = random.Random(997)
    for _ in range(4000):
        u = rng.choice((5, 6))
        k = rng.randint(1, 6)
        bias = rng.choice((0.15, 0.3, 0.6))
        sets = [
            frozenset(x for x in range(1, u + 1) if rng.random() < bias)
            for _ in range(k)
        ]
        _check_sdr(u, sets)


# ------------------------------------------------------- reducibility


def _leafy(edges, nxt, v, count):
    """Attach count fresh leaves to v; returns (edges, next free id)."""
    for _ in range(count):
        edges.append((v, nxt))
        nxt += 1
    return edges, nxt


def _disjoint_union(*parts):
    edges, offset = [], 0
    for n, part in parts:
        edges += [(u + offset, v + offset) for u, v in part]
        offset += n
    return Graph(offset, edges)


def _host_path4():
    return Graph(*oracles.path(4))


def _host_c5():
    return Graph(*oracles.cycle(5))


def _host_petersen():
    return Graph(*oracles.petersen())


def _host_bowtie():
    return Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


def _host_k3():
    return Graph(*oracles.complete(3))


def _host_cube():
    return Graph(8, [
        (0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3), (2, 6),
        (3, 7), (4, 5), (4, 6), (5, 7), (6, 7),
    ])


def _host_two_weak():
    # Petersen with edges (0,1) and (0,4) rerouted through two new
    # one-4-neighbor vertices 10 and 11; each holds onto a leafy 4-vertex,
    # so 10 and 11 are weak and vertex 0 keeps three 3-neighbors.
    _, petersen = oracles.petersen()
    drop = {frozenset((0, 1)), frozenset((0, 4))}
    edges = [e for e in petersen if frozenset(e) not in drop]
    edges += [(10, 0), (10, 1), (10, 12), (11, 0), (11, 4), (11, 13)]
    nxt = 14
    edges, nxt = _leafy(edges, nxt, 12, 3)
    edges, nxt = _leafy(edges, nxt, 13, 3)
    return Graph(nxt, edges)


def _host_weak_moderate():
    # x=0 adjacent to y1=1 (weak), y2=2 and y3=3 (moderate).  y1's other
    # support z1=6 sits on a K33-minus-edge patch (all of it 4-neighbor
    # free); the moderates' supports 4 and 5 legitimize each other.
    edges = [(0, 1), (0, 2), (0, 3)]
    for a in (6, 7, 8):
        for b in (9, 10, 11):
            if (a, b) != (6, 9):
                edges.append((a, b))
    edges.append((1, 6))
    nxt = 12
    helper = nxt  # y1's 4-neighbor, also adopts the second K33 stub
    edges += [(1, helper), (9, helper)]
    nxt += 1
    edges, nxt = _leafy(edges, nxt, helper, 2)
    edges += [(2, 4), (3, 5), (4, 5)]
    for v in (2, 3, 4, 5):
        four = nxt
        edges.append((v, four))
        nxt += 1
        edges, nxt = _leafy(edges, nxt, four, 3)
    return Graph(nxt, edges)


def _host_vacuous_theta7():
    # the deleted triangle corner leaves a 14-leaf star behind, which
    # cannot be colored with 13 colors: the replay is vacuous
    return _disjoint_union(oracles.complete(3), oracles.star(14))


def _host_four_deg3():
    return Graph(9, [
        (0, 1), (0, 2), (0, 3), (0, 4),
        (1, 5), (1, 6), (2, 5), (2, 6), (3, 7), (3, 8), (4, 7), (4, 8),
    ])


def _host_3d_support():
    # x=0 has three 4-neighbors; neighbor 1 is one-4-neighbor class (4D)
    # via one leafy 4-vertex and two 3-vertices of its own
    edges = [(0, 1), (0, 2), (0, 3)]
    nxt = 4
    four = nxt
    edges.append((1, four))
    nxt += 1
    edges, nxt = _leafy(edges, nxt, four, 3)
    for _ in range(2):
        three = nxt
        edges.append((1, three))
        nxt += 1
        edges, nxt = _leafy(edges, nxt, three, 2)
    edges, nxt = _leafy(edges, nxt, 2, 3)
    edges, nxt = _leafy(edges, nxt, 3, 3)
    return Graph(nxt, edges)


def _host_4d_bad():
    # x=0 is a one-4-neighbor 4-vertex; its 3-neighbor w=1 gets a 5-vertex,
    # making w a one-5-neighbor vertex
    edges = [(0, 1), (0, 2), (0, 3), (0, 4)]
    nxt = 5
    edges, nxt = _leafy(edges, nxt, 2, 3)
    edges, nxt = _leafy(edges, nxt, 3, 2)
    edges, nxt = _leafy(edges, nxt, 4, 2)
    five = nxt
    edges.append((1, five))
    nxt += 1
    edges, nxt = _leafy(edges, nxt, five, 4)
    three = nxt
    edges.append((1, three))
    nxt += 1
    edges, nxt = _leafy(edges, nxt, three, 2)
    return Graph(nxt, edges)


def _host_triangle_4c():
    # triangle of 4-vertices, each with two extra 3-neighbors: every corner
    # has exactly two 4-neighbors (the other corners)
    edges = [(0, 1), (0, 2), (1, 2)]
    nxt = 3
    for v in (0, 1, 2):
        for _ in range(2):
            three = nxt
            edges.append((v, three))
            nxt += 1
            edges, nxt = _leafy(edges, nxt, three, 2)
    return Graph(nxt, edges)


def _host_triangle_deg3():
    return Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])


def _host_four_cycle_4c():
    # cycle 0-1-2-3 with corner 0 a 3-vertex (third neighbor a leaf) and
    # corners 1, 2, 3 all two-4-neighbor 4-vertices via leafy satellites
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    nxt = 4
    edges.append((0, nxt))
    nxt += 1
    for v, extra_fours in ((1, 1), (2, 0), (3, 1)):
        for _ in range(extra_fours):
            four = nxt
            edges.append((v, four))
            nxt += 1
            edges, nxt = _leafy(edges, nxt, four, 3)
        extra_threes = 2 if v == 2 else 1
        for _ in range(extra_threes):
            three = nxt
            edges.append((v, three))
            nxt += 1
            edges, nxt = _leafy(edges, nxt, three, 2)
    return Graph(nxt, edges)


def _host_4cweak():
    # x=0 has 3-neighbors 1, 2 (each one-5-neighbor class) and 4-neighbors
    # 3, 4 (each a two-4-neighbor vertex with its own 3-neighbors)
    edges = [(0, 1), (0, 2), (0, 3), (0, 4)]
    nxt = 5
    for y in (1, 2):
        five = nxt
        edges.append((y, five))
        nxt += 1
        edges, nxt = _leafy(edges, nxt, five, 4)
        three = nxt
        edges.append((y, three))
        nxt += 1
        edges, nxt = _leafy(edges, nxt, three, 2)
    for z in (3, 4):
        four = nxt
        edges.append((z, four))
        nxt += 1
        edges, nxt = _leafy(edges, nxt, four, 3)
        for _ in range(2):
            three = nxt
            edges.append((z, three))
            nxt += 1
            edges, nxt = _leafy(edges, nxt, three, 2)
    return Graph(nxt, edges)


def _host_5v_bweak():
    # x=0 is a 5-vertex; neighbors 1 and 2 are 3-vertices with a second
    # 5-neighbor each and a plain 3-neighbor each (two-5-neighbor weak)
    edges = [(0, 1), (0, 2)]
    nxt = 3
    edges, nxt = _leafy(edges, nxt, 0, 3)
    for y in (1, 2):
        five = nxt
        edges.append((y, five))
        nxt += 1
        edges, nxt = _leafy(edges, nxt, five, 4)
        three = nxt
        edges.append((y, three))
        nxt += 1
        edges, nxt = _leafy(edges, nxt, three, 2)
    return Graph(nxt, edges)


def _host_vacuous_theta8():
    # deleting the triangle's 3-vertex leaves a 21-leaf star: no 20-color
    # strong coloring exists, so the replay is vacuous
    return _disjoint_union(
        (4, [(0, 1), (0, 2), (1, 2), (0, 3)]), oracles.star(21)
    )


# (scheme, pattern id, host builder, expected verdict)
REDUCIBILITY_HOSTS = [
    ("theta7", "deg-outside-234", _host_path4, "EXTENDED"),
    ("theta7", "deg2-bad-neighbor", _host_c5, "EXTENDED"),
    ("theta7", "deg3d-pair-low-support", _host_petersen, "EXTENDED"),
    ("theta7", "deg4-two-deg2", _host_bowtie, "EXTENDED"),
    ("theta7", "triangle", _host_k3, "EXTENDED"),
    ("theta7", "four-cycle-3d", _host_cube, "EXTENDED"),
    ("theta7", "five-cycle-3d", _host_petersen, "EXTENDED"),
    ("theta7", "pan-3d", _host_petersen, "EXTENDED"),
    ("theta7", "deg3d-two-weak", _host_two_weak, "EXTENDED"),
    ("theta7", "deg3d-weak-moderate", _host_weak_moderate, "EXTENDED"),
    ("theta7", "triangle", _host_vacuous_theta7, "VACUOUS"),
    ("theta8", "deg-outside-345", _host_c5, "EXTENDED"),
    ("theta8", "deg3-pair-missing-deg5", _host_petersen, "EXTENDED"),
    ("theta8", "deg4-four-deg3", _host_four_deg3, "EXTENDED"),
    ("theta8", "deg3d-non-b-support", _host_3d_support, "EXTENDED"),
    ("theta8", "deg4d-bad-neighbor", _host_4d_bad, "EXTENDED"),
    ("theta8", "triangle-4c", _host_triangle_4c, "EXTENDED"),
    ("theta8", "triangle-deg3", _host_triangle_deg3, "EXTENDED"),
    ("theta8", "four-cycle-4c", _host_four_cycle_4c, "EXTENDED"),
    ("theta8", "deg4cweak-two-4c", _host_4cweak, "EXTENDED"),
    ("theta8", "deg5-two-bweak", _host_5v_bweak, "EXTENDED"),
    ("theta8", "triangle-deg3", _host_vacuous_theta8, "VACUOUS"),
]


def test_criterion_10_reducibility_hosts():
    assert len(REDUCIBILITY_HOSTS) >= 20
    covered = set()
    verdicts = Counter()
    for scheme_name, pattern_id, builder, expected in REDUCIBILITY_HOSTS:
        scheme = Scheme(scheme_name)
        g = builder()
        labels = classify(g, scheme).labels
        matches = [
            m
            for m in find_configurations(g, scheme, labels)
            if m.pattern_id == pattern_id
        ]
        assert matches, f"{builder.__name__}: no {pattern_id} match"
        report = verify_reducibility(g, matches[0], budget=60.0)
        assert report.verdict == expected, (
            f"{builder.__name__}/{pattern_id}: {report.verdict}"
        )
        assert report.bounds_ok, f"{builder.__name__}/{pattern_id}: bounds"
        if report.verdict == "EXTENDED":
            colors = [None] * g.m
            for (u, v), color in report.coloring:
                colors[g.edge_id(u, v)] = color
            assert all(c is not None for c in colors)
            ok, violations = is_valid_strong_coloring(
                build_conflict_graph(g), PartialColoring(report.k, colors)
            )
            assert ok and not violations
        covered.add((scheme_name, pattern_id))
        verdicts[report.verdict] += 1

    all_patterns = {("theta7", p.id) for p in catalog(Scheme.THETA7)}
    all_patterns |= {("theta8", p.id) for p in catalog(Scheme.THETA8)}
    assert covered == all_patterns
    assert verdicts["VACUOUS"] >= 2 and verdicts["EXTENDED"] >= 18


def test_reducibility_hosts_replay_with_theorem_palette():
    # every pattern is replayed with its scheme's theorem palette
    palette = {scheme: k for scheme, _, k in THEOREMS.values()}
    for scheme_name, pattern_id, builder, _ in REDUCIBILITY_HOSTS:
        scheme = Scheme(scheme_name)
        g = builder()
        labels = classify(g, scheme).labels
        m = next(
            m
            for m in find_configurations(g, scheme, labels)
            if m.pattern_id == pattern_id
        )
        report = verify_reducibility(g, m, budget=60.0)
        assert report.k == palette[scheme], f"{builder.__name__}/{pattern_id}"


def test_reducibility_lift_matches_independent_solve():
    # the replay colors g - v in g's own edge ids; solving the compacted
    # copy from oracles.delete_vertex and mapping its coloring back through the
    # vertex map must give the same colors on every edge the extension
    # leaves alone (those avoiding v and not erased)
    lifted = 0
    for scheme_name, pattern_id, builder, _ in REDUCIBILITY_HOSTS:
        scheme = Scheme(scheme_name)
        g = builder()
        labels = classify(g, scheme).labels
        m = next(
            m
            for m in find_configurations(g, scheme, labels)
            if m.pattern_id == pattern_id
        )
        report = verify_reducibility(g, m, budget=60.0)
        if report.verdict != "EXTENDED":
            continue
        (n, kept), vmap = oracles.delete_vertex(g.n, g.edges, report.deleted)
        h = Graph(n, kept)
        solve = k_colorable(build_conflict_graph(h), report.k, time_budget=60.0)
        assert solve.status == "SAT" and solve.nodes == report.nodes
        inv = {new: old for old, new in vmap.items()}
        final = dict(report.coloring)
        for (a, b), c in zip(h.edges, solve.coloring.colors):
            edge = (inv[a], inv[b])
            if edge not in report.erased:
                lifted += 1
                assert final[edge] == c, f"{builder.__name__}/{pattern_id}"
    assert lifted > 0


def test_replays_restrict_the_host_conflict_graph(monkeypatch):
    # every replay on the criterion-10 hosts colors g - v with the host's
    # conflict graph restricted to the kept edges: the same sees-relation
    # that building g - v's conflict graph from scratch gives
    real = patterns_module.k_colorable
    checked = []

    def compared(cg, k, time_budget):
        assert cg.sees == build_conflict_graph(cg.base).sees
        checked.append(cg.n)
        return real(cg, k, time_budget=time_budget)

    monkeypatch.setattr(patterns_module, "k_colorable", compared)
    built = {}
    for scheme_name, _, builder, _ in REDUCIBILITY_HOSTS:
        built.setdefault((scheme_name, builder), builder())
    replays = 0
    for (scheme_name, _), g in built.items():
        scheme = Scheme(scheme_name)
        for m in find_configurations(g, scheme, classify(g, scheme).labels):
            verify_reducibility(g, m, budget=60.0)
            replays += 1
    assert len(checked) == replays and any(checked)


# sha256 of the recipe rows below, taken before the recipes became data
RECIPE_COUNT = 3436
RECIPE_DIGEST = "25f90fd71d21b1232123baa1e6e983cce69beedd9c5bfa449153ffe1b2e779aa"


def test_recipe_instantiations_pinned(corpus6):
    # what each recipe deletes, erases and asserts, on every match of the
    # connected graphs with n <= 6 under both schemes, of the criterion-10
    # hosts, and of the stars whose centers have degree 6 and 7
    hosts = [(s, g) for g in corpus6 for s in Scheme]
    hosts += [(s, Graph(*oracles.star(k))) for k in (6, 7) for s in Scheme]
    built = {}
    for scheme_name, _, builder, _ in REDUCIBILITY_HOSTS:
        built.setdefault((scheme_name, builder), builder())
    hosts += [(Scheme(name), g) for (name, _), g in built.items()]
    rows = []
    for scheme, g in hosts:
        for m in find_configurations(g, scheme, classify(g, scheme).labels):
            r = verify_reducibility(g, m, budget=60.0)
            rows.append([r.pattern_id, m.assignment, r.deleted, r.erased, r.bounds])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert (len(rows), digest) == (RECIPE_COUNT, RECIPE_DIGEST)
