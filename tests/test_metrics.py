"""Ore degree, exact mad via flow, and the closed-form bound tables."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_graph
from strongedge import (
    Graph,
    conjectured_bound,
    mad_bruteforce,
    mad_exact,
    mad_upper_bound,
    ore_degree,
    parse_graph6,
)
from strongedge.metrics import _Dinic


def _graph(case):
    n, edges = case
    return Graph(n, edges)


def test_ore_degree_examples():
    assert ore_degree(_graph(oracles.cycle(5))) == 4
    assert ore_degree(_graph(oracles.complete(4))) == 6
    assert ore_degree(_graph(oracles.complete_bipartite(3, 4))) == 7
    assert ore_degree(_graph(oracles.complete_bipartite(4, 4))) == 8
    assert ore_degree(_graph(oracles.star(5))) == 6
    assert ore_degree(_graph(oracles.path(4))) == 4


def test_ore_degree_matches_direct_maximum(rng):
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 10), 0.5)
        if g.m == 0:
            continue
        deg = [g.degree(v) for v in range(g.n)]
        assert ore_degree(g) == max(deg[u] + deg[v] for u, v in g.edges)


def test_ore_degree_undefined_without_edges():
    with pytest.raises(ValueError):
        ore_degree(Graph(3, []))


def test_bound_formula_values():
    assert conjectured_bound(5) == 7
    assert conjectured_bound(6) == 10
    assert conjectured_bound(7) == 13
    assert conjectured_bound(8) == 20
    with pytest.raises(ValueError):
        conjectured_bound(4)


def test_bound_formula_is_increasing():
    values = [conjectured_bound(t) for t in range(5, 41)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_mad_ceiling_values():
    assert mad_upper_bound(7) == Fraction(24, 7)
    assert mad_upper_bound(8) == 4
    assert mad_upper_bound(5) == Fraction(12, 5)
    assert mad_upper_bound(2) == 1
    assert mad_upper_bound(3) == Fraction(4, 3)
    with pytest.raises(ValueError):
        mad_upper_bound(1)


def _induced_average_degree(g, subset):
    inside = sum(1 for u, v in g.edges if u in subset and v in subset)
    return Fraction(2 * inside, len(subset))


def test_mad_exact_matches_bruteforce_on_corpus(corpus6):
    for g in corpus6:
        if g.m == 0:
            continue
        value, witness = mad_exact(g)
        brute, _ = mad_bruteforce(g)
        assert value == brute
        assert _induced_average_degree(g, set(witness)) == value
        assert witness == oracles.largest_densest_subset(g.n, list(g.edges))


def test_mad_exact_matches_bruteforce_random(rng):
    for _ in range(60):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.9]))
        if g.m == 0:
            continue
        value, witness = mad_exact(g)
        brute, _ = mad_bruteforce(g)
        assert value == brute
        assert witness == tuple(sorted(witness))
        assert _induced_average_degree(g, set(witness)) == value
        assert witness == oracles.largest_densest_subset(g.n, list(g.edges))


def test_mad_exact_beyond_bruteforce_range():
    value, witness = mad_exact(_graph(oracles.path(1500)))
    assert value == Fraction(1499, 750)
    assert witness == tuple(range(1500))
    n, edges = oracles.complete(5)
    tail = [(v, v + 1) for v in range(4, 1204)]
    value, witness = mad_exact(Graph(n + 1200, edges + tail))
    assert value == 4
    assert witness == (0, 1, 2, 3, 4)
    # Two K4s joined by a long path: the witness is both K4s, not one.
    k4 = oracles.complete(4)[1]
    second = [(u + 4, v + 4) for u, v in k4]
    bridge = [(3, 8)] + [(v, v + 1) for v in range(8, 1007)] + [(1007, 4)]
    value, witness = mad_exact(Graph(1008, k4 + second + bridge))
    assert value == 3
    assert witness == tuple(range(8))
    # A triangle at the end of a 3000-vertex path: the whole graph ties
    # the triangle's density, and the one cut at rho = 1 needs augmenting
    # paths about 3000 arcs long, deeper than the default recursion limit.
    g = Graph(3000, [(0, 2)] + [(v, v + 1) for v in range(2999)])
    assert mad_exact(g) == (2, tuple(range(3000)))


def _disjoint(a_case, b_case):
    an, aedges = a_case
    bn, bedges = b_case
    return Graph(an + bn, list(aedges) + [(u + an, v + an) for u, v in bedges])


@pytest.mark.parametrize(
    "g, value, witness",
    [
        # the peel's best set has average degree 22/7 here, so a second
        # cut is needed to reach the 5-vertex set of 16/5
        (parse_graph6("Fu|?g"), Fraction(16, 5), (0, 1, 2, 3, 4)),
        # no vertex has excess at rho = 1: both 2-regular parts are densest
        (_disjoint(oracles.cycle(5), oracles.cycle(4)), 2, tuple(range(9))),
        (_disjoint(oracles.cycle(5), oracles.path(3)), 2, (0, 1, 2, 3, 4)),
        (_disjoint(oracles.complete(4), oracles.cycle(5)), 3, (0, 1, 2, 3)),
    ],
    ids=["Fu|?g", "C5+C4", "C5+P3", "K4+C5"],
)
def test_mad_witness_is_read_from_the_final_cut(g, value, witness):
    assert mad_exact(g) == (value, witness)
    assert witness == oracles.largest_densest_subset(g.n, list(g.edges))


def test_mad_of_regular_graphs_is_the_degree():
    for case, expect in [
        (oracles.cycle(5), 2),
        (oracles.cycle(6), 2),
        (oracles.complete(4), 3),
        (oracles.complete_bipartite(3, 3), 3),
        (oracles.petersen(), 3),
    ]:
        # no vertex has degree above 2 * m / n, so the first cut is skipped
        # and the witness is the whole graph
        value, witness = mad_exact(_graph(case))
        assert value == expect
        assert witness == tuple(range(case[0]))


def _path_network(two_way):
    # s = 0 -> 1 - 2 - 3 -> t = 4, the middle arcs of capacity 2; as two
    # one-way arcs each, or as one arc pair with capacity 2 both ways
    net = _Dinic(5)
    for u in (1, 2):
        if two_way:
            net.add(u, u + 1, 2, back=2)
        else:
            net.add(u, u + 1, 2)
            net.add(u + 1, u, 2)
    return net


def test_dinic_two_way_arcs_carry_flow_either_way():
    for s, t in ((0, 4), (4, 0)):
        for two_way in (False, True):
            net = _path_network(two_way)
            net.add(s, 1 if s == 0 else 3, 5)
            net.add(3 if t == 4 else 1, t, 1)
            assert net.max_flow(s, t)[0] == 1
    # the cut behind the middle arcs: the same source side either way
    sides = []
    for two_way in (False, True):
        net = _path_network(two_way)
        net.add(0, 1, 5)
        net.add(3, 4, 3)
        flow, level = net.max_flow(0, 4)
        assert flow == 2
        sides.append([x >= 0 for x in level])
    assert sides[0] == sides[1] == [True, True, False, False, False]


def test_mad_matches_subset_oracle_on_extremal_pairs():
    g34 = _graph(oracles.complete_bipartite(3, 4))
    value, witness = mad_exact(g34)
    assert value == oracles.max_average_degree(7, list(g34.edges))
    assert value == Fraction(24, 7)
    assert witness == tuple(range(7))


def test_mad_undefined_without_edges():
    with pytest.raises(ValueError):
        mad_exact(Graph(4, []))
    with pytest.raises(ValueError):
        mad_bruteforce(Graph(4, []))
    with pytest.raises(ValueError):
        mad_bruteforce(Graph(21, [(0, 1)]))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                .filter(lambda e: e[0] != e[1])
                .map(lambda e: (min(e), max(e))),
                min_size=1,
                max_size=n * (n - 1) // 2,
            ),
        )
    )
)
def test_mad_bracketed_by_density_and_max_degree(case):
    n, edges = case
    g = Graph(n, list(edges))
    value, witness = mad_exact(g)
    assert Fraction(2 * g.m, g.n) <= value
    assert value <= max(g.degree(v) for v in range(n))
    assert witness and all(0 <= v < n for v in witness)
