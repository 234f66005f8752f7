"""Coloring validity, lists, SDR, erase-and-extend, and the exact solver."""

import itertools
import random
import tracemalloc
import types

import pytest

import oracles
from conftest import random_graph
from strongedge import coloring
from strongedge import (
    ChiResult,
    Graph,
    PartialColoring,
    SetFamily,
    available_colors,
    build_conflict_graph,
    chi_s_exact,
    erase_and_extend,
    greedy_extend,
    hall_sdr,
    is_valid_strong_coloring,
    k_colorable,
)

# a random host whose 12-colorability refutation needs 6199 nodes; with a
# zero budget the solver trips its poll deterministically
_HARD_HOST = Graph(
    12,
    [
        (0, 1), (0, 7), (0, 9), (0, 11), (1, 2), (1, 5), (1, 11), (2, 10),
        (3, 4), (3, 6), (3, 7), (3, 9), (3, 10), (4, 7), (4, 9), (4, 10),
        (6, 7), (6, 9), (7, 10), (8, 11),
    ],
)

# a random host with the greedy bracket [8, 9], whose 8-colorability
# refutation needs 1843 nodes: its first decision passes the 1024-node poll
_SLOW_FIRST_HOST = Graph(
    12,
    [
        (0, 4), (0, 6), (1, 2), (1, 5), (1, 7), (2, 5), (2, 9), (3, 7),
        (3, 8), (3, 9), (4, 8), (4, 10), (5, 9), (6, 7), (6, 9), (8, 10),
        (8, 11),
    ],
)

# a random host (chi'_s = 13) whose search tree is pinned below
_TREE_HOST = Graph(
    12,
    [
        (0, 3), (0, 5), (0, 11), (1, 2), (1, 8), (1, 9), (2, 7), (2, 11),
        (3, 4), (3, 5), (3, 6), (3, 11), (5, 6), (5, 10), (6, 7), (6, 9),
        (6, 10), (7, 8), (7, 9), (7, 11), (8, 9), (8, 10), (9, 10),
    ],
)


def _cg(case):
    n, edges = case
    return build_conflict_graph(Graph(n, edges))


def test_partial_coloring_container():
    c = PartialColoring.empty(3, 4)
    assert c.colors == [None] * 4 and not c.is_total() and c.assigned() == []
    c.colors[2] = 1
    assert c.assigned() == [2]
    d = c.copy()
    d.colors[0] = 3
    assert c.colors[0] is None
    assert c != d and c == PartialColoring(3, [None, None, 1, None])
    with pytest.raises(ValueError):
        PartialColoring(-1, [])
    with pytest.raises(ValueError):
        PartialColoring(2, [3])
    with pytest.raises(ValueError):
        PartialColoring(2, [0])


def test_validity_matches_seeing_oracle(rng):
    for _ in range(40):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, 0.5)
        if g.m == 0:
            continue
        cg = build_conflict_graph(g)
        k = rng.randint(1, g.m)
        colors = [rng.randint(1, k) for _ in range(g.m)]
        ok, violations = is_valid_strong_coloring(cg, PartialColoring(k, colors))
        pairs = oracles.sees_pairs(g.n, list(g.edges))
        expect = not any(colors[a] == colors[b] for a, b in pairs)
        assert ok == expect
        assert ok == (violations == [])
        for e, e2, col in violations:
            assert e < e2 and colors[e] == colors[e2] == col
            assert (e, e2) in pairs or (e2, e) in pairs
        assert violations == sorted(violations)


def test_validity_ignores_uncolored_edges():
    cg = _cg(oracles.path(4))
    ok, _ = is_valid_strong_coloring(cg, PartialColoring.empty(2, 3))
    assert ok
    with pytest.raises(ValueError):
        is_valid_strong_coloring(cg, PartialColoring.empty(2, 5))


def test_available_colors_excludes_only_seen():
    # path on 5 vertices: edge 0 sees edges 1 and 2, not edge 3
    cg = _cg(oracles.path(5))
    c = PartialColoring(3, [None, 1, 2, 3])
    assert available_colors(cg, c, 0) == {3}
    c = PartialColoring(3, [1, None, None, 1])
    # edge 3 is out of sight and edge 0's own color is never excluded
    assert available_colors(cg, c, 0) == {1, 2, 3}
    with pytest.raises(ValueError):
        available_colors(cg, c, 9)


def test_greedy_extend_orders_by_list_size():
    cg = _cg(oracles.path(6))
    c = PartialColoring(3, [None, None, 1, None, 2])
    res = greedy_extend(cg, c, [0, 1, 3])
    assert res.ok and res.coloring.is_total()
    ok, _ = is_valid_strong_coloring(cg, res.coloring)
    assert ok
    # edge 3 sees both colored edges, so its list is smallest at the start
    assert res.ordering == (3, 1, 0)
    assert res.coloring.colors == [3, 2, 1, 3, 2]
    with pytest.raises(ValueError):
        greedy_extend(cg, res.coloring, [0])


def test_greedy_extend_reports_stuck_edge():
    cg = _cg(oracles.path(3))  # two edges that see each other
    res = greedy_extend(cg, PartialColoring.empty(1, 2), [0, 1])
    assert not res.ok and res.coloring is None
    assert res.failed_edge == 1 and res.ordering == (0,)


def _sdr_agrees_with_oracle(k, sets):
    fam = SetFamily.of(k, sets)
    res = hall_sdr(fam)
    assert res.ok == oracles.has_sdr([set(s) for s in sets])
    if res.ok:
        assert len(set(res.reps)) == len(sets)
        for rep, s in zip(res.reps, sets):
            assert rep in s
    else:
        union = set()
        for i in res.violator:
            union |= set(sets[i])
        assert len(union) == res.union_size < len(res.violator)
        # the violator certifies the full deficiency, not just some shortfall
        deficiency = len(sets) - oracles.matching_number(sets)
        assert len(res.violator) - res.union_size == deficiency


def test_hall_sdr_exhaustive_small():
    subsets = [frozenset(s) for s in oracles_powerset(3)]
    for size in range(4):
        for fam in _tuples(subsets, size):
            _sdr_agrees_with_oracle(3, list(fam))


def oracles_powerset(k):
    out = []
    for mask in range(1 << k):
        out.append({x + 1 for x in range(k) if mask >> x & 1})
    return out


def _tuples(pool, size):
    if size == 0:
        yield ()
        return
    for rest in _tuples(pool, size - 1):
        for s in pool:
            yield rest + (s,)


def test_hall_sdr_random_families(rng):
    for _ in range(150):
        k = rng.randint(1, 6)
        sets = [
            {x for x in range(1, k + 1) if rng.random() < 0.5}
            for _ in range(rng.randint(1, 6))
        ]
        _sdr_agrees_with_oracle(k, sets)


def test_hall_sdr_long_augmenting_path():
    # the last set's augmenting path runs through all 1500 chain sets,
    # deeper than the default recursion limit
    chain = [{i, i + 1} for i in range(1, 1501)]
    res = hall_sdr(SetFamily.of(1501, chain + [{1}]))
    assert res.ok
    assert res.reps == tuple(range(2, 1502)) + (1,)
    # one set too many for the 1501 elements: the failing search is as
    # deep, and the certificate still holds
    sets = chain + [{1}, {1501}]
    res = hall_sdr(SetFamily.of(1501, sets))
    assert not res.ok and res.reps is None
    union = set().union(*(sets[i] for i in res.violator))
    assert len(union) == res.union_size < len(res.violator)
    assert len(res.violator) - res.union_size == 1


def test_set_family_rejects_foreign_elements():
    with pytest.raises(ValueError):
        SetFamily.of(3, [{1, 4}])


def test_erase_and_extend_same_color():
    # opposite edges of a 6-cycle do not see each other; after sorting,
    # edge ids 0=(0,1) and 4=(3,4) form such a pair
    cg = _cg(oracles.cycle(6))
    c = PartialColoring(3, [1, 2, 3, 2, 1, 3])
    assert is_valid_strong_coloring(cg, c)[0]
    out = erase_and_extend(cg, c, [0, 4], [])
    assert out.ok and out.strategy == "same_color"
    assert out.coloring.colors[0] == out.coloring.colors[4]
    assert is_valid_strong_coloring(cg, out.coloring)[0]


def test_erase_and_extend_same_color_records_a_pair_without_shared_colors():
    # erased edges 1=(0,4) and 2=(1,5) do not see each other, but (0,4)
    # can take only colour 2 and (1,5) only colour 1
    cg = build_conflict_graph(Graph(6, [(0, 3), (0, 4), (1, 5), (2, 5)]))
    c = PartialColoring(2, [1, 2, 1, 2])
    out = erase_and_extend(cg, c, [2, 1], [])
    assert out.diagnostics["attempts"] == [
        {"strategy": "same_color", "pair": [1, 2], "shared_colors": []}
    ]
    assert out.ok and out.strategy == "sdr"
    assert out.coloring.colors == [1, 2, 1, 2]


def test_erase_and_extend_same_color_skips_a_seeing_pair():
    # the path's two edges see each other: no pair is tried, none recorded
    cg = _cg(oracles.path(3))
    c = PartialColoring(2, [1, 2])
    out = erase_and_extend(cg, c, [0, 1], [])
    assert out.diagnostics["attempts"] == []
    assert out.ok and out.strategy == "sdr"
    assert out.coloring.colors == [1, 2]


def test_erase_and_extend_sdr():
    # single erased edge: no pair to reuse, SDR fires first
    cg = _cg(oracles.star(3))
    c = PartialColoring(3, [1, 2, 3])
    out = erase_and_extend(cg, c, [0], [])
    assert out.ok and out.strategy == "sdr"
    assert out.coloring.colors == [1, 2, 3]


def test_erase_and_extend_greedy():
    # three pairwise non-seeing working edges forced onto one shared color:
    # no erased pair exists, distinct representatives are impossible, but
    # greedy reuse colors all three alike
    cg = _cg(oracles.path(10))
    c = PartialColoring(3, [None, 2, 3, 1, None, None, 2, None, 3])
    assert is_valid_strong_coloring(cg, c)[0]
    out = erase_and_extend(cg, c, [3], [0, 7])
    assert out.ok and out.strategy == "greedy"
    assert out.coloring.colors[0] == out.coloring.colors[3] == out.coloring.colors[7] == 1
    assert is_valid_strong_coloring(cg, out.coloring)[0]
    assert any(a["strategy"] == "sdr" for a in out.diagnostics["attempts"])


def test_erase_and_extend_failure_diagnostics():
    cg = _cg(oracles.path(3))
    c = PartialColoring(1, [1, None])
    out = erase_and_extend(cg, c, [0], [1])
    assert not out.ok and out.strategy is None and out.coloring is None
    attempts = {a["strategy"]: a for a in out.diagnostics["attempts"]}
    assert attempts["sdr"]["violator"] == [0, 1]
    assert attempts["sdr"]["union_size"] == 1
    assert "greedy" in attempts
    assert out.diagnostics["lists"] == {0: [1], 1: [1]}


def test_erase_and_extend_argument_validation():
    cg = _cg(oracles.path(3))
    c = PartialColoring(2, [1, None])
    with pytest.raises(ValueError):
        erase_and_extend(cg, c, [1], [])  # erasing an uncolored edge
    with pytest.raises(ValueError):
        erase_and_extend(cg, c, [], [0])  # targeting a colored edge


def test_k_colorable_matches_oracle(rng):
    for _ in range(25):
        n = rng.randint(2, 7)
        g = random_graph(rng, n, 0.5)
        if g.m == 0:
            continue
        cg = build_conflict_graph(g)
        for k in range(1, g.m + 1):
            res = k_colorable(cg, k)
            expect = oracles.strong_k_colorable(g.n, list(g.edges), k)
            assert (res.status == "SAT") == expect
            if res.status == "SAT":
                assert res.coloring.is_total()
                assert is_valid_strong_coloring(cg, res.coloring)[0]
                assert max(res.coloring.colors) <= k


def _random_subcubic(rng, n):
    """A random connected graph on n vertices of maximum degree 3."""
    deg = [0] * n
    edges = set()
    for v in range(1, n):
        u = rng.choice([w for w in range(v) if deg[w] < 3])
        edges.add((u, v))
        deg[u] += 1
        deg[v] += 1
    for _ in range(4 * n):
        a, b = sorted(rng.sample(range(n), 2))
        if deg[a] < 3 and deg[b] < 3 and (a, b) not in edges:
            edges.add((a, b))
            deg[a] += 1
            deg[b] += 1
    return Graph(n, sorted(edges))


def test_hall_cliques_are_conflict_cliques(rng):
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 8), 0.5)
        cg = build_conflict_graph(g)
        found = coloring._hall_cliques(g)
        assert all(mask == sum(1 << e for e in c) for mask, c in found)
        cliques = [c for _, c in found]
        by_edge = [
            set(g.incident_edges(u)) | set(g.incident_edges(v)) for u, v in g.edges
        ]
        for (u, v), q in zip(g.edges, by_edge):
            assert len(q) == g.degree(u) + g.degree(v) - 1
            for e in q:
                assert q - {e} <= set(cg.sees[e])
            # every host edge's clique survives, or one that contains it
            assert any(q <= set(c) for c in cliques)
        for c in cliques:
            assert list(c) == sorted(c) and set(c) in by_edge
        # none contained in another, and no two alike
        assert len(set(cliques)) == len(cliques)
        assert not any(set(a) < set(b) for a in cliques for b in cliques)


def test_k_colorable_matches_oracle_on_subcubic_hosts():
    # at k = chi'_s - 1 the refutation is where Hall's test fires
    rng = random.Random(6)
    for _ in range(12):
        g = _random_subcubic(rng, rng.randint(6, 10))
        cg = build_conflict_graph(g)
        chi = chi_s_exact(cg).value
        for k in (chi - 1, chi):
            res = k_colorable(cg, k)
            assert (res.status == "SAT") == oracles.strong_k_colorable(
                g.n, list(g.edges), k
            )
            assert (res.status == "SAT") == (k == chi)


def test_hall_prune_keeps_the_plain_search(rng, monkeypatch):
    # with no cliques the solver is plain DSATUR: the prune must leave
    # every verdict and SAT coloring alone and never add a node
    cases = []
    for _ in range(25):
        g = random_graph(rng, rng.randint(3, 8), 0.4)
        if g.m:
            cases.append(g)
    cases += [_random_subcubic(rng, n) for n in (12, 14, 16, 18)]
    calls = []
    for g in cases:
        cg = build_conflict_graph(g)
        chi = chi_s_exact(cg).value
        calls += [(cg, k) for k in range(max(1, chi - 2), chi + 2)]
    pruned = [k_colorable(cg, k) for cg, k in calls]
    monkeypatch.setattr(coloring, "_hall_cliques", lambda g: [])
    plain = [k_colorable(cg, k) for cg, k in calls]
    for a, b in zip(pruned, plain):
        assert a.status == b.status
        assert (a.coloring and a.coloring.colors) == (b.coloring and b.coloring.colors)
        assert a.nodes <= b.nodes
    assert sum(a.nodes for a in pruned) < sum(b.nodes for b in plain)


def test_k_colorable_edge_cases():
    assert k_colorable(_cg((3, [])), 1).status == "SAT"
    with pytest.raises(ValueError):
        k_colorable(_cg(oracles.path(3)), 0)


def test_k_colorable_huge_palette_holds_no_palette_mask():
    # from m colors up every partial coloring extends, so a palette of
    # 10**8 decides as k = m does, without a mask of 10**8 bits
    cg = _cg(oracles.cycle(5))
    tracemalloc.start()
    try:
        big = k_colorable(cg, 10**8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    small = k_colorable(cg, cg.n)
    assert (big.status, big.coloring.colors, big.nodes) == (
        small.status, small.coloring.colors, small.nodes,
    )


def test_k_colorable_timeout_is_reported():
    cg = build_conflict_graph(_HARD_HOST)
    assert k_colorable(cg, 12, time_budget=30).status == "UNSAT"
    assert k_colorable(cg, 13, time_budget=30).status == "SAT"
    res = k_colorable(cg, 12, time_budget=0.0)
    assert res.status == "TIMEOUT" and res.coloring is None
    assert res.nodes == 1024  # first budget poll


def test_k_colorable_search_tree_is_pinned():
    # node counts and the SAT coloring fix the branching order: edge of
    # largest saturation (smallest id on ties), colors ascending, capped
    # one above the highest color in use; Hall's test prunes the
    # refutation and leaves the backtrack-free SAT search alone
    cg = build_conflict_graph(_TREE_HOST)
    res = k_colorable(cg, 12, time_budget=30)
    assert (res.status, res.nodes) == ("UNSAT", 134)
    res = k_colorable(cg, 13, time_budget=30)
    assert (res.status, res.nodes) == ("SAT", 24)
    assert res.coloring.colors == [
        1, 2, 3, 11, 7, 8, 2, 4, 5, 6, 7, 8, 4, 10, 9, 3, 11, 6, 12, 10,
        13, 1, 5,
    ]


def test_k_colorable_has_no_depth_limit():
    g = Graph(*oracles.path(1500))
    cg = build_conflict_graph(g)
    res = k_colorable(cg, 3)
    assert res.status == "SAT" and res.coloring.is_total()
    assert is_valid_strong_coloring(cg, res.coloring)[0]
    assert res.nodes == g.m + 1  # a path never backtracks


def test_chi_fixed_values():
    for case, expect in [
        (oracles.cycle(5), 5),
        (oracles.cycle(6), 3),
        (oracles.cycle(7), 4),
        (oracles.star(5), 5),
        (oracles.path(4), 3),
        (oracles.complete(4), 6),
        (oracles.complete_bipartite(3, 3), 9),
        (oracles.petersen(), 5),
    ]:
        res = chi_s_exact(_cg(case))
        assert res.status == "OK" and res.value == expect
        assert res.lower == res.upper == expect
        cg = _cg(case)
        assert is_valid_strong_coloring(cg, res.coloring)[0]
        assert res.coloring.is_total() and res.coloring.k == expect


def test_chi_matches_oracle_random(rng):
    for _ in range(30):
        n = rng.randint(1, 6)
        g = random_graph(rng, n, 0.5)
        res = chi_s_exact(build_conflict_graph(g))
        assert res.status == "OK"
        assert res.value == oracles.strong_chromatic_index(g.n, list(g.edges))


def test_chi_timeout_reports_bracket():
    # C7 brackets to [3, 4]; with no budget the gap cannot be closed
    res = chi_s_exact(_cg(oracles.cycle(7)), time_budget=0.0)
    assert res.status == "TIMEOUT" and res.value is None
    assert (res.lower, res.upper) == (3, 4)
    assert res.coloring is None


def test_chi_timeout_inside_a_decision(monkeypatch):
    # a clock that reads one second later at each call: chi_s_exact hands
    # the first decision half a second, and the poll at node 1024 sees one
    ticks = itertools.count()
    clock = types.SimpleNamespace(monotonic=lambda: next(ticks))
    monkeypatch.setattr(coloring, "time", clock)
    res = chi_s_exact(build_conflict_graph(_SLOW_FIRST_HOST), time_budget=1.5)
    assert res == ChiResult("TIMEOUT", None, 8, 9, None, 1024)
