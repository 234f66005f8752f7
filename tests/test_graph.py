"""Core graph container, seeing relation, and the two file formats."""

import gc
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_graph
from strongedge import graph as graph_module
from strongedge import (
    Graph,
    Graph6Error,
    build_conflict_graph,
    is_connected,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from strongedge.smallgraphs import enumerate_connected


def test_edges_are_normalized_and_sorted():
    g = Graph(4, [(3, 1), (0, 2), (1, 0)])
    assert g.edges == ((0, 1), (0, 2), (1, 3))
    assert g.m == 3
    assert [g.endpoints(e) for e in range(3)] == [(0, 1), (0, 2), (1, 3)]
    assert g.edge_id(3, 1) == 2
    assert g.has_edge(2, 0) and not g.has_edge(2, 3)


def test_degree_and_neighbors():
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (2, 3)])
    assert g.degree(0) == 3
    assert g.degree(4) == 0
    assert list(g.neighbors(0)) == [1, 2, 3]
    assert g.max_degree() == 3
    assert sorted(g.incident_edges(3)) == [g.edge_id(0, 3), g.edge_id(2, 3)]


def test_lookups_agree_with_the_edge_tuple(rng):
    # edge ids are positions in g.edges, whatever order or orientation the
    # edge list came in; each neighbor list ascends and pairs up with the
    # incidence list of the same vertex
    for _ in range(60):
        n = rng.randint(0, 12)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = set(rng.sample(pool, k=rng.randint(0, len(pool))))
        listed = [(v, u) if rng.random() < 0.3 else (u, v) for u, v in edges]
        rng.shuffle(listed)
        g = Graph(n, listed)
        for x in range(n):
            nbrs = g.neighbors(x)
            assert all(a < b for a, b in zip(nbrs, nbrs[1:]))
            assert len(nbrs) == len(g.incident_edges(x))
            for y, e in zip(nbrs, g.incident_edges(x)):
                assert sorted(g.endpoints(e)) == sorted((x, y))
        for u in range(-1, n + 1):
            for v in range(-1, n + 1):
                pair = (min(u, v), max(u, v))
                assert g.has_edge(u, v) == (pair in edges)
                if pair in edges:
                    assert g.edge_id(u, v) == g.edges.index(pair)
                else:
                    with pytest.raises(KeyError):
                        g.edge_id(u, v)


def _reads(g):
    # everything a caller can read off a graph's structure
    return (
        g.n,
        g.edges,
        [g.neighbors(v) for v in range(g.n)],
        [g.incident_edges(v) for v in range(g.n)],
        [g.edge_id(u, v) for u, v in g.edges],
    )


@pytest.fixture
def fresh_table(monkeypatch):
    # an empty shared table, so no earlier test's graphs decide when it clears
    table = {}
    monkeypatch.setattr(graph_module, "_shared", table)
    return table


def test_equal_tuples_are_shared(fresh_table):
    # built apart, from fresh pairs in another order and orientation
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 2)])
    h = Graph(5, [(3, 2), (2, 0), (1, 0), (2, 1)])
    assert g == h and g.edges is not h.edges
    for a, b in zip(g.edges, h.edges):
        assert a is b
    for v in range(5):
        assert g.neighbors(v) is h.neighbors(v)
        assert g.incident_edges(v) is h.incident_edges(v)
    # a different graph shares what it has in common
    k = Graph(6, [(0, 1), (0, 2), (4, 5)])
    assert k.edges[0] is g.edges[0] and k.neighbors(0) is g.neighbors(0)


def test_retained_graphs_are_small(fresh_table):
    # a sweep keeps every graph of its corpus alive; once the table holds
    # their tuples, a graph costs its object and three outer tuples
    # (about 400 B for n = 7, against about 1950 B unshared)
    list(enumerate_connected(7))
    gc.collect()  # also empties the free lists, so every block is traced
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = list(enumerate_connected(7))
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(kept) == 853
    assert (after - before) / len(kept) <= 600


def test_shared_table_keeps_its_bound(monkeypatch, fresh_table):
    limit = 40
    monkeypatch.setattr(graph_module, "_SHARED_LIMIT", limit)
    sizes = []
    for g in enumerate_connected(6):
        h = Graph(g.n, list(g.edges))
        sizes.append(len(fresh_table))
        assert h == g and _reads(h) == _reads(g)
    assert max(sizes) <= limit
    # the 112 graphs have far more distinct tuples than the bound, so the
    # table was cleared on the way
    assert any(b < a for a, b in zip(sizes, sizes[1:]))
    # a graph with more tuples than the bound shares only among its own
    n, edges = oracles.path(30)
    big = Graph(n, edges)
    assert len(fresh_table) <= limit
    assert big.edges == tuple(edges)
    assert big.neighbors(1) == (0, 2) and big.incident_edges(1) == (0, 1)


def test_graphs_built_across_a_clear_stay_equal(monkeypatch, fresh_table, rng):
    graphs = []
    for _ in range(40):
        n = rng.randint(0, 9)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        graphs.append(Graph(n, rng.sample(pool, k=rng.randint(0, len(pool)))))
    monkeypatch.setattr(graph_module, "_SHARED_LIMIT", 8)
    Graph(9, [(0, 1), (2, 3)])  # 20 tuples: the table is cleared
    assert not fresh_table
    for g in graphs:
        h = Graph(g.n, list(g.edges))
        assert h == g and hash(h) == hash(g) and _reads(h) == _reads(g)
        for x in (g, h):
            y = pickle.loads(pickle.dumps(x))
            assert y == g and hash(y) == hash(g) and _reads(y) == _reads(g)


def test_rejects_malformed_edges():
    with pytest.raises(ValueError, match=r"^self-loop at vertex 0$"):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
        Graph(3, [(0, 1), (1, 0)])
    # the first repeat in sorted order is the one named
    with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
        Graph(3, [(1, 2), (2, 1), (1, 0), (0, 1)])
    with pytest.raises(ValueError, match=r"^edge \(0,3\) out of range for n=3$"):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError, match="vertex count must be nonnegative"):
        Graph(-1, [])


def test_is_connected():
    assert is_connected(Graph(0, []))
    assert is_connected(Graph(1, []))
    assert not is_connected(Graph(2, []))
    assert is_connected(Graph(2, [(0, 1)]))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
    n, edges = oracles.petersen()
    assert is_connected(Graph(n, edges))


def test_delete_vertex_compacts_ids():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
    (n, kept), mapping = oracles.delete_vertex(g.n, g.edges, 2)
    h = Graph(n, kept)
    assert h.n == 4
    assert mapping == {0: 0, 1: 1, 3: 2, 4: 3}
    assert h.edges == ((0, 1), (1, 2), (2, 3))
    with pytest.raises(ValueError):
        oracles.delete_vertex(g.n, g.edges, 5)


def test_conflict_graph_matches_oracle_pairs(rng):
    for _ in range(20):
        n = rng.randint(2, 7)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = rng.sample(pool, k=rng.randint(1, len(pool)))
        g = Graph(n, edges)
        cg = build_conflict_graph(g)
        got = {
            (e, f)
            for e in range(g.m)
            for f in cg.sees[e]
            if e < f
        }
        assert got == oracles.sees_pairs(n, list(g.edges))
        assert cg.n == g.m


def _reference_g6(n, edges):
    # independent short-form encoder: chr(n+63), then the upper triangle
    # read column by column, packed big-endian into 6-bit chunks
    eset = {(min(u, v), max(u, v)) for u, v in edges}
    bits = ""
    for j in range(1, n):
        for i in range(j):
            bits += "1" if (i, j) in eset else "0"
    bits += "0" * (-len(bits) % 6)
    out = chr(n + 63)
    for i in range(0, len(bits), 6):
        out += chr(int(bits[i : i + 6], 2) + 63)
    return out


def test_graph6_encoding_matches_reference():
    rng = random.Random(18)
    cases = [
        (0, []),
        (1, []),
        (2, [(0, 1)]),
        oracles.cycle(5),
        oracles.complete(4),
        oracles.star(6),
        oracles.petersen(),
        (62, [(0, 61), (30, 31)]),
    ] + [
        (n, list(random_graph(rng, n, p).edges))
        for n in range(10, 63)
        for p in (0.05, 0.5, 0.95)
    ]
    for n, edges in cases:
        g = Graph(n, edges)
        assert to_graph6(g) == _reference_g6(n, edges)
        assert parse_graph6(_reference_g6(n, edges)).edges == g.edges


@given(
    st.integers(1, 9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                .filter(lambda e: e[0] != e[1])
                .map(lambda e: (min(e), max(e))),
                max_size=n * (n - 1) // 2,
            ),
        )
    )
)
def test_graph6_roundtrip(case):
    n, edges = case
    g = Graph(n, list(edges))
    h = parse_graph6(to_graph6(g))
    assert h.n == g.n and h.edges == g.edges


def test_graph6_roundtrip_corpus(corpus6):
    for g in corpus6:
        assert parse_graph6(to_graph6(g)).edges == g.edges


def test_graph6_is_kept_on_the_graph(corpus7):
    # parsed graphs keep their record and encoded ones their string; both
    # must be the one encoding a fresh graph gets, and survive pickling
    for g in corpus7:
        s = to_graph6(g)
        assert s == _reference_g6(g.n, g.edges)
        assert to_graph6(Graph(g.n, g.edges)) == s
        assert to_graph6(parse_graph6(s)) == s
        h = parse_graph6(s.encode() + b"\r\n")
        assert type(to_graph6(h)) is str and to_graph6(h) == s
        for x in (h, Graph(g.n, g.edges)):
            y = pickle.loads(pickle.dumps(x))
            assert y == x == g and hash(y) == hash(x) == hash(g)
            assert to_graph6(y) == s


def test_graph6_errors_carry_offsets():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6("D" + chr(30))  # byte below the printable range
    with pytest.raises(Graph6Error):
        parse_graph6("DUWW")  # trailing garbage
    with pytest.raises(Graph6Error):
        parse_graph6("D")  # truncated bit field
    with pytest.raises(Graph6Error, match="length byte 62 out of range") as info:
        parse_graph6(chr(62))  # length byte below the printable range
    assert info.value.offset == 0
    with pytest.raises(Graph6Error, match="long-form") as info:
        parse_graph6("~??~")  # the long form's n = 63
    assert info.value.offset == 0
    # the short form reaches n = 62 only
    with pytest.raises(ValueError, match="requires n <= 62, got 63"):
        to_graph6(Graph(63, []))
    err = None
    try:
        parse_graph6("DU" + chr(127))
    except Graph6Error as exc:
        err = exc
    assert err is not None and err.offset == 2
    # a non-ASCII character is an error at its offset, not a data byte
    with pytest.raises(Graph6Error) as info:
        parse_graph6("A\u00e9")
    assert info.value.offset == 1
    # nonzero padding is an error at the last data byte: n = 2 has one
    # pair bit and five padding bits, n = 5 ten pair bits and two padding
    with pytest.raises(Graph6Error, match="nonzero padding bits") as info:
        parse_graph6("A" + chr(64))
    assert info.value.offset == 1
    with pytest.raises(Graph6Error, match="nonzero padding bits") as info:
        parse_graph6("D" + chr(63) + chr(64))
    assert info.value.offset == 2
    # n = 4 fills its one data byte with six pair bits, so no padding
    assert parse_graph6("C" + chr(63 + 63)) == Graph(*oracles.complete(4))


def test_parse_edge_list():
    g = parse_edge_list("n=5\n0 1\n1 2 # comment\n\n# full comment\n2 3\n")
    assert g.n == 5 and g.edges == ((0, 1), (1, 2), (2, 3))
    assert parse_edge_list("0 1\n1 2\n").n == 3
    assert parse_edge_list("").n == 0
    for bad in ("0 0\n", "0 1\n1 0\n", "0\n", "a b\n", "-1 2\n", "n=2\n0 3\n"):
        with pytest.raises(ValueError):
            parse_edge_list(bad)
    with pytest.raises(ValueError, match=r"^line 2: bad vertex count 'n=five'$"):
        parse_edge_list("# header\nn=five\n0 1\n")
    with pytest.raises(ValueError, match=r"^line 1: n not in 0\.\.1000000$"):
        parse_edge_list("n=-1\n")
    with pytest.raises(ValueError, match=r"^line 1: vertex id not in 0\.\.999999$"):
        parse_edge_list("-1 2\n")
    # ids and counts are ASCII decimal: no underscores, no '+', no other
    # scripts' digits (int() alone takes all three)
    with pytest.raises(ValueError, match=r"^line 1: bad vertex count 'n=1_0'$"):
        parse_edge_list("n=1_0\n+0 \u0663\n")
    for line in ("+0 1", "0 \u0663", "0 1_0"):
        with pytest.raises(ValueError, match=r"^line 2: non-integer id in "):
            parse_edge_list(f"n=20\n{line}\n")
    assert parse_edge_list("n= 5\n-0 1\n").n == 5


def test_edge_list_vertex_count_has_a_ceiling():
    # one past the ceiling, declared or implied by an id, is refused with
    # its line number before any per-vertex list is built
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^line 1: n not in 0\.\.1000000$"):
            parse_edge_list(f"n={10**6 + 1}\n0 1\n")
        with pytest.raises(ValueError, match=r"^line 2: vertex id not in 0\.\.999999$"):
            parse_edge_list(f"0 1\n0 {10**6}\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert graph_module.MAX_VERTICES == 10**6
