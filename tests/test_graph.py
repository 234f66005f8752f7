"""Core graph container, seeing relation, and the two file formats."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strongedge import (
    Graph,
    Graph6Error,
    build_conflict_graph,
    delete_vertex,
    edge_sees,
    is_connected,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)


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


def test_rejects_malformed_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
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
    h, mapping = delete_vertex(g, 2)
    assert h.n == 4
    assert mapping == {0: 0, 1: 1, 3: 2, 4: 3}
    assert h.edges == ((0, 1), (1, 2), (2, 3))
    with pytest.raises(ValueError):
        delete_vertex(g, 5)


def test_edge_sees_matches_line_graph_distance(rng):
    for _ in range(30):
        n = rng.randint(2, 7)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = rng.sample(pool, k=rng.randint(1, len(pool)))
        g = Graph(n, edges)
        for e1 in range(g.m):
            for e2 in range(g.m):
                assert edge_sees(g, e1, e2) == oracles.sees(
                    n, list(g.edges), e1, e2
                )


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
    cases = [
        (1, []),
        (2, [(0, 1)]),
        oracles.cycle(5),
        oracles.complete(4),
        oracles.star(6),
        oracles.petersen(),
        (62, [(0, 61), (30, 31)]),
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


def test_parse_edge_list():
    g = parse_edge_list("n=5\n0 1\n1 2 # comment\n\n# full comment\n2 3\n")
    assert g.n == 5 and g.edges == ((0, 1), (1, 2), (2, 3))
    assert parse_edge_list("0 1\n1 2\n").n == 3
    assert parse_edge_list("").n == 0
    for bad in ("0 0\n", "0 1\n1 0\n", "0\n", "a b\n", "-1 2\n", "n=2\n0 3\n"):
        with pytest.raises(ValueError):
            parse_edge_list(bad)
