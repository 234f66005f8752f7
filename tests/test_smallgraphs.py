"""Connected-graph enumeration: counts, distinctness, completeness."""

import hashlib
import itertools
import random
from collections import Counter
from math import factorial

import pytest

import oracles
from conftest import random_graph
from strongedge import (
    CONNECTED_COUNTS,
    MAX_N,
    enumerate_connected,
    is_connected,
    smallgraphs,
    to_graph6,
)
from strongedge.smallgraphs import (
    _canonical_key,
    _edges,
    _orbit_leaders,
    _partition,
    _refine,
)

# labeled connected graphs on n vertices, for the Burnside cross-check
_LABELED_CONNECTED = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}


def test_counts_match_table():
    assert CONNECTED_COUNTS == {
        1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117, 9: 261080,
    }
    for n in range(1, 8):
        assert sum(1 for _ in enumerate_connected(n)) == CONNECTED_COUNTS[n]


def test_enumerated_graphs_are_connected_and_sized():
    for n in range(1, 7):
        for g in enumerate_connected(n):
            assert g.n == n
            assert is_connected(g)


def _labeled_connected_count(n):
    pairs = list(itertools.combinations(range(n), 2))
    count = 0
    for mask in range(1 << len(pairs)):
        adj = [[] for _ in range(n)]
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                adj[u].append(v)
                adj[v].append(u)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == n:
            count += 1
    return count


def test_labeled_count_table_is_right():
    for n in range(1, 6):
        assert _labeled_connected_count(n) == _LABELED_CONNECTED[n]


def _automorphism_count(g):
    eset = set(g.edges)
    count = 0
    for perm in itertools.permutations(range(g.n)):
        if all(
            ((perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u]))
            in eset
            for u, v in eset
        ):
            count += 1
    return count


@pytest.mark.parametrize("n", [4, 5, 6])
def test_orbit_sizes_add_up_to_labeled_count(n):
    # each representative stands for n!/|Aut| labeled graphs; together the
    # orbits must tile the labeled connected graphs exactly
    total = 0
    for g in enumerate_connected(n):
        total += factorial(n) // _automorphism_count(g)
    assert total == _LABELED_CONNECTED[n]


def test_representatives_pairwise_nonisomorphic():
    for n in range(1, 6):
        forms = set()
        for g in enumerate_connected(n):
            forms.add(oracles.canonical_form(g.n, list(g.edges)))
        assert len(forms) == CONNECTED_COUNTS[n]

    buckets = {}
    for g in enumerate_connected(6):
        key = (g.m, tuple(sorted(g.degree(v) for v in range(6))))
        buckets.setdefault(key, []).append(g)
    for group in buckets.values():
        for a, b in itertools.combinations(group, 2):
            assert not oracles.are_isomorphic(
                a.n, list(a.edges), b.n, list(b.edges)
            )


def test_max_edges_equals_post_filtering():
    for n in range(1, 8):
        everything = list(enumerate_connected(n))
        for cap in (n - 1, n, n + 2):
            capped = list(enumerate_connected(n, max_edges=cap))
            expect = [g for g in everything if g.m <= cap]
            assert [g.edges for g in capped] == [g.edges for g in expect]


# edge caps as max_edges - n, None for no cap
_SLACKS = (None, -1, 0, 2)


def _capped(n, slack):
    return [
        g.edges
        for g in enumerate_connected(n, None if slack is None else n + slack)
    ]


def test_pre_test_keeps_the_stream(monkeypatch):
    # a candidate the pre-test skips is never the first of its class, so
    # computing every candidate's key instead must give the same stream
    real = smallgraphs._reached_earlier
    skips = Counter()

    def recorded(*args):
        answer = real(*args)
        skips[slack] += answer
        return answer

    monkeypatch.setattr(smallgraphs, "_reached_earlier", recorded)
    with_pre_test = {}
    for n in range(1, 8):
        for slack in _SLACKS:
            with_pre_test[n, slack] = _capped(n, slack)
    # a pre-test that skips nothing would pass the comparison below
    assert all(skips[slack] > 0 for slack in _SLACKS)
    monkeypatch.setattr(smallgraphs, "_reached_earlier", lambda *args: False)
    for (n, slack), edges in with_pre_test.items():
        assert _capped(n, slack) == edges


def test_pre_test_needs_an_earlier_connected_remainder():
    # the path 0-1-2 with 2 the added vertex: without 1 it falls apart into
    # two isolated vertices, without 0 it is one edge
    adj = _adjacency(3, [(0, 1), (1, 2)])[0]
    unit = smallgraphs._UNIT
    path = 2 * unit[1][0] + unit[2][0]
    isolated, edge = 2 * unit[0][0], 2 * unit[1][0]

    def reached(top):
        return smallgraphs._reached_earlier(top, 1, adj, [0, 0, 0], path)

    assert not reached({isolated: 0})
    assert reached({edge: 0})
    # a parent at the candidate's own position is not earlier
    assert not reached({edge: 1})


def _invariant(adj, vertices):
    # from scratch: each vertex's degree and the edges among its
    # neighbours, in the subgraph induced on `vertices`
    inside = sum(1 << v for v in vertices)
    pairs = Counter()
    for v in vertices:
        near = adj[v] & inside
        edges_among = sum((adj[u] & near).bit_count() for u in smallgraphs._bits(near))
        pairs[near.bit_count(), edges_among // 2] += 1
    return sum(count * smallgraphs._UNIT[d][t] for (d, t), count in pairs.items())


def test_invariant_packs_each_pair_in_its_own_slot():
    # 4 bits per (degree, triangles) pair with triangles <= C(degree, 2):
    # at most MAX_N vertices share a slot, so a sum of units never carries
    units = sorted(u for row in smallgraphs._UNIT for u in row)
    assert units == [16**slot for slot in range(93)]
    assert MAX_N < 16


def test_invariant_is_updated_exactly(monkeypatch):
    # the invariant of every candidate, and that of each C - w the
    # pre-test looks up, equals a count from scratch on the induced
    # subgraph, whatever the labelling
    rng = random.Random(15)
    real = smallgraphs._reached_earlier
    looked = []
    counts = Counter()

    class EveryParentEarlier(dict):
        # sends every w on to the connectivity test below
        def get(self, key, default):
            looked.append(key)
            return -1

    def probe_remainder(adj, w):
        assert looked.pop() == _invariant(adj, [v for v in range(len(adj)) if v != w])
        counts["removed"] += 1
        return False

    def probe(top, index, adj, triangles, invariant):
        n = len(adj)
        assert invariant == _invariant(adj, range(n))
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            moved = [0] * n
            for v in range(n):
                for u in smallgraphs._bits(adj[v]):
                    moved[perm[v]] |= 1 << perm[u]
            assert _invariant(moved, range(n)) == invariant
        assert not real(EveryParentEarlier(), index, adj, triangles, invariant)
        counts["old vertices"] += n - 1
        # skipping nothing keeps the stream (test_pre_test_keeps_the_stream)
        return False

    monkeypatch.setattr(smallgraphs, "_connected_without", probe_remainder)
    monkeypatch.setattr(smallgraphs, "_reached_earlier", probe)
    for n in range(2, 7):
        assert sum(1 for _ in enumerate_connected(n)) == CONNECTED_COUNTS[n]
    # every old vertex of every candidate was removed once
    assert counts["removed"] == counts["old vertices"] > 0
    assert not looked


def test_lazy_keys_keep_the_stream(monkeypatch):
    # a candidate alone in its invariant's bucket is a new class, so
    # keying every candidate instead must give the same stream
    keys = Counter()
    real = smallgraphs._canonical_key

    def counted(*args):
        keys[mode, slack] += 1
        return real(*args)

    monkeypatch.setattr(smallgraphs, "_canonical_key", counted)
    streams = {}
    for mode in ("lazy", "every"):
        if mode == "every":
            # one bucket for every invariant: each candidate gets a key
            monkeypatch.setattr(smallgraphs, "_BUCKET_PRIME", 1)
        for n in range(1, 8):
            for slack in _SLACKS:
                streams[mode, n, slack] = _capped(n, slack)
    for n in range(1, 8):
        for slack in _SLACKS:
            assert streams["lazy", n, slack] == streams["every", n, slack]
    # lazy keys that key every candidate anyway would pass the comparison
    assert all(keys["lazy", slack] < keys["every", slack] for slack in _SLACKS)


def test_keys_per_call_are_pinned(monkeypatch):
    # keys go to parents as they are extended (for their automorphisms)
    # and to candidates whose invariant's bucket is already taken
    keys = Counter()
    real = smallgraphs._canonical_key

    def counted(*args):
        keys[n] += 1
        return real(*args)

    monkeypatch.setattr(smallgraphs, "_canonical_key", counted)
    for n in (7, 8):
        assert sum(1 for _ in enumerate_connected(n)) == CONNECTED_COUNTS[n]
    assert keys == {7: 313, 8: 6314}


def test_tree_counts_via_edge_cap():
    trees = [1, 1, 1, 2, 3, 6, 11]
    for n in range(1, 8):
        got = sum(1 for _ in enumerate_connected(n, max_edges=n - 1))
        assert got == trees[n - 1]


def test_generator_is_lazy():
    it = enumerate_connected(7)
    first = next(it)
    assert first.n == 7
    it.close()


def test_range_validation():
    with pytest.raises(ValueError):
        list(enumerate_connected(0))
    with pytest.raises(ValueError):
        list(enumerate_connected(MAX_N + 1))
    assert list(enumerate_connected(2, max_edges=0)) == []


def _stream_digest(lines):
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def test_stream_is_pinned(corpus8):
    # verify --max-n reports list these representatives in this order
    lines = [to_graph6(g) for g in corpus8]
    assert len(lines) == 12113
    assert _stream_digest(lines) == (
        "105326319af5987479bd85a0e0c0067b1016b09e2272b3c520979beeb73c9ca4"
    )
    small = [line for g, line in zip(corpus8, lines) if g.n <= 7]
    assert len(small) == 996
    assert _stream_digest(small) == (
        "124214414385a7728a475fc8cb6c67a3a990fe4572c94a96ce0d66f71ea2eb79"
    )


def _adjacency(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj, [tuple(u for u in range(n) if adj[v] >> u & 1) for v in range(n)]


def test_edges_lists_graph6_pair_order():
    # the canonical key, the level's sort and the emitted graphs all read
    # the edges from the bitmasks: by larger end, then by smaller end
    for n in range(1, 8):
        for g in enumerate_connected(n):
            pairs = sorted(g.edges, key=lambda e: (e[1], e[0]))
            assert _edges(_adjacency(n, g.edges)[0]) == pairs


def _key_and_generators(n, edges):
    return _canonical_key(_adjacency(n, edges)[0])


def _key(n, edges):
    return _key_and_generators(n, edges)[0]


def _relabel(edges, perm):
    return [(perm[u], perm[v]) for u, v in edges]


def _equitable(n, edges):
    nbrs = _adjacency(n, edges)[1]
    return _refine(nbrs, *_partition([len(nb) for nb in nbrs]))


def _circulant(n, steps):
    return sorted({tuple(sorted((v, (v + s) % n))) for v in range(n) for s in steps})


def _complement(n, edges):
    return [e for e in itertools.combinations(range(n), 2) if e not in set(edges)]


def _disjoint_union(*parts):
    edges, offset = [], 0
    for n, part in parts:
        edges += [(u + offset, v + offset) for u, v in part]
        offset += n
    return offset, edges


# vertex-transitive graphs: the degree partition is already equitable
_HYPERCUBE3 = [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b]
_ROOK3 = [
    (u, v)
    for u, v in itertools.combinations(range(9), 2)
    if u // 3 == v // 3 or u % 3 == v % 3
]
_TWO_C4 = _disjoint_union((4, _circulant(4, [1])), (4, _circulant(4, [1])))
_UNSPLIT = {
    "K8": (8, list(itertools.combinations(range(8), 2))),
    "K9": (9, list(itertools.combinations(range(9), 2))),
    "C8": (8, _circulant(8, [1])),
    "C9": (9, _circulant(9, [1])),
    "Q3": (8, _HYPERCUBE3),
    "K4,4": (8, oracles.complete_bipartite(4, 4)[1]),
    "K3xK3": (9, _ROOK3),
    "co-C8": (8, _complement(8, _circulant(8, [1]))),
    "K8-M": (8, _complement(8, [(2 * i, 2 * i + 1) for i in range(4)])),
    "Wagner": (8, _circulant(8, [1, 4])),
}


def test_refinement_is_equitable():
    rng = random.Random(11)
    graphs = [oracles.star(MAX_N - 1)] + [
        (n, list(random_graph(rng, n, p).edges))
        for n in (MAX_N - 1, MAX_N)
        for p in (0.3, 0.5, 0.7, 0.9)
        for _ in range(25)
    ]
    for n, edges in graphs:
        nbrs = _adjacency(n, edges)[1]
        degree = [len(nb) for nb in nbrs]
        color, cells = _equitable(n, edges)
        assert len(set(color)) == cells
        for u, v in itertools.combinations(range(n), 2):
            # cells are ordered by degree first, then split in place
            if degree[u] < degree[v]:
                assert color[u] < color[v]
            if color[u] == color[v]:
                assert sorted(color[w] for w in nbrs[u]) == sorted(
                    color[w] for w in nbrs[v]
                )


def test_canonical_key_is_relabeling_invariant():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, MAX_N)
        g = random_graph(rng, n, rng.choice((0.2, 0.4, 0.6, 0.8)))
        key = _key(n, g.edges)
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            assert _key(n, _relabel(g.edges, perm)) == key


@pytest.mark.parametrize("name", sorted(_UNSPLIT))
def test_canonical_key_on_graphs_refinement_cannot_split(name):
    n, edges = _UNSPLIT[name]
    assert _equitable(n, edges)[1] == 1
    key = _key(n, edges)
    rng = random.Random(name)
    for _ in range(5):
        perm = list(range(n))
        rng.shuffle(perm)
        assert _key(n, _relabel(edges, perm)) == key


@pytest.mark.parametrize(
    "left, right",
    [
        (_UNSPLIT["Q3"], _UNSPLIT["Wagner"]),
        (_UNSPLIT["C8"], _TWO_C4),
        (_UNSPLIT["C9"], _disjoint_union((3, _circulant(3, [1])), (6, _circulant(6, [1])))),
        (_UNSPLIT["K3xK3"], (9, _circulant(9, [1, 2]))),
        (_UNSPLIT["co-C8"], (8, _complement(8, _TWO_C4[1]))),
    ],
)
def test_canonical_key_separates_pairs_refinement_cannot(left, right):
    # same order, size and degree, one equitable cell each: only the
    # search can tell them apart
    assert left[0] == right[0] and len(left[1]) == len(right[1])
    assert _equitable(*left)[1] == _equitable(*right)[1] == 1
    assert not oracles.are_isomorphic(*left, *right)
    assert _key(*left) != _key(*right)


def test_canonical_key_matches_isomorphic_pair():
    # K4,4 is the circulant C8(1, 3): odd steps join the two parities
    assert _key(*_UNSPLIT["K4,4"]) == _key(8, _circulant(8, [1, 3]))


def _group(n, gens):
    identity = tuple(range(n))
    group = {identity}
    stack = [identity]
    while stack:
        p = stack.pop()
        for g in gens:
            q = tuple(g[p[v]] for v in range(n))
            if q not in group:
                group.add(q)
                stack.append(q)
    return group


def test_automorphism_generators_generate_the_group(corpus6):
    for g in corpus6:
        _, gens = _key_and_generators(g.n, g.edges)
        group = _group(g.n, gens)
        assert len(group) == _automorphism_count(g)
        eset = set(g.edges)
        for p in gens:
            assert {tuple(sorted((p[u], p[v]))) for u, v in eset} == eset
        # orbit pruning keeps exactly the least mask of each orbit
        orbits = {
            min(sum(1 << p[v] for v in range(g.n) if mask >> v & 1) for p in group)
            for mask in range(1, 1 << g.n)
        }
        assert list(_orbit_leaders(g.n, gens)) == sorted(orbits)


@pytest.mark.parametrize(
    "name, order", [("C9", 18), ("Q3", 48), ("Wagner", 16), ("K3xK3", 72), ("K4,4", 1152)]
)
def test_automorphism_group_of_unsplit_graphs(name, order):
    n, edges = _UNSPLIT[name]
    assert len(_group(n, _key_and_generators(n, edges)[1])) == order
