"""Configuration catalog: matching, deduplication, and recipe replay."""

import collections
import hashlib
import itertools
import json

import pytest

import oracles
from conftest import random_graph
from strongedge import (
    ClassLabel,
    ConfigurationMatch,
    Graph,
    PartialColoring,
    Scheme,
    build_conflict_graph,
    catalog,
    classify,
    find_configurations,
    is_valid_strong_coloring,
    match_satisfies,
    parse_graph6,
    to_graph6,
    verify_reducibility,
)
from strongedge import patterns as patterns_module
from strongedge.patterns import (
    OUT,
    Case,
    Pattern,
    PatternVertex,
    _pattern,
    _pattern_automorphisms,
    _search_plan,
    _symmetry_conditions,
)

THETA7_IDS = [
    "deg-outside-234",
    "deg2-bad-neighbor",
    "deg3d-pair-low-support",
    "deg4-two-deg2",
    "triangle",
    "four-cycle-3d",
    "five-cycle-3d",
    "pan-3d",
    "deg3d-two-weak",
    "deg3d-weak-moderate",
]

THETA8_IDS = [
    "deg-outside-345",
    "deg3-pair-missing-deg5",
    "deg4-four-deg3",
    "deg3d-non-b-support",
    "deg4d-bad-neighbor",
    "triangle-4c",
    "triangle-deg3",
    "four-cycle-4c",
    "deg4cweak-two-4c",
    "deg5-two-bweak",
]

# companion graph whose 13-colorability refutation, replayed beside the
# triangle's remaining edge, needs 4895 branch nodes, so a zero budget
# trips the solver's poll
_SLOW_EDGES = [
    (0, 2), (0, 6), (0, 7), (0, 10), (1, 3), (1, 8), (1, 9), (1, 10),
    (1, 13), (2, 5), (2, 6), (2, 12), (2, 13), (3, 5), (3, 8), (3, 9),
    (3, 10), (4, 6), (4, 7), (4, 10), (5, 8), (5, 9), (5, 12), (6, 7),
    (7, 8), (7, 12), (8, 11), (8, 13), (9, 10), (9, 13), (12, 13),
]


def test_catalog_shape():
    for scheme, ids in [(Scheme.THETA7, THETA7_IDS), (Scheme.THETA8, THETA8_IDS)]:
        pats = catalog(scheme)
        assert [p.id for p in pats] == ids
        for p in pats:
            assert p.scheme is scheme
            assert p.vertices
            assert isinstance(p.recipe, tuple) and p.recipe
            assert all(isinstance(case, Case) for case in p.recipe)
            names = {pv.name for pv in p.vertices}
            assert len(names) == len(p.vertices)
            for u, v in p.edges + p.nonedges:
                assert u in names and v in names and u != v
    with pytest.raises(ValueError):
        catalog("theta9")


_PATH = (PatternVertex("x"), PatternVertex("y"), PatternVertex("z"))
_PATH_EDGES = (("x", "y"), ("y", "z"))


@pytest.mark.parametrize(
    "recipe, reason",
    [
        ((Case("w"),), "unknown slot"),
        ((Case("x", ceilings=((("w", OUT), 9),)),), "unknown slot"),
        ((Case("x", when=(("w", 3),)), Case("x")), "unknown slot"),
        ((Case("y", (("x", "z"),)),), "not a pattern edge"),
        ((Case("x", ceilings=((("x", "z"), 9),)),), "not a pattern edge"),
        ((Case("x", (("x", "y"),)),), "is deleted"),
        ((Case("x", when=(("x", 3),)),), "last recipe case"),
        ((), "last recipe case"),
    ],
    ids=[
        "unknown-delete", "unknown-ceiling-slot", "unknown-when-slot",
        "erase-non-edge", "ceiling-non-edge", "erase-at-deleted",
        "last-case-has-when", "no-case",
    ],
)
def test_pattern_rejects_bad_recipe(recipe, reason):
    with pytest.raises(ValueError, match=reason):
        _pattern("bad", Scheme.THETA8, "", _PATH, _PATH_EDGES, (), recipe)
    good = (Case("x", (("y", "z"),), ((("x", OUT), 9, 8),)),)
    assert _pattern("ok", Scheme.THETA8, "", _PATH, _PATH_EDGES, (), good)


def _satisfies_local(g, pattern, labels, mapping):
    """Fresh constraint checker, independent of the library code paths.

    Slots missing from the mapping are unplaced: every constraint that
    involves one is skipped, so a partial placement can be tested.
    """
    hosts = list(mapping.values())
    if len(set(hosts)) != len(hosts):
        return False
    for pv in pattern.vertices:
        if pv.name not in mapping:
            continue
        h = mapping[pv.name]
        d = g.degree(h)
        lab = labels.get(h, ClassLabel.UNCLASSIFIED)
        if pv.degree is not None and d != pv.degree:
            return False
        if pv.degree_in is not None and d not in pv.degree_in:
            return False
        if pv.degree_not_in is not None and d in pv.degree_not_in:
            return False
        if pv.classes_in is not None and lab not in pv.classes_in:
            return False
        if pv.classes_not_in is not None and lab in pv.classes_not_in:
            return False
    for u, v in pattern.edges:
        if u in mapping and v in mapping and not g.has_edge(mapping[u], mapping[v]):
            return False
    for u, v in pattern.nonedges:
        if u in mapping and v in mapping and g.has_edge(mapping[u], mapping[v]):
            return False
    return True


def _brute_automorphisms(pattern):
    """Slot permutations that preserve every slot's constraints and map
    the edge and nonedge sets onto themselves, by a full sweep."""
    p = len(pattern.vertices)
    sigs = [pv[1:] for pv in pattern.vertices]
    idx = {pv.name: i for i, pv in enumerate(pattern.vertices)}
    eset = {frozenset((idx[u], idx[v])) for u, v in pattern.edges}
    nset = {frozenset((idx[u], idx[v])) for u, v in pattern.nonedges}
    return [
        perm
        for perm in itertools.permutations(range(p))
        if all(sigs[i] == sigs[perm[i]] for i in range(p))
        and {frozenset(perm[x] for x in e) for e in eset} == eset
        and {frozenset(perm[x] for x in e) for e in nset} == nset
    ]


def _placements(g, pattern, labels, prefix=()):
    """Every injective placement that satisfies all constraints.  Slots
    are filled in declaration order, and a prefix is extended only while
    it satisfies the constraints among its own slots, which every full
    match satisfies too."""
    names = [pv.name for pv in pattern.vertices]
    if len(prefix) == len(names):
        yield prefix
        return
    for h in range(g.n):
        combo = prefix + (h,)
        if _satisfies_local(g, pattern, labels, dict(zip(names, combo))):
            yield from _placements(g, pattern, labels, combo)


def _brute_matches(g, scheme, patterns=None):
    """All catalog matches by exhaustive injective placement, canonical
    under slot permutations that preserve the pattern's structure."""
    labels = classify(g, scheme).labels
    out = set()
    for pattern in catalog(scheme) if patterns is None else patterns:
        p = len(pattern.vertices)
        autos = _brute_automorphisms(pattern)
        for combo in _placements(g, pattern, labels):
            canon = min(tuple(combo[perm[i]] for i in range(p)) for perm in autos)
            out.add((pattern.id, canon))
    return out


def _match_keys(found):
    return {(m.pattern_id, tuple(h for _, h in m.assignment)) for m in found}


@pytest.mark.parametrize("scheme", [Scheme.THETA7, Scheme.THETA8])
def test_matcher_against_exhaustive_placement(rng, scheme):
    cases = [
        Graph(*oracles.complete(3)),
        Graph(*oracles.cycle(5)),
        Graph(*oracles.cycle(6)),
        Graph(*oracles.star(4)),
        Graph(*oracles.complete_bipartite(3, 4)),
    ]
    for _ in range(12):
        cases.append(random_graph(rng, rng.randint(3, 7), rng.choice([0.3, 0.5, 0.8])))
    # hosts past n = 7, where placements far outnumber matches
    cases.append(Graph(*oracles.petersen()))
    cases.append(_union(oracles.complete(4), oracles.cycle(6)))
    for _ in range(4):
        cases.append(random_graph(rng, rng.randint(9, 11), rng.choice([0.25, 0.4])))
    for g in cases:
        labels = classify(g, scheme).labels
        found = find_configurations(g, scheme, labels)
        got = _match_keys(found)
        assert got == _brute_matches(g, scheme)
        assert len(got) == len(found)  # no duplicates survive


# sha256 of the rows below, taken before the matcher's neighbor sets,
# signature groups and candidate pools became bitmasks
MATCH_COUNT = 18811
MATCH_DIGEST = "c0dbaa136a58b2c45b773d34a7d3e45574ed79c267a70a31cb9a0f2a3ac4e74a"


def test_matches_pinned(corpus7):
    # every match of every connected graph with n <= 7 under both schemes,
    # in find_configurations' order
    rows = []
    for g in corpus7:
        for scheme in Scheme:
            for m in find_configurations(g, scheme, classify(g, scheme).labels):
                rows.append(
                    [to_graph6(g), scheme.value, m.pattern_id, m.assignment,
                     m.edge_witnesses]
                )
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert (len(rows), digest) == (MATCH_COUNT, MATCH_DIGEST)


def test_search_plans_follow_pattern_edges(rng):
    _search_plan.cache_clear()
    patterns = catalog(Scheme.THETA7) + catalog(Scheme.THETA8)
    for pattern in patterns:
        plan = _search_plan(pattern)
        names = [pv.name for pv in pattern.vertices]
        assert sorted(step.slot for step in plan) == list(range(len(names)))
        assert plan[0].adjacent == ()
        edges, nonedges = set(), set()
        for d, step in enumerate(plan):
            earlier = {s.slot for s in plan[:d]}
            if d:
                assert step.adjacent, pattern.id
            assert set(step.adjacent) | set(step.apart) <= earlier
            edges |= {frozenset((names[step.slot], names[j])) for j in step.adjacent}
            nonedges |= {frozenset((names[step.slot], names[j])) for j in step.apart}
        # every pattern edge and nonedge is checked exactly where its
        # later slot is placed
        assert edges == {frozenset(e) for e in pattern.edges}
        assert nonedges == {frozenset(e) for e in pattern.nonedges}
    hosts = [Graph(*oracles.petersen()), Graph(*oracles.complete(4))]
    hosts += [random_graph(rng, 8, 0.4) for _ in range(3)]
    for g in hosts:
        for scheme in (Scheme.THETA7, Scheme.THETA8):
            find_configurations(g, scheme, classify(g, scheme).labels)
    info = _search_plan.cache_info()
    assert info.misses == len(patterns)
    assert info.hits >= len(hosts)


# the second slot has only a nonedge to the first, so its step has no
# adjacent slot and draws from all of its candidates; the third draws
# from the neighbors of the second's host
_APART = Pattern(
    "apart",
    Scheme.THETA7,
    "a 2-vertex and a nonadjacent 3-vertex with a neighbor of its own",
    (
        PatternVertex("u", degree=2),
        PatternVertex("v", degree=3),
        PatternVertex("w"),
    ),
    (("v", "w"),),
    (("u", "v"),),
    None,
)


def test_matcher_without_anchor(rng, monkeypatch):
    plan = _search_plan(_APART)
    assert [step.slot for step in plan] == [0, 1, 2]
    step = plan[1]
    assert (step.slot, step.adjacent, step.apart) == (1, (), (0,))
    assert plan[2].adjacent[0] == 1
    # no symmetry but the identity, so no step is bounded
    assert all(s.above == () and s.below == () for s in plan)
    monkeypatch.setattr(patterns_module, "catalog", lambda scheme: [_APART])
    cases = [
        Graph(*oracles.petersen()),
        Graph(*oracles.star(3)),
        _union(oracles.cycle(5), oracles.star(3)),
    ]
    cases += [random_graph(rng, rng.randint(4, 9), 0.35) for _ in range(8)]
    total = 0
    for g in cases:
        labels = classify(g, Scheme.THETA7).labels
        found = find_configurations(g, Scheme.THETA7, labels)
        assert _match_keys(found) == _brute_matches(g, Scheme.THETA7, [_APART])
        assert len(found) == len(_match_keys(found))
        total += len(found)
    assert total > 0


def test_pattern_symmetry_groups_computed_once(rng, monkeypatch):
    computed = collections.Counter()

    def counting(pattern):
        computed[pattern] += 1
        return _pattern_automorphisms(pattern)

    monkeypatch.setattr(patterns_module, "_pattern_automorphisms", counting)
    _search_plan.cache_clear()
    hosts = [Graph(*oracles.petersen()), Graph(*oracles.cycle(5))]
    hosts += [random_graph(rng, 7, 0.5) for _ in range(3)]
    for g in hosts:
        for scheme in (Scheme.THETA7, Scheme.THETA8):
            find_configurations(g, scheme, classify(g, scheme).labels)
    patterns = catalog(Scheme.THETA7) + catalog(Scheme.THETA8)
    assert len(patterns) == 20
    # the group is read only when a pattern's plan, which holds its
    # symmetry conditions, is built; every later host reuses the plan
    assert computed == collections.Counter(patterns)
    assert _search_plan.cache_info().hits >= len(patterns) * (len(hosts) - 1)
    for pattern in patterns:
        group = _pattern_automorphisms(pattern)
        brute = _brute_automorphisms(pattern)
        assert len(group) == len(set(group))
        assert set(group) == set(brute), pattern.id


def _ring(pid, k, nonedges=()):
    """An unconstrained pattern on slots s0..s(k-1) joined in a cycle."""
    names = [f"s{i}" for i in range(k)]
    return Pattern(
        pid,
        Scheme.THETA7,
        f"a {k}-cycle of unconstrained slots",
        tuple(PatternVertex(x) for x in names),
        tuple((names[i], names[(i + 1) % k]) for i in range(k)),
        tuple(nonedges),
        None,
    )


# C5 with no slot constraints: a dihedral group, where the stabilizer of
# slot 0 still swaps slots 1 and 4
_C5 = _ring("c5", 5)
# C4 with both diagonals as nonedges: the induced 4-cycle
_C4 = _ring("c4", 4, [("s0", "s2"), ("s1", "s3")])
# K4: the full symmetric group on its slots
_K4 = Pattern(
    "k4",
    Scheme.THETA7,
    "four pairwise adjacent slots",
    tuple(PatternVertex(x) for x in "abcd"),
    tuple(itertools.combinations("abcd", 2)),
    (),
    None,
)
# a 5-path with slot 0 at its center and nonedges from the center to both
# ends; the plan places end e4 before end e1, so the condition between
# them bounds e1 from above
_P5 = Pattern(
    "p5",
    Scheme.THETA7,
    "a 5-path around its center slot",
    tuple(PatternVertex(x) for x in ("c", "e1", "m2", "m3", "e4")),
    (("c", "m2"), ("c", "m3"), ("m3", "e1"), ("m2", "e4")),
    (("c", "e1"), ("c", "e4")),
    None,
)
_SYNTHETIC = [_C5, _C4, _K4, _P5]


def test_symmetry_conditions_keep_least_image(rng):
    patterns = catalog(Scheme.THETA7) + catalog(Scheme.THETA8) + _SYNTHETIC
    for pattern in patterns:
        p = len(pattern.vertices)
        autos = _brute_automorphisms(pattern)
        conditions = _symmetry_conditions(pattern)
        for _ in range(40):
            vec = tuple(rng.sample(range(3 * p), p))
            images = {tuple(vec[s[i]] for i in range(p)) for s in autos}
            assert len(images) == len(autos)
            kept = [
                w for w in images if all(w[i] < w[j] for i, j in conditions)
            ]
            assert kept == [min(images)], pattern.id
    assert len(_symmetry_conditions(_K4)) == 6
    assert _symmetry_conditions(_C5) == ((0, 1), (0, 2), (0, 3), (0, 4), (1, 4))
    # every condition is checked once, at the later of its two slots
    for pattern in patterns:
        plan = _search_plan(pattern)
        placed = {
            (j, s.slot) for s in plan for j in s.above
        } | {(s.slot, j) for s in plan for j in s.below}
        assert sorted(placed) == sorted(_symmetry_conditions(pattern))
    assert any(s.below for s in _search_plan(_P5))


@pytest.mark.parametrize("pattern", _SYNTHETIC, ids=lambda p: p.id)
def test_matcher_on_symmetric_patterns(rng, monkeypatch, pattern):
    monkeypatch.setattr(patterns_module, "catalog", lambda scheme: [pattern])
    cases = [
        Graph(*oracles.petersen()),
        Graph(*oracles.complete(5)),
        Graph(*oracles.complete_bipartite(3, 3)),
        _union(oracles.cycle(5), oracles.cycle(4)),
    ]
    cases += [random_graph(rng, rng.randint(5, 9), 0.5) for _ in range(6)]
    total = 0
    for g in cases:
        labels = classify(g, Scheme.THETA7).labels
        found = find_configurations(g, Scheme.THETA7, labels)
        assert _match_keys(found) == _brute_matches(g, Scheme.THETA7, [pattern])
        assert len(found) == len(_match_keys(found))
        total += len(found)
    assert total > 0


def test_matches_are_sorted_and_verifiable():
    g = Graph(*oracles.petersen())
    labels = classify(g, Scheme.THETA7).labels
    found = find_configurations(g, Scheme.THETA7, labels)
    keys = [(m.pattern_id, tuple(h for _, h in m.assignment)) for m in found]
    assert keys == sorted(keys)
    assert found == find_configurations(g, Scheme.THETA7, labels)
    for m in found[:20]:
        assert match_satisfies(g, _pattern_of(m), labels, dict(m.assignment))
        for (u, v) in m.edge_witnesses:
            assert u < v and g.has_edge(u, v)


def _pattern_of(m):
    for scheme in (Scheme.THETA7, Scheme.THETA8):
        for p in catalog(scheme):
            if p.id == m.pattern_id:
                return p
    raise AssertionError(m.pattern_id)


def test_known_match_sets():
    g = Graph(*oracles.complete(3))
    labels = classify(g, Scheme.THETA7).labels
    found = find_configurations(g, Scheme.THETA7, labels)
    assert {m.pattern_id for m in found} == {"deg2-bad-neighbor", "triangle"}
    assert sum(1 for m in found if m.pattern_id == "triangle") == 1

    g = Graph(*oracles.cycle(5))
    labels = classify(g, Scheme.THETA7).labels
    found = find_configurations(g, Scheme.THETA7, labels)
    assert {m.pattern_id for m in found} == {"deg2-bad-neighbor"}
    assert len(found) == 10

    g = Graph(*oracles.petersen())
    labels = classify(g, Scheme.THETA7).labels
    found = find_configurations(g, Scheme.THETA7, labels)
    assert {m.pattern_id for m in found} == {
        "deg3d-pair-low-support",
        "five-cycle-3d",
        "pan-3d",
    }
    assert len(found) == 240

    labels = classify(g, Scheme.THETA8).labels
    found = find_configurations(g, Scheme.THETA8, labels)
    assert {m.pattern_id for m in found} == {"deg3-pair-missing-deg5"}


def _first_match(g, scheme, pattern_id):
    labels = classify(g, scheme).labels
    for m in find_configurations(g, scheme, labels):
        if m.pattern_id == pattern_id:
            return m
    raise AssertionError(f"no {pattern_id} match")


def test_replay_extends_triangle():
    g = Graph(*oracles.complete(3))
    m = _first_match(g, Scheme.THETA7, "triangle")
    rep = verify_reducibility(g, m)
    assert rep.verdict == "EXTENDED" and rep.bounds_ok
    assert rep.pattern_id == "triangle" and rep.k == 13
    colors = dict(rep.coloring)
    cg = build_conflict_graph(g)
    pc = PartialColoring(rep.k, [colors[g.endpoints(e)] for e in range(g.m)])
    ok, _ = is_valid_strong_coloring(cg, pc)
    assert ok and pc.is_total()


def test_replay_bound_checks_recomputed():
    g = Graph(*oracles.petersen())
    labels = classify(g, Scheme.THETA7).labels
    found = find_configurations(g, Scheme.THETA7, labels)
    for m in found[:6]:
        rep = verify_reducibility(g, m)
        assert rep.verdict in ("EXTENDED", "VACUOUS")
        assert rep.bounds_ok
        pairs = oracles.sees_pairs(g.n, list(g.edges))
        seen = {}
        for a, b in pairs:
            seen.setdefault(a, set()).add(b)
            seen.setdefault(b, set()).add(a)
        eid = {g.endpoints(e): e for e in range(g.m)}
        erased = {eid[e] for e in rep.erased}
        for b in rep.bounds:
            assert b.phase in ("pre", "post") and b.edge[0] < b.edge[1]
            survivors = {
                f
                for f in seen.get(eid[b.edge], set())
                if rep.deleted not in g.endpoints(f)
            }
            if b.phase == "post":
                survivors -= erased
            assert b.observed == len(survivors)
            assert b.ok == (b.observed <= b.asserted)


def test_replays_classify_and_build_each_host_once(monkeypatch):
    # replaying every match of one host classifies it and builds its
    # conflict graph once; each g - v restricts that conflict graph
    g = Graph(*oracles.petersen())
    found = find_configurations(g, Scheme.THETA7, classify(g, Scheme.THETA7).labels)
    patterns_module._host_tables.cache_clear()
    fresh = []
    for m in found:
        fresh.append(verify_reducibility(g, m))
        patterns_module._host_tables.cache_clear()
    calls = {"classify": 0, "build": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(patterns_module, "classify", counted("classify", classify))
    monkeypatch.setattr(
        patterns_module, "build_conflict_graph", counted("build", build_conflict_graph)
    )
    replays = [verify_reducibility(Graph(g.n, g.edges), m) for m in found]
    assert calls == {"classify": 1, "build": 1}
    strip = [r._replace(time_ms=0) for r in replays]
    assert strip == [r._replace(time_ms=0) for r in fresh]


def test_out_edges_may_reach_matched_slots():
    # OUT at x is every host edge at x's host that no pattern edge at x
    # covers: here z1 and z2 are matched slots adjacent to x's host, and
    # their edges to it get the outside ceilings
    g = parse_graph6("Eu}g")
    m = _first_match(g, Scheme.THETA8, "deg5-two-bweak")
    assert m.assignment == (("x", 0), ("y1", 1), ("y2", 2), ("z1", 3), ("z2", 5))
    rep = verify_reducibility(g, m)
    assert rep.erased == ((1, 3), (2, 5))
    ceilings = {(b.edge, b.phase): b.asserted for b in rep.bounds}
    for edge in ((0, 3), (0, 4), (0, 5)):
        assert ceilings[edge, "pre"] == 18 and ceilings[edge, "post"] == 16


def test_replay_rejects_tampered_match():
    g = Graph(*oracles.complete(3))
    m = _first_match(g, Scheme.THETA7, "triangle")
    bad = ConfigurationMatch("no-such-pattern", m.assignment)
    with pytest.raises(ValueError):
        verify_reducibility(g, bad)
    slot0 = m.assignment[0][0]
    tampered = ConfigurationMatch(
        m.pattern_id, ((slot0, 99),) + m.assignment[1:]
    )
    with pytest.raises(ValueError):
        verify_reducibility(g, tampered)


def test_match_satisfies_refuses_broken_placements():
    # four-cycle-3d: x1 (a 3D) and the degree-3 slots x2, x3, x4 around a
    # 4-cycle, x1 and x3 apart; pendant edges give 1, 2 and 3 degree 3
    pattern = next(p for p in catalog(Scheme.THETA7) if p.id == "four-cycle-3d")
    cycle = [(0, 1), (1, 2), (2, 3), (3, 0)]
    host = Graph(8, cycle + [(1, 4), (2, 5), (3, 6)])
    labels = {0: ClassLabel.DEG3D}
    place = {"x1": 0, "x2": 1, "x3": 2, "x4": 3}
    assert match_satisfies(host, pattern, labels, place)
    missing = {slot: h for slot, h in place.items() if slot != "x4"}
    assert not match_satisfies(host, pattern, labels, missing)
    assert not match_satisfies(host, pattern, labels, {**place, "x4": 1})
    assert not match_satisfies(host, pattern, {}, place)  # x1 not a 3D
    no_edge = Graph(8, cycle[:3] + [(1, 4), (2, 5), (3, 6), (3, 7)])
    assert not match_satisfies(no_edge, pattern, labels, place)
    chord = Graph(8, cycle + [(1, 4), (3, 6), (0, 2)])
    assert not match_satisfies(chord, pattern, labels, place)


def _union(a_case, b_case):
    an, aedges = a_case
    bn, bedges = b_case
    return Graph(an + bn, list(aedges) + [(u + an, v + an) for u, v in bedges])


def test_replay_vacuous_when_no_base_coloring():
    # a 14-edge star needs 14 colors, so no 13-coloring of g minus v exists
    g = _union(oracles.complete(3), oracles.star(14))
    m = _first_match(g, Scheme.THETA7, "triangle")
    rep = verify_reducibility(g, m)
    assert rep.verdict == "VACUOUS"
    assert rep.coloring is None and rep.strategy is None
    assert rep.bounds_ok  # structural counts hold regardless


def test_replay_timeout_is_reported():
    g = _union(oracles.complete(3), (14, _SLOW_EDGES))
    m = _first_match(g, Scheme.THETA7, "triangle")
    rep = verify_reducibility(g, m, budget=0.0)
    assert rep.verdict == "TIMEOUT"
    assert rep.coloring is None and rep.nodes == 1024
    full = verify_reducibility(g, m, budget=60.0)
    assert full.verdict == "VACUOUS"  # the companion defeats 13 colors
