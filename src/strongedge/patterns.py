"""Forbidden-structure catalog: patterns, matching, reducibility replay.

A pattern is a small constraint graph: named slots carrying degree or
class requirements, required adjacencies, and required non-adjacencies.
A match is an injective placement of the slots onto host vertices that
satisfies every constraint; `find_configurations` enumerates all matches,
deduplicated up to the pattern's own symmetries.  Two things are
computed once per pattern, since they depend only on the pattern's value
(slots, edges, nonedges), never on the host graph, and a `Pattern` is an
immutable, hashable tuple: its search plan, which is cached, and its
symmetry group, read only while that plan is built.  The plan orders the slots so that each slot's host
candidates are cut down to the neighbors of the hosts of the earlier
slots it has a pattern edge to; in every catalog pattern each slot
after the first has at least one such slot.  The plan also carries the
pattern's symmetry-breaking conditions, host-order constraints
host(i) < host(j) read off a stabilizer chain of the symmetry group
(Grochow and Kellis, RECOMB 2007); each bounds the candidates of the
step that places the later of its two slots, so the search emits only
the lexicographically least placement of each symmetry orbit and never
meets the others.  Per host, each distinct slot constraint is tested
once per (degree, class label) signature, and the host's neighbor sets,
signature groups and candidate pools are integer bitmasks.  Every match
is re-checked against the host on its slot vector before it is kept.
Patterns also carry a replayable recipe: delete one host vertex, color
what remains exactly with its theorem's palette (read from
`classes.THEOREMS`), optionally erase a few edge colors, then extend the
coloring back over the missing edges.  A recipe is data over slot names,
a tuple of `Case` values checked once when the catalog is built, and one
interpreter, `_instantiate`, reads it on a concrete match: it returns
the host vertex to delete, the host edge ids to erase, and the (edge id,
ceiling) rows before and after the erasure.  `verify_reducibility`
replays the result in those ids and compares the observed per-edge
conflict counts with the recipe's ceilings.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from .classes import THEOREMS, THETA7_3C, THETA8_4C, ClassLabel, Scheme, classify
from .coloring import PartialColoring, erase_and_extend, k_colorable
from .graph import ConflictGraph, Graph, build_conflict_graph


# read per host vertex and per match; a module name is cheaper to read
# than the Enum class attribute
_UNCLASSIFIED = ClassLabel.UNCLASSIFIED


class PatternVertex(NamedTuple):
    """One slot of a pattern; None fields are unconstrained."""

    name: str
    degree: object = None  # exact degree
    degree_in: object = None  # frozenset of allowed degrees
    degree_not_in: object = None  # frozenset of forbidden degrees
    classes_in: object = None  # frozenset of allowed labels
    classes_not_in: object = None  # frozenset of forbidden labels


class Pattern(NamedTuple):
    id: str
    scheme: Scheme
    description: str
    vertices: tuple
    edges: tuple  # pairs of slot names that must be adjacent
    nonedges: tuple  # pairs of slot names that must not be adjacent
    recipe: tuple  # Case values; the first whose `when` holds is replayed


OUT = "*"  # the far end of a recipe edge that leaves the pattern


class Case(NamedTuple):
    """One case of a pattern's recipe, written over slot names.

    A recipe is a tuple of cases.  A case holds on a match when every
    (slot, want) pair of its `when` holds: `want` is a degree (an int)
    or a class label that the slot's host must carry.  The first case
    that holds is replayed, so the last case has no `when`.  Roles are
    read from the placement as given: a recipe never sorts hosts, and
    symmetric slots come in ascending host order from the matcher.

    The case deletes the host of slot `delete` and erases the colors of
    the pattern edges in `erase`.  Each row of `ceilings` is
    (edge, pre) or (edge, pre, post): the most edges the named edge may
    see once the deleted vertex is gone, and again once the erased edges
    are uncolored; only cases that erase give a post ceiling.  An edge
    is (slot, slot), a pattern edge, or (slot, OUT), which stands for
    every host edge at the slot's host that no pattern edge at that slot
    covers, in host neighbor order; its far end may be another slot's
    host.  (slot, OUT, d) keeps those whose far end has degree d.
    """

    delete: str
    erase: tuple = ()  # pattern edges, as slot pairs
    ceilings: tuple = ()  # (edge, pre) or (edge, pre, post) rows
    when: tuple = ()  # (slot, degree or ClassLabel) pairs


class ConfigurationMatch(NamedTuple):
    pattern_id: str
    assignment: tuple  # (slot name, host vertex) pairs, in slot order

    @property
    def mapping(self):
        return dict(self.assignment)

    @property
    def edge_witnesses(self):
        """The host edges realizing the pattern edges, each (u, v), u < v."""
        a = self.mapping
        return tuple(
            (a[u], a[v]) if a[u] < a[v] else (a[v], a[u])
            for u, v in _pattern_by_id(self.pattern_id).edges
        )


class BoundCheck(NamedTuple):
    edge: tuple  # host edge (u, v), u < v
    phase: str  # "pre" | "post"
    asserted: int
    observed: int
    ok: bool


class ReducibilityReport(NamedTuple):
    pattern_id: str
    verdict: str  # "EXTENDED" | "NOT_EXTENDED" | "VACUOUS" | "TIMEOUT"
    k: int
    deleted: int
    erased: tuple
    strategy: object  # extension strategy that fired, or None
    bounds: tuple  # BoundCheck records
    bounds_ok: bool
    nodes: int  # branch-and-bound nodes spent coloring g minus v
    time_ms: int
    coloring: object  # ((u, v), color) per edge when EXTENDED, else None
    diagnostics: object  # extension diagnostics dict, or None


def _vertex_ok(pv, deg, label):
    _, degree, degree_in, degree_not_in, classes_in, classes_not_in = pv
    return (
        (degree is None or deg == degree)
        and (degree_in is None or deg in degree_in)
        and (degree_not_in is None or deg not in degree_not_in)
        and (classes_in is None or label in classes_in)
        and (classes_not_in is None or label not in classes_not_in)
    )


def match_satisfies(g, pattern, labels, assignment):
    """Re-check a placement from scratch; True iff every constraint holds."""
    vec = [assignment.get(pv.name) for pv in pattern.vertices]
    if None in vec:
        return False
    return _slots_ok(g, pattern, labels, vec, _slot_pairs(pattern))


@functools.cache
def _slot_pairs(pattern):
    """The pattern's edges and nonedges as slot-index pairs; cached."""
    idx = {pv.name: i for i, pv in enumerate(pattern.vertices)}
    return (
        tuple((idx[u], idx[v]) for u, v in pattern.edges),
        tuple((idx[u], idx[v]) for u, v in pattern.nonedges),
    )


def _slots_ok(g, pattern, labels, vec, pairs):
    """`match_satisfies` on a slot vector: slot i is placed on vec[i], and
    `pairs` is `_slot_pairs(pattern)`.

    Every check is made from g itself, not from the matcher's tables: the
    hosts are distinct and in range, each carries its slot's degree and
    class constraints, and every pattern edge and nonedge is read through
    `g.has_edge`.
    """
    if len(set(vec)) != len(vec):
        return False
    n, degree = g.n, g.degree
    for pv, h in zip(pattern.vertices, vec):
        if not 0 <= h < n:
            return False
        if not _vertex_ok(pv, degree(h), labels.get(h, _UNCLASSIFIED)):
            return False
    edges, nonedges = pairs
    has_edge = g.has_edge
    for i, j in edges:
        if not has_edge(vec[i], vec[j]):
            return False
    for i, j in nonedges:
        if has_edge(vec[i], vec[j]):
            return False
    return True


def _pattern_automorphisms(pattern):
    """Slot permutations preserving constraints, edges, and nonedges.

    Read only when the cached search plan is built, so each catalog group
    is computed once.
    """
    p = len(pattern.vertices)
    idx = {pv.name: i for i, pv in enumerate(pattern.vertices)}
    edges = {frozenset((idx[u], idx[v])) for u, v in pattern.edges}
    nonedges = {frozenset((idx[u], idx[v])) for u, v in pattern.nonedges}
    sig = [pv[1:] for pv in pattern.vertices]
    autos = []
    for perm in itertools.permutations(range(p)):
        if any(sig[i] != sig[perm[i]] for i in range(p)):
            continue
        if {frozenset(perm[x] for x in e) for e in edges} != edges:
            continue
        if {frozenset(perm[x] for x in e) for e in nonedges} != nonedges:
            continue
        autos.append(perm)
    return tuple(autos)


def _symmetry_conditions(pattern):
    """Slot pairs (i, j) whose host order host(i) < host(j) breaks symmetry.

    Grochow and Kellis's conditions (RECOMB 2007): walk the pattern's
    symmetry group as a stabilizer chain in slot-index order; at level i,
    G_i fixes slots 0..i-1, and every other slot j in the orbit of i under
    G_i gives the pair (i, j).  Of the placements that differ by a pattern
    symmetry, exactly one satisfies every pair: the lexicographically
    least one.
    """
    group = _pattern_automorphisms(pattern)
    conditions = []
    for i in range(len(pattern.vertices)):
        orbit = sorted({s[i] for s in group} - {i})
        conditions += [(i, j) for j in orbit]
        group = [s for s in group if s[i] == i]
    return tuple(conditions)


class _PlanStep(NamedTuple):
    """One slot of a search plan and its checks against earlier slots."""

    slot: int
    adjacent: tuple  # earlier slots this one must be adjacent to
    apart: tuple  # earlier slots this one must not be adjacent to
    above: tuple  # earlier slots whose hosts this one's must exceed
    below: tuple  # earlier slots whose hosts this one's must stay under


@functools.cache
def _search_plan(pattern):
    """The slot order for matching, independent of the host; cached.

    Starts at slot 0 (the catalog lists a best-connected slot first), then
    repeatedly takes the unplaced slot with the most edges, then the most
    nonedges, to placed slots, ties to the smallest index.  A slot's host
    candidates are cut down to the common neighbors of the hosts of its
    adjacent placed slots, in placement order.  Each symmetry condition is
    checked at the step that places the later of its two slots.
    """
    p = len(pattern.vertices)
    idx = {pv.name: i for i, pv in enumerate(pattern.vertices)}
    adj = [set() for _ in range(p)]
    non = [set() for _ in range(p)]
    for u, v in pattern.edges:
        adj[idx[u]].add(idx[v])
        adj[idx[v]].add(idx[u])
    for u, v in pattern.nonedges:
        non[idx[u]].add(idx[v])
        non[idx[v]].add(idx[u])
    less = [set() for _ in range(p)]  # less[j]: slots whose host is below j's
    for i, j in _symmetry_conditions(pattern):
        less[j].add(i)
    order = []
    plan = []
    for _ in range(p):
        slot = min(
            (i for i in range(p) if i not in order),
            key=lambda i: (
                -len(adj[i].intersection(order)),
                -len(non[i].intersection(order)),
                i,
            ),
        )
        plan.append(
            _PlanStep(
                slot,
                tuple(j for j in order if j in adj[slot]),
                tuple(j for j in order if j in non[slot]),
                tuple(j for j in order if j in less[slot]),
                tuple(j for j in order if slot in less[j]),
            )
        )
        order.append(slot)
    return tuple(plan)


def _find_assignments(pattern, nbrs, cand):
    """The constraint-satisfying slot vectors, one per pattern symmetry orbit.

    `nbrs[h]` is the neighbor bitmask of host vertex h (bit u set when u
    is adjacent to h) and `cand[i]` the bitmask of the hosts that meet
    slot i's vertex constraints, or None when some slot has no host.  A
    step's candidates are one bitmask: the slot's pool, cut by the
    neighbor masks of its adjacent placed slots, by the complements of its
    apart ones, by the hosts already used, and by the symmetry conditions
    its slot closes, which keep each vector the lexicographically least of
    its orbit.  Candidates are taken lowest bit first.  The search keeps
    one candidate mask per depth on an explicit stack, so it builds no
    closure and leaves nothing for the cyclic garbage collector.
    """
    plan = _search_plan(pattern)
    if cand is None:
        return []
    last = len(plan) - 1
    assign = [0] * len(plan)
    rest = [0] * len(plan)  # rest[d]: candidates still to try at depth d
    used = [0] * len(plan)  # used[d]: hosts placed before depth d
    out = []
    d = 0
    pool = cand[plan[0].slot]  # the first step has no earlier slots
    while True:
        if d == last:
            slot = plan[d].slot
            while pool:
                bit = pool & -pool
                pool ^= bit
                assign[slot] = bit.bit_length() - 1
                out.append(tuple(assign))
        elif pool:
            bit = pool & -pool
            rest[d] = pool ^ bit
            assign[plan[d].slot] = bit.bit_length() - 1
            d += 1
            used[d] = used[d - 1] | bit
            slot, adjacent, apart, above, below = plan[d]
            pool = cand[slot] & ~used[d]
            for j in adjacent:
                pool &= nbrs[assign[j]]
            for j in apart:
                pool &= ~nbrs[assign[j]]
            if above:
                pool &= -2 << max([assign[j] for j in above])
            if below:
                pool &= (1 << min([assign[j] for j in below])) - 1
            continue
        if not d:
            return out
        d -= 1
        pool = rest[d]


def find_configurations(g, scheme, labels):
    """All catalog matches in g, one per pattern symmetry orbit, sorted.

    Two placements that differ by a symmetry of the pattern itself count
    as one match; the representative kept is the lexicographically least
    host-vertex vector, the only one the search emits.  Output is sorted
    by (pattern id, that vector).  A slot's host pool is built once per
    distinct vertex constraint within the call, since catalog slots repeat
    the same constraints, and a pattern's pools stop at its first empty
    one.  Every match is re-checked against g by `_slots_ok` before it is
    kept.
    """
    nbrs = [0] * g.n
    for u, v in g.edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    groups = {}
    for h, deg in enumerate(g.degrees()):
        sig = (deg, labels.get(h, _UNCLASSIFIED))
        groups[sig] = groups.get(sig, 0) | 1 << h
    pools = {}  # vertex constraints (a PatternVertex past its name) -> hosts
    matches = []
    for pattern in sorted(catalog(scheme), key=lambda pat: pat.id):
        cand = []
        for pv in pattern.vertices:
            key = pv[1:]
            pool = pools.get(key)
            if pool is None:
                pool = 0
                for (deg, label), hosts in groups.items():
                    if _vertex_ok(pv, deg, label):
                        pool |= hosts
                pools[key] = pool
            if not pool:
                cand = None
                break
            cand.append(pool)
        vecs = _find_assignments(pattern, nbrs, cand)
        if not vecs:
            continue
        pid, pairs = pattern.id, _slot_pairs(pattern)
        names = [pv.name for pv in pattern.vertices]
        for vec in sorted(vecs):
            assert _slots_ok(g, pattern, labels, vec, pairs)
            matches.append(ConfigurationMatch(pid, tuple(zip(names, vec))))
    return matches


def _instantiate(pattern, g, labels, a):
    """The first case of the pattern's recipe that holds, in g's edge ids.

    `a` maps slot names to host vertices.  Returns the deleted host
    vertex, the erased edge ids, and the (edge id, ceiling) rows before
    and after the erasure; each ceiling row expands to one pair per host
    edge it names.
    """

    def holds(slot, want):
        if isinstance(want, ClassLabel):
            return labels.get(a[slot], ClassLabel.UNCLASSIFIED) == want
        return g.degree(a[slot]) == want

    case = next(
        c for c in pattern.recipe if all(holds(s, w) for s, w in c.when)
    )

    def host_edges(slot, far, degree=None):
        x = a[slot]
        at_x = zip(g.neighbors(x), g.incident_edges(x))
        if far != OUT:
            return [e for y, e in at_x if y == a[far]]
        covered = {a[u] for e in pattern.edges if slot in e for u in e}
        return [
            e for y, e in at_x
            if y not in covered and degree in (None, g.degree(y))
        ]

    pre, post = [], []
    for edge, ceiling, *after in case.ceilings:
        for e in host_edges(*edge):
            pre.append((e, ceiling))
            post += [(e, c) for c in after]
    erase = tuple(e for u, v in case.erase for e in host_edges(u, v))
    return a[case.delete], erase, pre, post


@functools.lru_cache(maxsize=1)
def _host_tables(g, scheme):
    """g's labels and conflict graph, kept for the last host only.

    `configs --verify` replays every match of one host in turn, and a
    Graph is immutable and hashable, so each host is classified and its
    conflict graph built once.  Callers must not mutate the results.
    """
    return classify(g, scheme).labels, build_conflict_graph(g)


def verify_reducibility(g, m, budget=10.0):
    """Replay a match's recipe; report the verdict and bound checks.

    The recipe's case and roles are read from the match's assignment as
    given.  Flow, in g's own edge ids throughout: drop the edges at the
    recipe vertex v (v stays, isolated, so g-v keeps g's vertex ids),
    decide k-colorability of g-v exactly (UNSAT means the replay is
    VACUOUS: no coloring exists whose extension could be tested; budget
    exhaustion means TIMEOUT), copy the found coloring onto the kept
    edges of g, erase the recipe edges, and extend over the edges at v.
    Conflict ceilings are checked structurally: an edge's pre count is
    how many edges it sees in g that avoid v, its post count
    additionally drops the erased edges.  Edge ids come from the recipe
    and stay ids to the end; an edge is named as a vertex pair only by
    `g.endpoints`, for the bound checks and the erased edges reported.
    """
    pattern = _pattern_by_id(m.pattern_id)
    labels, cg = _host_tables(g, pattern.scheme)
    mapping = dict(m.assignment)
    if not match_satisfies(g, pattern, labels, mapping):
        raise ValueError(f"match of {pattern.id!r} does not hold in this graph")
    v, erase, pre, post = _instantiate(pattern, g, labels, mapping)
    k = _PALETTE[pattern.scheme]
    gone = set(g.incident_edges(v))

    bounds = []
    for phase, ceilings, drop in (
        ("pre", pre, gone),
        ("post", post, gone.union(erase)),
    ):
        for e, ceiling in ceilings:
            obs = sum(1 for f in cg.sees[e] if f not in drop)
            bounds.append(
                BoundCheck(g.endpoints(e), phase, ceiling, obs, obs <= ceiling)
            )
    bounds = tuple(bounds)
    bounds_ok = all(b.ok for b in bounds)
    erased_pairs = tuple(g.endpoints(e) for e in erase)

    # g - v keeps v as an isolated vertex, so edge i of h is g's edge
    # kept[i]: Graph sorts its edges and kept is a sorted subset of them.
    # Seeing between two kept edges is the same in g and h (a joining edge
    # shares an endpoint with both, so it avoids v too), so h's conflict
    # graph is cg restricted to the kept edges, and a coloring of h is a
    # valid partial coloring of g.
    kept = [e for e in range(g.m) if e not in gone]
    h = Graph(g.n, [g.edges[e] for e in kept])
    at = {e: i for i, e in enumerate(kept)}
    sees = tuple(tuple(at[f] for f in cg.sees[e] if f in at) for e in kept)
    solve = k_colorable(ConflictGraph(h, sees), k, time_budget=budget)
    if solve.status in ("TIMEOUT", "UNSAT"):
        verdict = "TIMEOUT" if solve.status == "TIMEOUT" else "VACUOUS"
        return ReducibilityReport(
            pattern.id, verdict, k, v, erased_pairs, None,
            bounds, bounds_ok, solve.nodes, solve.time_ms, None, None,
        )

    colors = [None] * g.m
    for e, c in zip(kept, solve.coloring.colors):
        colors[e] = c
    partial = PartialColoring(k, colors)

    outcome = erase_and_extend(cg, partial, erase, sorted(gone))
    final = None
    if outcome.ok:
        final = tuple(
            (g.endpoints(e), outcome.coloring.colors[e]) for e in range(g.m)
        )
    return ReducibilityReport(
        pattern.id,
        "EXTENDED" if outcome.ok else "NOT_EXTENDED",
        k,
        v,
        erased_pairs,
        outcome.strategy,
        bounds,
        bounds_ok,
        solve.nodes,
        solve.time_ms,
        final,
        outcome.diagnostics,
    )


# --------------------------------------------------------------------------
# Catalog construction.

L = ClassLabel


def _pattern(pid, scheme, description, vertices, edges, nonedges, recipe):
    names = [pv.name for pv in vertices]
    if len(set(names)) != len(names):
        raise ValueError(f"{pid}: duplicate slot names")
    known = set(names)
    seen = set()
    for u, v in tuple(edges) + tuple(nonedges):
        if u == v or u not in known or v not in known:
            raise ValueError(f"{pid}: bad slot pair {(u, v)}")
        key = frozenset((u, v))
        if key in seen:
            raise ValueError(f"{pid}: repeated slot pair {(u, v)}")
        seen.add(key)
    pattern_edges = {frozenset(e) for e in edges}
    if not recipe or recipe[-1].when:
        raise ValueError(f"{pid}: the last recipe case must have no `when`")
    for case in recipe:
        named = {case.delete} | {slot for slot, _ in case.when}
        named |= {edge[0] for edge, *_ in case.ceilings}
        if not known.issuperset(named):
            raise ValueError(f"{pid}: recipe names an unknown slot")
        for u, v in case.erase:
            if case.delete in (u, v):
                raise ValueError(f"{pid}: erase pair {(u, v)} is deleted")
        pairs = [e[:2] for e, *_ in case.ceilings if e[1] != OUT]
        for u, v in tuple(case.erase) + tuple(pairs):
            if frozenset((u, v)) not in pattern_edges:
                raise ValueError(f"{pid}: {(u, v)} is not a pattern edge")
    return Pattern(
        pid, scheme, description, tuple(vertices), tuple(edges),
        tuple(nonedges), recipe,
    )


_THETA7_PATTERNS = (
    _pattern(
        "deg-outside-234",
        Scheme.THETA7,
        "a vertex of degree 1, 5, or 6",
        (PatternVertex("x", degree_in=frozenset({1, 5, 6})),),
        (),
        (),
        (Case("x"),),
    ),
    _pattern(
        "deg2-bad-neighbor",
        Scheme.THETA7,
        "a 2-vertex with a neighbor that is not a 4-vertex",
        (
            PatternVertex("u", degree=2),
            PatternVertex("z", degree_not_in=frozenset({4})),
        ),
        (("u", "z"),),
        (),
        (Case("u"),),
    ),
    _pattern(
        "deg3d-pair-low-support",
        Scheme.THETA7,
        "adjacent 3D-vertices, the first also adjacent to a non-3B 3-vertex",
        (
            PatternVertex("x", classes_in=frozenset({L.DEG3D})),
            PatternVertex("y", classes_in=frozenset({L.DEG3D})),
            PatternVertex(
                "u", degree=3, classes_not_in=frozenset({L.DEG3B})
            ),
        ),
        (("x", "y"), ("x", "u")),
        (),
        (Case("x"),),
    ),
    _pattern(
        "deg4-two-deg2",
        Scheme.THETA7,
        "a 4-vertex with two 2-neighbors",
        (
            PatternVertex("x", degree=4),
            PatternVertex("u1", degree=2),
            PatternVertex("u2", degree=2),
        ),
        (("x", "u1"), ("x", "u2")),
        (),
        (Case("x"),),
    ),
    _pattern(
        "triangle",
        Scheme.THETA7,
        "three mutually adjacent vertices",
        (
            PatternVertex("x1"),
            PatternVertex("x2"),
            PatternVertex("x3"),
        ),
        (("x1", "x2"), ("x1", "x3"), ("x2", "x3")),
        (),
        (
            Case("x1", ceilings=(
                (("x1", OUT), 12), (("x1", "x2"), 9), (("x1", "x3"), 9),
            ), when=(("x1", 3), ("x2", 3), ("x3", 3))),
            # a 4-vertex w and 3-vertices x < b: delete x, erase wb
            Case("x2", (("x1", "x3"),), (
                (("x2", OUT), 13, 12), (("x2", "x1"), 11, 10),
                (("x2", "x3"), 10, 9), (("x1", "x3"), 10, 10),
            ), (("x1", 4), ("x2", 3), ("x3", 3))),
            Case("x1", (("x2", "x3"),), (
                (("x1", OUT), 13, 12), (("x1", "x2"), 11, 10),
                (("x1", "x3"), 10, 9), (("x2", "x3"), 10, 10),
            ), (("x1", 3), ("x2", 4), ("x3", 3))),
            Case("x1", (("x3", "x2"),), (
                (("x1", OUT), 13, 12), (("x1", "x3"), 11, 10),
                (("x1", "x2"), 10, 9), (("x3", "x2"), 10, 10),
            ), (("x1", 3), ("x2", 3), ("x3", 4))),
            Case("x1"),
        ),
    ),
    _pattern(
        "four-cycle-3d",
        Scheme.THETA7,
        "a 4-cycle of 3-vertices with a 3D corner not adjacent to its opposite",
        (
            PatternVertex("x1", classes_in=frozenset({L.DEG3D})),
            PatternVertex("x2", degree=3),
            PatternVertex("x3", degree=3),
            PatternVertex("x4", degree=3),
        ),
        (("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x1")),
        (("x1", "x3"),),
        (Case("x1", ceilings=(
            (("x1", OUT), 12), (("x1", "x2"), 10), (("x1", "x4"), 10),
        )),),
    ),
    _pattern(
        "five-cycle-3d",
        Scheme.THETA7,
        "a 5-cycle of 3-vertices, three of them 3D, plus the pendant edge "
        "at the first",
        (
            PatternVertex("x1", classes_in=frozenset({L.DEG3D})),
            PatternVertex("x2", degree=3),
            PatternVertex("x3", classes_in=frozenset({L.DEG3D})),
            PatternVertex("x4", classes_in=frozenset({L.DEG3D})),
            PatternVertex("x5", degree=3),
            PatternVertex("y", degree=3),
        ),
        (
            ("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x5"),
            ("x5", "x1"), ("x1", "y"),
        ),
        (("y", "x3"), ("y", "x4")),
        (Case("x1", (("x3", "x4"),), (
            (("x1", "y"), 12, 12), (("x1", "x2"), 11, 10),
            (("x1", "x5"), 11, 10), (("x3", "x4"), 10, 10),
        )),),
    ),
    _pattern(
        "pan-3d",
        Scheme.THETA7,
        "a 5-cycle of 3-vertices with 3D corners at positions 1 and 4 and "
        "a pendant 3C-or-3D vertex at position 1",
        (
            PatternVertex("x1", classes_in=frozenset({L.DEG3D})),
            PatternVertex("x2", degree=3),
            PatternVertex("x3", degree=3),
            PatternVertex("x4", classes_in=frozenset({L.DEG3D})),
            PatternVertex("x5", degree=3),
            PatternVertex("y", classes_in=THETA7_3C | {L.DEG3D}),
        ),
        (
            ("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x5"),
            ("x5", "x1"), ("x1", "y"),
        ),
        (("y", "x3"), ("y", "x4")),
        (Case("x1", (("x3", "x4"),), (
            (("x1", "y"), 11, 11), (("x1", "x2"), 11, 10),
            (("x1", "x5"), 11, 10), (("x3", "x4"), 11, 11),
        )),),
    ),
    _pattern(
        "deg3d-two-weak",
        Scheme.THETA7,
        "a 3D-vertex adjacent to two 3C_weak-vertices, each with its other "
        "3D support",
        (
            PatternVertex("x", classes_in=frozenset({L.DEG3D})),
            PatternVertex("y1", classes_in=frozenset({L.DEG3C_WEAK})),
            PatternVertex("y2", classes_in=frozenset({L.DEG3C_WEAK})),
            PatternVertex("z1", classes_in=frozenset({L.DEG3D})),
            PatternVertex("z2", classes_in=frozenset({L.DEG3D})),
        ),
        (("x", "y1"), ("x", "y2"), ("y1", "z1"), ("y2", "z2")),
        (("y1", "y2"), ("y1", "z2"), ("z1", "y2"), ("z1", "z2")),
        (Case("x", (("y1", "z1"), ("y2", "z2")), (
            (("x", "y1"), 11, 9), (("x", "y2"), 11, 9), (("x", OUT), 12, 10),
            (("y1", "z1"), 10, 10), (("y2", "z2"), 10, 10),
        )),),
    ),
    _pattern(
        "deg3d-weak-moderate",
        Scheme.THETA7,
        "a 3D-vertex adjacent to a 3C_weak, a 3C_moderate, and another "
        "3C_moderate-or-strong vertex",
        (
            PatternVertex("x", classes_in=frozenset({L.DEG3D})),
            PatternVertex("y1", classes_in=frozenset({L.DEG3C_WEAK})),
            PatternVertex("y2", classes_in=frozenset({L.DEG3C_MODERATE})),
            PatternVertex(
                "y3",
                classes_in=frozenset({L.DEG3C_MODERATE, L.DEG3C_STRONG}),
            ),
            PatternVertex("z1", classes_in=frozenset({L.DEG3D})),
            PatternVertex("z2", classes_in=THETA7_3C),
        ),
        (("x", "y1"), ("x", "y2"), ("x", "y3"), ("y1", "z1"), ("y2", "z2")),
        (("y1", "y2"), ("y1", "z2"), ("z1", "y2"), ("z1", "z2")),
        (Case("x", (("y1", "z1"), ("y2", "z2")), (
            (("x", "y1"), 11, 9), (("x", "y2"), 11, 9), (("x", "y3"), 11, 9),
            (("y1", "z1"), 10, 10), (("y2", "z2"), 11, 11),
        )),),
    ),
)


_THETA8_PATTERNS = (
    _pattern(
        "deg-outside-345",
        Scheme.THETA8,
        "a vertex of degree 1, 2, 6, or 7",
        (PatternVertex("x", degree_in=frozenset({1, 2, 6, 7})),),
        (),
        (),
        (
            Case("x", ceilings=((("x", OUT), 12),), when=(("x", 1),)),
            Case("x", ceilings=((("x", OUT), 17),), when=(("x", 2),)),
            Case("x"),
        ),
    ),
    _pattern(
        "deg3-pair-missing-deg5",
        Scheme.THETA8,
        "adjacent 3-vertices, the first also adjacent to a non-5-vertex",
        (
            PatternVertex("x", degree=3),
            PatternVertex("y", degree=3),
            PatternVertex("z", degree_not_in=frozenset({5})),
        ),
        (("x", "y"), ("x", "z")),
        (),
        (Case("x", ceilings=(
            (("x", "y"), 17), (("x", "z"), 18), (("x", OUT), 17),
        )),),
    ),
    _pattern(
        "deg4-four-deg3",
        Scheme.THETA8,
        "a 4-vertex with four 3-neighbors",
        (
            PatternVertex("x", degree=4),
            PatternVertex("y1", degree=3),
            PatternVertex("y2", degree=3),
            PatternVertex("y3", degree=3),
            PatternVertex("y4", degree=3),
        ),
        (("x", "y1"), ("x", "y2"), ("x", "y3"), ("x", "y4")),
        (),
        (Case("x", ceilings=(
            (("x", "y1"), 16), (("x", "y2"), 16),
            (("x", "y3"), 16), (("x", "y4"), 16),
        )),),
    ),
    _pattern(
        "deg3d-non-b-support",
        Scheme.THETA8,
        "a 3D-vertex with three 4-neighbors, one of them outside class 4B",
        (
            PatternVertex("x", classes_in=frozenset({L.DEG3D})),
            PatternVertex(
                "y1", degree=4, classes_not_in=frozenset({L.DEG4B})
            ),
            PatternVertex("y2", degree=4),
            PatternVertex("y3", degree=4),
        ),
        (("x", "y1"), ("x", "y2"), ("x", "y3")),
        (),
        (Case("x", ceilings=(
            (("x", "y1"), 17), (("x", "y2"), 18), (("x", "y3"), 18),
        )),),
    ),
    _pattern(
        "deg4d-bad-neighbor",
        Scheme.THETA8,
        "a 4D-vertex adjacent to a 3C-, 4C-, or 4D-vertex",
        (
            PatternVertex("x", classes_in=frozenset({L.DEG4D})),
            PatternVertex("w", classes_in=THETA8_4C | {L.DEG3C, L.DEG4D}),
        ),
        (("x", "w"),),
        (),
        (  # a 4D-vertex has one 4-neighbor and three 3-neighbors
            Case("x", ceilings=(
                (("x", "w"), 16), (("x", OUT, 4), 18), (("x", OUT, 3), 17),
            ), when=(("w", L.DEG3C),)),
            Case("x", ceilings=((("x", "w"), 16), (("x", OUT, 3), 17))),
        ),
    ),
    _pattern(
        "triangle-4c",
        Scheme.THETA8,
        "a triangle of 4C-vertices",
        (
            PatternVertex("x1", classes_in=THETA8_4C),
            PatternVertex("x2", classes_in=THETA8_4C),
            PatternVertex("x3", classes_in=THETA8_4C),
        ),
        (("x1", "x2"), ("x1", "x3"), ("x2", "x3")),
        (),
        (Case("x1", ceilings=(
            (("x1", "x2"), 13), (("x1", "x3"), 13), (("x1", OUT), 17),
        )),),
    ),
    _pattern(
        "triangle-deg3",
        Scheme.THETA8,
        "a triangle containing a 3-vertex",
        (
            PatternVertex("x1", degree=3),
            PatternVertex("x2"),
            PatternVertex("x3"),
        ),
        (("x1", "x2"), ("x1", "x3"), ("x2", "x3")),
        (),
        (Case("x1"),),
    ),
    _pattern(
        "four-cycle-4c",
        Scheme.THETA8,
        "a 4-cycle with a 3-vertex corner, the rest 4C, no chord at the "
        "3-vertex",
        (
            PatternVertex("x1", degree=3),
            PatternVertex("x2", classes_in=THETA8_4C),
            PatternVertex("x3", classes_in=THETA8_4C),
            PatternVertex("x4", classes_in=THETA8_4C),
        ),
        (("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x1")),
        (("x1", "x3"),),
        (Case("x1", ceilings=(
            (("x1", OUT), 18), (("x1", "x2"), 17), (("x1", "x4"), 17),
        )),),
    ),
    _pattern(
        "deg4cweak-two-4c",
        Scheme.THETA8,
        "a 4C_weak-vertex whose two 4-neighbors are both 4C, each with a "
        "3-neighbor of its own",
        (
            PatternVertex("x", classes_in=frozenset({L.DEG4C_WEAK})),
            PatternVertex("y1", classes_in=frozenset({L.DEG3C})),
            PatternVertex("y2", classes_in=frozenset({L.DEG3C})),
            PatternVertex("z1", classes_in=THETA8_4C),
            PatternVertex("z2", classes_in=THETA8_4C),
            PatternVertex("w1", degree=3),
            PatternVertex("w2", degree=3),
        ),
        (
            ("x", "y1"), ("x", "y2"), ("x", "z1"), ("x", "z2"),
            ("z1", "w1"), ("z2", "w2"),
        ),
        (("z1", "z2"), ("z1", "w2"), ("z2", "w1"), ("w1", "w2")),
        (Case("x", (("z1", "w1"), ("z2", "w2")), (
            (("x", "y1"), 17, 15), (("x", "y2"), 17, 15),
            (("x", "z1"), 17, 15), (("x", "z2"), 17, 15),
            (("z1", "w1"), 17, 17), (("z2", "w2"), 17, 17),
        )),),
    ),
    _pattern(
        "deg5-two-bweak",
        Scheme.THETA8,
        "a 5-vertex adjacent to two 3B_weak-vertices, each with its own "
        "3-neighbor",
        (
            PatternVertex("x", classes_in=frozenset({L.DEG5})),
            PatternVertex("y1", classes_in=frozenset({L.DEG3B_WEAK})),
            PatternVertex("y2", classes_in=frozenset({L.DEG3B_WEAK})),
            PatternVertex("z1", degree=3),
            PatternVertex("z2", degree=3),
        ),
        (("x", "y1"), ("x", "y2"), ("y1", "z1"), ("y2", "z2")),
        (("y1", "y2"), ("y1", "z2"), ("y2", "z1"), ("z1", "z2")),
        (Case("x", (("y1", "z1"), ("y2", "z2")), (
            (("x", "y1"), 16, 14), (("x", "y2"), 16, 14), (("x", OUT), 18, 16),
            (("y1", "z1"), 15, 15), (("y2", "z2"), 15, 15),
        )),),
    ),
)

_BY_ID = {p.id: p for p in _THETA7_PATTERNS + _THETA8_PATTERNS}
_PALETTE = {scheme: palette for scheme, _, palette in THEOREMS.values()}


def catalog(scheme):
    """The fixed pattern catalog for a scheme, in presentation order."""
    if scheme == Scheme.THETA7:
        return list(_THETA7_PATTERNS)
    if scheme == Scheme.THETA8:
        return list(_THETA8_PATTERNS)
    raise ValueError(f"unknown scheme {scheme!r}")


def _pattern_by_id(pattern_id):
    try:
        return _BY_ID[pattern_id]
    except KeyError:
        raise ValueError(f"unknown pattern id {pattern_id!r}") from None
