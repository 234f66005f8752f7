"""Forbidden-structure catalog: patterns, matching, reducibility replay.

A pattern is a small constraint graph: named slots carrying degree or
class requirements, required adjacencies, and required non-adjacencies.
A match is an injective placement of the slots onto host vertices that
satisfies every constraint; `find_configurations` enumerates all matches,
deduplicated up to the pattern's own symmetries.  Two things are
computed once per pattern and cached, since they depend only on the
pattern's value (slots, edges, nonedges), never on the host graph, and a
`Pattern` is an immutable, hashable tuple: its symmetry group, and its
search plan.  The plan orders the slots so that each slot's host
candidates are cut down to the neighbors of the hosts of the earlier
slots it has a pattern edge to; in every catalog pattern each slot
after the first has at least one such slot.  The plan also carries the
pattern's symmetry-breaking conditions, host-order constraints
host(i) < host(j) read off a stabilizer chain of the symmetry group
(Grochow and Kellis, RECOMB 2007); each bounds the candidates of the
step that places the later of its two slots, so the search emits only
the lexicographically least placement of each symmetry orbit and never
meets the others.  Per host, the vertex constraints are tested once per
(degree, class label) signature.  Patterns also carry a replayable
recipe: delete one host vertex, color what remains exactly with its
theorem's palette (read from `classes.THEOREMS`), optionally erase a few
edge colors, then extend the coloring back over the missing edges.
`verify_reducibility` runs the recipe on a concrete match and compares
the observed per-edge conflict counts with the catalog's ceilings.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from .classes import THEOREMS, THETA7_3C, THETA8_4C, ClassLabel, Scheme, classify
from .coloring import PartialColoring, erase_and_extend, k_colorable
from .graph import Graph, build_conflict_graph


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
    recipe: object  # callable (g, labels, assignment dict) -> ConcreteRecipe


class ConcreteRecipe(NamedTuple):
    """A recipe instantiated on one match: what to delete, erase, check.

    Only the deleted vertex is required; a recipe that erases nothing or
    asserts no ceiling leaves those fields empty.  Edges are named by
    their host endpoints.  The palette is not the recipe's: the replay
    takes its theorem's.
    """

    delete: int  # host vertex to remove
    erase: tuple = ()  # host edges (vertex pairs) whose colors get erased
    pre_bounds: tuple = ()  # ((u, v), ceiling) before erasure
    post_bounds: tuple = ()  # ((u, v), ceiling) after erasure


class ConfigurationMatch(NamedTuple):
    pattern_id: str
    assignment: tuple  # (slot name, host vertex) pairs, in slot order
    edge_witnesses: tuple  # host edges realizing the pattern edges

    @property
    def mapping(self):
        return dict(self.assignment)


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
    if pv.degree is not None and deg != pv.degree:
        return False
    if pv.degree_in is not None and deg not in pv.degree_in:
        return False
    if pv.degree_not_in is not None and deg in pv.degree_not_in:
        return False
    if pv.classes_in is not None and label not in pv.classes_in:
        return False
    if pv.classes_not_in is not None and label in pv.classes_not_in:
        return False
    return True


def match_satisfies(g, pattern, labels, assignment):
    """Re-check a placement from scratch; True iff every constraint holds."""
    vals = [assignment.get(pv.name) for pv in pattern.vertices]
    if None in vals or len(set(vals)) != len(vals):
        return False
    if any(not (0 <= h < g.n) for h in vals):
        return False
    for pv in pattern.vertices:
        h = assignment[pv.name]
        label = labels.get(h, ClassLabel.UNCLASSIFIED)
        if not _vertex_ok(pv, g.degree(h), label):
            return False
    for u, v in pattern.edges:
        if not g.has_edge(assignment[u], assignment[v]):
            return False
    for u, v in pattern.nonedges:
        if g.has_edge(assignment[u], assignment[v]):
            return False
    return True


@functools.cache
def _pattern_automorphisms(pattern):
    """Slot permutations preserving constraints, edges, and nonedges.

    Cached per pattern value, so each catalog group is computed once.
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


def _find_assignments(pattern, nbrs, groups):
    """The constraint-satisfying slot vectors, one per pattern symmetry orbit.

    `nbrs[h]` is the neighbor set of host vertex h and `groups` maps each
    (degree, label) signature to the host vertices that carry it.  Each
    vector kept is the lexicographically least of its orbit: the search
    bounds a step's candidates by the symmetry conditions its slot closes.
    """
    plan = _search_plan(pattern)
    cand = []
    for pv in pattern.vertices:
        pool = set()
        for (deg, label), hosts in groups.items():
            if _vertex_ok(pv, deg, label):
                pool.update(hosts)
        if not pool:
            return []
        cand.append(pool)
    p = len(plan)
    assign = [None] * p
    out = []

    def bt(d):
        if d == p:
            out.append(tuple(assign))
            return
        slot, adjacent, apart, above, below = plan[d]
        pool = cand[slot]
        for j in adjacent:
            pool = pool & nbrs[assign[j]]
        for j in apart:
            pool = pool - nbrs[assign[j]]
        if above:
            lo = max([assign[j] for j in above])
            pool = [h for h in pool if h > lo]
        if below:
            hi = min([assign[j] for j in below])
            pool = [h for h in pool if h < hi]
        for h in pool:
            if h not in assign:
                assign[slot] = h
                bt(d + 1)
        assign[slot] = None

    bt(0)
    return out


def find_configurations(g, scheme, labels):
    """All catalog matches in g, one per pattern symmetry orbit, sorted.

    Two placements that differ by a symmetry of the pattern itself count
    as one match; the representative kept is the lexicographically least
    host-vertex vector, the only one the search emits.  Output is sorted
    by (pattern id, that vector).
    """
    nbrs = [frozenset(g.neighbors(h)) for h in range(g.n)]
    groups = {}
    for h in range(g.n):
        sig = (g.degree(h), labels.get(h, ClassLabel.UNCLASSIFIED))
        groups.setdefault(sig, []).append(h)
    matches = []
    for pattern in sorted(catalog(scheme), key=lambda pat: pat.id):
        names = [pv.name for pv in pattern.vertices]
        for vec in sorted(_find_assignments(pattern, nbrs, groups)):
            mapping = dict(zip(names, vec))
            assert match_satisfies(g, pattern, labels, mapping)
            witnesses = tuple(
                (mapping[u], mapping[v]) if mapping[u] < mapping[v]
                else (mapping[v], mapping[u])
                for u, v in pattern.edges
            )
            matches.append(
                ConfigurationMatch(pattern.id, tuple(zip(names, vec)), witnesses)
            )
    return matches


def verify_reducibility(g, m, budget=10.0):
    """Replay a match's recipe; report the verdict and bound checks.

    Flow, in g's own edge ids throughout: drop the edges at the recipe
    vertex v (v stays, isolated, so g-v keeps g's vertex ids), decide
    k-colorability of g-v exactly (UNSAT means the replay is VACUOUS: no
    coloring exists whose extension could be tested; budget exhaustion
    means TIMEOUT), copy the found coloring onto the kept edges of g,
    erase the recipe edges, and extend over the edges at v.  Conflict
    ceilings are checked structurally: an edge's pre count is how many
    edges it sees in g that avoid v, its post count additionally drops
    the erased edges.
    """
    pattern = _pattern_by_id(m.pattern_id)
    labels = classify(g, pattern.scheme).labels
    mapping = dict(m.assignment)
    if not match_satisfies(g, pattern, labels, mapping):
        raise ValueError(f"match of {pattern.id!r} does not hold in this graph")
    recipe = pattern.recipe(g, labels, mapping)
    k = _PALETTE[pattern.scheme]
    v = recipe.delete
    cg = build_conflict_graph(g)

    erase_ids = set()
    for u, w in recipe.erase:
        if v in (u, w):
            raise ValueError("erase edge touches the deleted vertex")
        erase_ids.add(g.edge_id(u, w))
    gone = set(g.incident_edges(v))

    bounds = []
    for phase, ceilings, drop in (
        ("pre", recipe.pre_bounds, gone),
        ("post", recipe.post_bounds, gone | erase_ids),
    ):
        for (u, w), ceiling in ceilings:
            obs = sum(1 for f in cg.sees[g.edge_id(u, w)] if f not in drop)
            bounds.append(
                BoundCheck(
                    (min(u, w), max(u, w)), phase, ceiling, obs, obs <= ceiling
                )
            )
    bounds = tuple(bounds)
    bounds_ok = all(b.ok for b in bounds)
    erased_pairs = tuple((min(u, w), max(u, w)) for u, w in recipe.erase)

    # g - v keeps v as an isolated vertex, so edge i of h is g's edge
    # kept[i]: Graph sorts its edges and kept is a sorted subset of them.
    kept = [e for e in range(g.m) if e not in gone]
    h = Graph(g.n, [g.edges[e] for e in kept])
    solve = k_colorable(build_conflict_graph(h), k, time_budget=budget)
    if solve.status in ("TIMEOUT", "UNSAT"):
        verdict = "TIMEOUT" if solve.status == "TIMEOUT" else "VACUOUS"
        return ReducibilityReport(
            pattern.id, verdict, k, v, erased_pairs, None,
            bounds, bounds_ok, solve.nodes, solve.time_ms, None, None,
        )

    # Seeing between two kept edges is the same in g and h (a joining edge
    # shares an endpoint with both, so it avoids v too), hence the coloring
    # of h is a valid partial coloring of g.
    colors = [None] * g.m
    for e, c in zip(kept, solve.coloring.colors):
        colors[e] = c
    partial = PartialColoring(k, colors)

    outcome = erase_and_extend(cg, partial, erase_ids, sorted(gone))
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
    return Pattern(
        pid, scheme, description, tuple(vertices), tuple(edges),
        tuple(nonedges), recipe,
    )


def _other_neighbors(g, v, exclude):
    ex = set(exclude)
    return [u for u in g.neighbors(v) if u not in ex]


def _deletes(slot):
    """The recipe that deletes the host of `slot` and asserts no ceiling."""
    return lambda g, labels, a: ConcreteRecipe(a[slot])


# -- theta7 recipes --------------------------------------------------------


def _r7_triangle(g, labels, a):
    hosts = sorted(a.values())
    three = [v for v in hosts if g.degree(v) == 3]
    four = [v for v in hosts if g.degree(v) == 4]
    if len(three) == 3:
        x = three[0]
        b1, b2 = [v for v in hosts if v != x]
        (y,) = _other_neighbors(g, x, (b1, b2))
        pre = (((x, y), 12), ((x, b1), 9), ((x, b2), 9))
        return ConcreteRecipe(x, pre_bounds=pre)
    if len(four) == 1 and len(three) == 2:
        w = four[0]
        x, b = three
        (z,) = _other_neighbors(g, x, (w, b))
        pre = (((x, z), 13), ((x, w), 11), ((x, b), 10), ((w, b), 10))
        post = (((x, z), 12), ((x, w), 10), ((x, b), 9), ((w, b), 10))
        return ConcreteRecipe(x, ((w, b),), pre, post)
    return ConcreteRecipe(hosts[0])


def _r7_four_cycle(g, labels, a):
    x1, x2, x4 = a["x1"], a["x2"], a["x4"]
    (y,) = _other_neighbors(g, x1, (x2, x4))
    pre = (((x1, y), 12), ((x1, x2), 10), ((x1, x4), 10))
    return ConcreteRecipe(x1, pre_bounds=pre)


def _r7_five_cycle(g, labels, a):
    x1, x2, x3, x4, x5, y = (
        a[k] for k in ("x1", "x2", "x3", "x4", "x5", "y")
    )
    pre = (((x1, y), 12), ((x1, x2), 11), ((x1, x5), 11), ((x3, x4), 10))
    post = (((x1, y), 12), ((x1, x2), 10), ((x1, x5), 10), ((x3, x4), 10))
    return ConcreteRecipe(x1, ((x3, x4),), pre, post)


def _r7_pan(g, labels, a):
    x1, x2, x3, x4, x5, y = (
        a[k] for k in ("x1", "x2", "x3", "x4", "x5", "y")
    )
    pre = (((x1, y), 11), ((x1, x2), 11), ((x1, x5), 11), ((x3, x4), 11))
    post = (((x1, y), 11), ((x1, x2), 10), ((x1, x5), 10), ((x3, x4), 11))
    return ConcreteRecipe(x1, ((x3, x4),), pre, post)


def _r7_two_weak(g, labels, a):
    x, y1, y2, z1, z2 = (a[k] for k in ("x", "y1", "y2", "z1", "z2"))
    (w,) = _other_neighbors(g, x, (y1, y2))
    pre = (
        ((x, y1), 11), ((x, y2), 11), ((x, w), 12),
        ((y1, z1), 10), ((y2, z2), 10),
    )
    post = (
        ((x, y1), 9), ((x, y2), 9), ((x, w), 10),
        ((y1, z1), 10), ((y2, z2), 10),
    )
    return ConcreteRecipe(x, ((y1, z1), (y2, z2)), pre, post)


def _r7_weak_moderate(g, labels, a):
    x, y1, y2, y3, z1, z2 = (
        a[k] for k in ("x", "y1", "y2", "y3", "z1", "z2")
    )
    pre = (
        ((x, y1), 11), ((x, y2), 11), ((x, y3), 11),
        ((y1, z1), 10), ((y2, z2), 11),
    )
    post = (
        ((x, y1), 9), ((x, y2), 9), ((x, y3), 9),
        ((y1, z1), 10), ((y2, z2), 11),
    )
    return ConcreteRecipe(x, ((y1, z1), (y2, z2)), pre, post)


_THETA7_PATTERNS = (
    _pattern(
        "deg-outside-234",
        Scheme.THETA7,
        "a vertex of degree 1, 5, or 6",
        (PatternVertex("x", degree_in=frozenset({1, 5, 6})),),
        (),
        (),
        _deletes("x"),
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
        _deletes("u"),
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
        _deletes("x"),
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
        _deletes("x"),
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
        _r7_triangle,
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
        _r7_four_cycle,
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
        _r7_five_cycle,
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
        _r7_pan,
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
        _r7_two_weak,
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
        _r7_weak_moderate,
    ),
)


# -- theta8 recipes --------------------------------------------------------


def _r8_deg_outside(g, labels, a):
    x = a["x"]
    d = g.degree(x)
    if d == 1:
        (y,) = g.neighbors(x)
        return ConcreteRecipe(x, pre_bounds=(((x, y), 12),))
    if d == 2:
        y1, y2 = g.neighbors(x)
        return ConcreteRecipe(x, pre_bounds=(((x, y1), 17), ((x, y2), 17)))
    return ConcreteRecipe(x)


def _r8_three_pair(g, labels, a):
    x, y, z = a["x"], a["y"], a["z"]
    (w,) = _other_neighbors(g, x, (y, z))
    pre = (((x, y), 17), ((x, z), 18), ((x, w), 17))
    return ConcreteRecipe(x, pre_bounds=pre)


def _r8_four_deg3(g, labels, a):
    x = a["x"]
    ys = sorted(a[k] for k in ("y1", "y2", "y3", "y4"))
    pre = tuple(((x, y), 16) for y in ys)
    return ConcreteRecipe(x, pre_bounds=pre)


def _r8_3d_support(g, labels, a):
    x, y1, y2, y3 = a["x"], a["y1"], a["y2"], a["y3"]
    pre = (((x, y1), 17), ((x, y2), 18), ((x, y3), 18))
    return ConcreteRecipe(x, pre_bounds=pre)


def _r8_4d_bad(g, labels, a):
    x, w = a["x"], a["w"]
    three_nbs = [u for u in g.neighbors(x) if g.degree(u) == 3]
    four_nbs = [u for u in g.neighbors(x) if g.degree(u) == 4]
    # A 4D label guarantees one 4-neighbor and three 3-neighbors.
    if labels.get(w) == L.DEG3C:
        rest = [u for u in three_nbs if u != w]
        pre = (
            ((x, w), 16), ((x, four_nbs[0]), 18),
            ((x, rest[0]), 17), ((x, rest[1]), 17),
        )
    else:
        pre = (((x, w), 16),) + tuple(((x, u), 17) for u in three_nbs)
    return ConcreteRecipe(x, pre_bounds=pre)


def _r8_triangle_4c(g, labels, a):
    h1, h2, h3 = sorted(a.values())
    y1, y2 = _other_neighbors(g, h1, (h2, h3))
    pre = (
        ((h1, h2), 13), ((h1, h3), 13), ((h1, y1), 17), ((h1, y2), 17)
    )
    return ConcreteRecipe(h1, pre_bounds=pre)


def _r8_four_cycle_4c(g, labels, a):
    x1, x2, x4 = a["x1"], a["x2"], a["x4"]
    (y,) = _other_neighbors(g, x1, (x2, x4))
    pre = (((x1, y), 18), ((x1, x2), 17), ((x1, x4), 17))
    return ConcreteRecipe(x1, pre_bounds=pre)


def _r8_4cweak(g, labels, a):
    x, y1, y2, z1, z2, w1, w2 = (
        a[k] for k in ("x", "y1", "y2", "z1", "z2", "w1", "w2")
    )
    pre = (
        ((x, y1), 17), ((x, y2), 17), ((x, z1), 17), ((x, z2), 17),
        ((z1, w1), 17), ((z2, w2), 17),
    )
    post = (
        ((x, y1), 15), ((x, y2), 15), ((x, z1), 15), ((x, z2), 15),
        ((z1, w1), 17), ((z2, w2), 17),
    )
    return ConcreteRecipe(x, ((z1, w1), (z2, w2)), pre, post)


def _r8_5v_bweak(g, labels, a):
    x, y1, y2, z1, z2 = (a[k] for k in ("x", "y1", "y2", "z1", "z2"))
    others = _other_neighbors(g, x, (y1, y2))
    pre = (
        (((x, y1), 16), ((x, y2), 16))
        + tuple(((x, u), 18) for u in others)
        + (((y1, z1), 15), ((y2, z2), 15))
    )
    post = (
        (((x, y1), 14), ((x, y2), 14))
        + tuple(((x, u), 16) for u in others)
        + (((y1, z1), 15), ((y2, z2), 15))
    )
    return ConcreteRecipe(x, ((y1, z1), (y2, z2)), pre, post)


_THETA8_PATTERNS = (
    _pattern(
        "deg-outside-345",
        Scheme.THETA8,
        "a vertex of degree 1, 2, 6, or 7",
        (PatternVertex("x", degree_in=frozenset({1, 2, 6, 7})),),
        (),
        (),
        _r8_deg_outside,
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
        _r8_three_pair,
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
        _r8_four_deg3,
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
        _r8_3d_support,
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
        _r8_4d_bad,
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
        _r8_triangle_4c,
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
        _deletes("x1"),
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
        _r8_four_cycle_4c,
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
        _r8_4cweak,
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
        _r8_5v_bweak,
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
