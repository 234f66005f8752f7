"""Strong edge-coloring: validity, color lists, extensions, exact solving.

A strong edge-coloring is a proper vertex coloring of the conflict graph
(edges that see each other get distinct colors).  This module provides:

* validity checking with explicit violation reporting,
* per-edge color lists: the palette colors unused on edges an edge sees,
* a list-size-ordered greedy extension (sound whenever some ordering of
  the uncolored edges has the i-th list of size at least i),
* systems of distinct representatives by maximum flow on the mad
  solver's engine (``metrics._Dinic``), with a violating subfamily
  when none exists, read from the minimum cut that the flow's last
  breadth-first search finds; it falls short of Hall's condition by
  exactly the number of sets no matching covers,
* the erase-and-extend maneuver: uncolor chosen edges, then retry by
  same-color reuse, by SDR, or by plain greedy, in that order,
* an exact decision procedure: branch and bound in DSATUR order (Brelaz
  1979), run as one loop over an explicit stack with each edge's
  forbidden colors kept as an int bitmask, so it has no recursion-depth
  limit; it prunes with Hall's counting test (the counting half of
  Regin's alldifferent filtering, AAAI 1994) on the cliques formed by
  the edges at either end of a host edge, whose uncolored members need
  distinct colors, so a branch dies once the union of their free colors
  is smaller than their count,
* an exact minimum-palette computation built on it.

Everything is deterministic: ties break by smallest edge id, colors are
tried ascending, and certificates depend only on the input.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .metrics import _Dinic


class PartialColoring:
    """Palette size k plus a per-edge optional color (colors are 1..k)."""

    __slots__ = ("k", "colors")

    def __init__(self, k, colors):
        # type() rather than isinstance(): bool is an int subclass.
        if type(k) is not int or k < 0:
            raise ValueError(f"palette size must be a nonnegative int, got {k!r}")
        for e, c in enumerate(colors):
            if c is not None and not (type(c) is int and 1 <= c <= k):
                raise ValueError(f"edge {e}: color {c!r} is not an int in 1..{k}")
        self.k = k
        self.colors = list(colors)

    @classmethod
    def empty(cls, k, m):
        return cls(k, [None] * m)

    def copy(self):
        return PartialColoring(self.k, self.colors)

    def assigned(self):
        """Edge ids that carry a color, ascending."""
        return [e for e, c in enumerate(self.colors) if c is not None]

    def is_total(self):
        return all(c is not None for c in self.colors)

    def __eq__(self, other):
        if not isinstance(other, PartialColoring):
            return NotImplemented
        return self.k == other.k and self.colors == other.colors

    def __repr__(self):
        done = sum(1 for c in self.colors if c is not None)
        return f"PartialColoring(k={self.k}, {done}/{len(self.colors)} edges)"


class SetFamily(NamedTuple):
    """An ordered family of subsets of {1..k}."""

    k: int
    sets: tuple

    @classmethod
    def of(cls, k, sets):
        frozen = tuple(frozenset(s) for s in sets)
        for i, s in enumerate(frozen):
            if any(not (1 <= x <= k) for x in s):
                raise ValueError(f"set {i} leaves the universe 1..{k}")
        return cls(k, frozen)


def is_valid_strong_coloring(cg, c):
    """Check a (partial) coloring; returns (ok, violations).

    A violation is a triple (e, e2, color) with e < e2, both colored the
    same and seeing each other.  Colors outside 1..k raise ValueError.
    """
    if len(c.colors) != cg.n:
        raise ValueError(
            f"coloring covers {len(c.colors)} edges, graph has {cg.n}"
        )
    for e, col in enumerate(c.colors):
        if col is not None and not (1 <= col <= c.k):
            raise ValueError(f"edge {e}: color {col} outside 1..{c.k}")
    violations = []
    for e in range(cg.n):
        ce = c.colors[e]
        if ce is None:
            continue
        for e2 in cg.sees[e]:
            if e2 > e and c.colors[e2] == ce:
                violations.append((e, e2, ce))
    return (not violations), violations


def available_colors(cg, c, e):
    """The palette colors not used on any edge that e sees.

    The edge's own current color is not excluded (an edge never sees
    itself), so recoloring decisions can reuse it.
    """
    if not (0 <= e < cg.n):
        raise ValueError(f"invalid edge id {e}")
    used = {c.colors[e2] for e2 in cg.sees[e] if c.colors[e2] is not None}
    return set(range(1, c.k + 1)) - used


class ExtendResult(NamedTuple):
    ok: bool
    coloring: object  # PartialColoring on success, None otherwise
    ordering: tuple  # edge ids in the order they were colored
    failed_edge: object  # first edge found with an empty list, or None


def greedy_extend(cg, c, targets):
    """Color all target edges greedily, smallest list first.

    At each step the uncolored target with the smallest current list is
    colored with its smallest available color (ties on list size break by
    edge id).  If the targets can be ordered so that the i-th has at least
    i available colors, this procedure never gets stuck: coloring one edge
    shrinks each other list by at most one, so the sorted list sizes stay
    ahead of the positions.  On failure the first edge observed with an
    empty list is reported.
    """
    targets = list(dict.fromkeys(targets))
    for e in targets:
        if c.colors[e] is not None:
            raise ValueError(f"target edge {e} is already colored")
    out = c.copy()
    ordering = []
    remaining = set(targets)
    while remaining:
        best_e = None
        best_list = None
        for e in sorted(remaining):
            avail = available_colors(cg, out, e)
            if best_list is None or len(avail) < len(best_list):
                best_e, best_list = e, avail
        if not best_list:
            return ExtendResult(False, None, tuple(ordering), best_e)
        out.colors[best_e] = min(best_list)
        ordering.append(best_e)
        remaining.discard(best_e)
    return ExtendResult(True, out, tuple(ordering), None)


class SDRResult(NamedTuple):
    ok: bool
    reps: tuple  # one representative per set, aligned with the family
    # indices I with |union of S_i| < |I|, or None; |I| exceeds the union
    # size by the number of sets that no matching covers
    violator: tuple
    union_size: object  # size of that union, or None


def hall_sdr(fam):
    """A system of distinct representatives, or a certified violator.

    Maximum flow on the unit network source -> set -> element -> sink
    (``metrics._Dinic``; sets in family order, elements ascending).  A
    flow through every set gives each set's representative by its
    saturated arc.  Otherwise the sets that the flow's last breadth-first
    search reaches, the source side of the minimum cut, are returned as
    the violator, with the size of their union.  By Konig's argument that
    union is exactly the elements on the same side, so the violator
    outnumbers its union by the number of sets that no matching covers.
    """
    sets = fam.sets
    k, n = fam.k, len(sets)
    # node 0 is the source, x in 1..k the element x, k + 1 + i set i
    s, t = 0, k + n + 1
    net = _Dinic(k + n + 2)
    for x in range(1, k + 1):
        net.add(x, t, 1)
    arcs = []
    for i, members in enumerate(sets):
        net.add(s, k + 1 + i, 1)
        arcs.append([(net.add(k + 1 + i, x, 1), x) for x in sorted(members)])
    matched, level = net.max_flow(s, t)
    if matched == n:
        # exactly one of each set's element arcs carries flow
        reps = tuple(next(x for a, x in row if not net.cap[a]) for row in arcs)
        return SDRResult(True, reps, None, None)
    violator = tuple(i for i in range(n) if level[k + 1 + i] >= 0)
    union = set().union(*(sets[i] for i in violator))
    assert len(violator) - len(union) == n - matched, "Konig deficiency"
    return SDRResult(False, None, violator, len(union))


class ExtensionOutcome(NamedTuple):
    ok: bool
    coloring: object  # PartialColoring on success, None otherwise
    strategy: object  # "same_color" | "sdr" | "greedy" | None
    diagnostics: dict


def erase_and_extend(cg, c, erase, targets):
    """Uncolor the erase edges, then color erase+targets by escalation.

    Strategies, in order; the first to produce a valid total assignment
    of the working set (erase plus targets) wins:

    1. same_color: find two erased edges that do not see each other and
       share an available color; give both that color, then greedy-extend
       the rest.  Pairs are tried in ascending id order, shared colors
       ascending.
    2. sdr: one distinct representative per working edge's list.  Distinct
       colors from the edges' own lists satisfy every constraint among the
       working edges and toward the fixed ones.
    3. greedy: list-size-ordered greedy over the working set.

    Failure returns diagnostics: per-strategy failure reasons and the
    final color lists after erasure.
    """
    erase = list(dict.fromkeys(erase))
    targets = list(dict.fromkeys(targets))
    for e in erase:
        if c.colors[e] is None:
            raise ValueError(f"erase edge {e} is not colored")
    for e in targets:
        if c.colors[e] is not None:
            raise ValueError(f"target edge {e} is already colored")
    base = c.copy()
    for e in erase:
        base.colors[e] = None
    work = sorted(set(erase) | set(targets))
    lists = {e: available_colors(cg, base, e) for e in work}
    diagnostics = {
        "lists": {e: sorted(lists[e]) for e in work},
        "attempts": [],
    }

    # Strategy 1: reuse one color on a mutually non-seeing erased pair.
    erase_sorted = sorted(erase)
    for idx1 in range(len(erase_sorted)):
        for idx2 in range(idx1 + 1, len(erase_sorted)):
            e1, e2 = erase_sorted[idx1], erase_sorted[idx2]
            if e2 in cg.sees[e1]:
                continue
            shared = lists[e1] & lists[e2]
            for col in sorted(shared):
                trial = base.copy()
                trial.colors[e1] = col
                trial.colors[e2] = col
                rest = [e for e in work if e not in (e1, e2)]
                res = greedy_extend(cg, trial, rest)
                if res.ok:
                    ok, _ = is_valid_strong_coloring(cg, res.coloring)
                    assert ok, "greedy extension produced a conflict"
                    return ExtensionOutcome(
                        True, res.coloring, "same_color", diagnostics
                    )
            diagnostics["attempts"].append(
                {
                    "strategy": "same_color",
                    "pair": [e1, e2],
                    "shared_colors": sorted(shared),
                }
            )

    # Strategy 2: distinct representatives over all working lists.
    fam = SetFamily.of(c.k, [lists[e] for e in work])
    sdr = hall_sdr(fam)
    if sdr.ok:
        trial = base.copy()
        for e, col in zip(work, sdr.reps):
            trial.colors[e] = col
        ok, _ = is_valid_strong_coloring(cg, trial)
        assert ok, "SDR assignment produced a conflict"
        return ExtensionOutcome(True, trial, "sdr", diagnostics)
    diagnostics["attempts"].append(
        {
            "strategy": "sdr",
            "violator": [work[i] for i in sdr.violator],
            "union_size": sdr.union_size,
        }
    )

    # Strategy 3: plain greedy over the working set.
    res = greedy_extend(cg, base, work)
    if res.ok:
        ok, _ = is_valid_strong_coloring(cg, res.coloring)
        assert ok, "greedy extension produced a conflict"
        return ExtensionOutcome(True, res.coloring, "greedy", diagnostics)
    diagnostics["attempts"].append(
        {"strategy": "greedy", "failed_edge": res.failed_edge}
    )
    return ExtensionOutcome(False, None, None, diagnostics)


class SolveResult(NamedTuple):
    status: str  # "SAT" | "UNSAT" | "TIMEOUT"
    coloring: object  # total PartialColoring when SAT, else None
    nodes: int
    time_ms: int


def _hall_cliques(g):
    """Per host edge uv, the edges incident to u or v: (bitmask, ascending).

    Any two of them see each other: they share u or v, or one is at u and
    the other at v, joined by uv.  A clique contained in another is
    dropped (of equal ones the first edge's is kept).  Only the clique of
    a member edge can contain a clique, since it must contain uv.
    """
    at = [0] * g.n  # bitmask of the edges at each vertex
    for e, (u, v) in enumerate(g.edges):
        at[u] |= 1 << e
        at[v] |= 1 << e
    near = [at[u] | at[v] for u, v in g.edges]
    out = []
    for e, (u, v) in enumerate(g.edges):
        q = near[e]
        members = sorted({*g.incident_edges(u), *g.incident_edges(v)})
        if not any(
            not q & ~near[f] and (q != near[f] or f < e) for f in members
        ):
            out.append((q, tuple(members)))
    return out


def k_colorable(cg, k, time_budget=10.0):
    """Decide whether the conflict graph admits a proper k-coloring.

    Saturation-ordered branch and bound in Brelaz's DSATUR order: always
    branch on the uncolored edge seeing the most distinct colors, ties
    broken by smallest edge id; try its feasible colors ascending, capped
    at one beyond the highest color used so far, which breaks color-name
    symmetry without losing completeness.  The search is one loop over an
    explicit stack of colored edges, so it has no recursion-depth limit
    however many edges there are.  Each edge's forbidden colors are an int
    bitmask.  The wall-clock budget is polled every 1024 nodes.

    Hall's counting test prunes the tree.  The edges at either end of a
    host edge form a clique of the conflict graph (see
    :func:`_hall_cliques`), so its uncolored members need distinct colors
    from their free lists; when the union of those lists over the whole
    palette 1..k is smaller than their count, the node is treated like one
    with no candidate color.  The root tests every clique; each assignment
    then tests the cliques holding the colored edge or a neighbor that
    gained its color, once every uncolored member forbids that color
    (otherwise their union is unchanged).  Pruning removes only subtrees
    without a solution and leaves the branching order alone, so verdicts
    and SAT colorings are those of the plain search, which never takes
    fewer nodes.
    """
    if k < 1:
        raise ValueError(f"palette size must be >= 1, got {k}")
    m = cg.n
    if m == 0:
        return SolveResult("SAT", PartialColoring.empty(k, 0), 0, 0)
    start = time.monotonic()
    sees = cg.sees
    # bits 1..min(k, m): from m colors up every partial coloring extends,
    # so the palette past m never decides Hall's test and need not be held
    full = (2 << min(k, m)) - 2
    cliques = _hall_cliques(cg.base)
    # watch[e]: the cliques that meet e or an edge e sees, those that
    # coloring e can tighten.
    watch = []
    for e in range(m):
        ball = sum(1 << f for f in sees[e]) | 1 << e
        watch.append([c for c in cliques if c[0] & ball])
    forb = [0] * m  # bit c set: a colored neighbor has color c
    # Popcount of forb while uncolored, -1 once colored, so that
    # sat.index(max(sat)) is the branching edge.
    sat = [0] * m
    # One frame per colored edge: (edge, its untried color bits, the
    # uncolored neighbors whose forb gained its color, that color's bit,
    # max_used before it was colored).
    stack = []
    max_used = 0
    nodes = 0
    verdict = "UNSAT"
    # The root's lists are the whole palette: a clique dies when it is
    # larger than k.  After that, dead is the test on the node just made.
    dead = any(len(q) > k for _, q in cliques)
    while True:
        nodes += 1
        if not nodes & 1023 and time.monotonic() - start > time_budget:
            verdict = "TIMEOUT"
            break
        if len(stack) == m:
            verdict = "SAT"
            break
        if dead:
            cand = 0
        else:
            e = sat.index(max(sat))
            cand = ((2 << min(k, max_used + 1)) - 2) & ~forb[e]
        # No color left here: undo colored edges until one has another.
        while not cand and stack:
            e, cand, changed, bit, max_used = stack.pop()
            for e2 in changed:
                forb[e2] ^= bit
                sat[e2] -= 1
            sat[e] = forb[e].bit_count()
        if not cand:
            break
        bit = cand & -cand
        changed = [e2 for e2 in sees[e] if not forb[e2] & bit and sat[e2] >= 0]
        cm = 1 << e  # e and changed, as a bitmask
        for e2 in changed:
            forb[e2] |= bit
            sat[e2] += 1
            cm |= 1 << e2
        sat[e] = -1
        stack.append((e, cand ^ bit, changed, bit, max_used))
        col = bit.bit_length() - 1
        if col > max_used:
            max_used = col
        # Hall's test on the cliques holding e or an edge in changed.  A
        # clique keeps its union while some uncolored member has bit
        # free, so the loop over members stops at the first such one.
        dead = False
        for qm, q in watch[e]:
            if not qm & cm:
                continue
            both = -1  # colors every uncolored member forbids
            count = 0
            for f in q:
                if sat[f] >= 0:
                    x = forb[f]
                    if not x & bit:
                        break
                    both &= x
                    count += 1
            else:
                if (full & ~both).bit_count() < count:
                    dead = True
                    break
    elapsed = int((time.monotonic() - start) * 1000)
    if verdict == "SAT":
        colors = [0] * m
        for e, _, _, bit, _ in stack:
            colors[e] = bit.bit_length() - 1
        out = PartialColoring(k, colors)
        ok, _ = is_valid_strong_coloring(cg, out)
        assert ok, "solver emitted an invalid coloring"
        return SolveResult("SAT", out, nodes, elapsed)
    return SolveResult(verdict, None, nodes, elapsed)


def _greedy_bounds(cg):
    """Both greedy bounds from one descending-conflict-degree order.

    Returns (clique size, color count, colors): a maximal clique grown
    along the order is a lower bound, and first-fit coloring along the
    same order (colors 1..count, per conflict vertex) an upper bound.
    """
    clique = set()
    colors = [0] * cg.n
    used_max = 0
    for e in sorted(range(cg.n), key=lambda e: (-len(cg.sees[e]), e)):
        se = cg.sees[e]
        if clique.issubset(se):
            clique.add(e)
        taken = {colors[e2] for e2 in se if colors[e2]}
        col = 1
        while col in taken:
            col += 1
        colors[e] = col
        used_max = max(used_max, col)
    return len(clique), used_max, colors


class ChiResult(NamedTuple):
    status: str  # "OK" | "TIMEOUT"
    value: object  # exact minimum when OK, else None
    lower: int
    upper: int
    coloring: object  # certificate PartialColoring when OK
    nodes: int


def chi_s_exact(cg, time_budget=10.0):
    """The minimum palette size, with a certificate coloring.

    Brackets with a greedy clique (lower) and first-fit coloring (upper),
    both taken along one sort of the conflict vertices by descending
    degree, then runs the exact decision procedure on increasing k.  On
    budget exhaustion the bracketing interval found so far is reported.
    """
    if cg.n == 0:
        return ChiResult("OK", 0, 0, 0, PartialColoring.empty(0, 0), 0)
    lb, ub, greedy_cols = _greedy_bounds(cg)
    start = time.monotonic()
    total_nodes = 0
    k = lb
    while k < ub:
        remaining = time_budget - (time.monotonic() - start)
        if remaining <= 0:
            return ChiResult("TIMEOUT", None, lb, ub, None, total_nodes)
        res = k_colorable(cg, k, remaining)
        total_nodes += res.nodes
        if res.status == "SAT":
            return ChiResult("OK", k, k, k, res.coloring, total_nodes)
        if res.status == "TIMEOUT":
            return ChiResult("TIMEOUT", None, lb, ub, None, total_nodes)
        lb = k + 1
        k += 1
    cert = PartialColoring(ub, greedy_cols)
    ok, _ = is_valid_strong_coloring(cg, cert)
    assert ok, "greedy upper-bound coloring must be valid"
    return ChiResult("OK", ub, ub, ub, cert, total_nodes)
