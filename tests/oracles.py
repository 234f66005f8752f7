"""Independent reference implementations used to freeze expected test values.

Everything here works on bare ``(n, edges)`` data, a vertex count and a
list of (u, v) pairs, and deliberately avoids importing the package under
test.  The implementations favor the most literal definition over speed:
BFS in the line graph for the sees relation, plain backtracking in input
order for colorability (new colors opened in first-use order), subset
sweeps for density, permutation sweeps for subgraph embeddings and
isomorphism.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations


def norm_edges(edges):
    return sorted((u, v) if u < v else (v, u) for u, v in edges)


def line_graph_distance(n, edges, e1, e2):
    """BFS distance between two edges in the line graph; None if unreachable."""
    edges = norm_edges(edges)
    adj = {i: set() for i in range(len(edges))}
    for i, (a, b) in enumerate(edges):
        for j, (c, d) in enumerate(edges):
            if i != j and len({a, b} & {c, d}) > 0:
                adj[i].add(j)
    dist = {e1: 0}
    frontier = [e1]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist.get(e2)


def sees(n, edges, e1, e2):
    """Distance in the line graph is 1 or 2."""
    if e1 == e2:
        return False
    d = line_graph_distance(n, edges, e1, e2)
    return d is not None and d <= 2


def sees_pairs(n, edges):
    """All unordered edge-id pairs that see each other."""
    m = len(norm_edges(edges))
    return {
        (i, j)
        for i in range(m)
        for j in range(i + 1, m)
        if sees(n, edges, i, j)
    }


def strong_k_colorable(n, edges, k):
    """Plain backtracking: color edges in input order with colors 0..k-1.

    An edge may open a new color only as the highest color used so far
    plus one.  This loses no coloring: renaming the colors of any proper
    coloring in order of first use gives one of this form.
    """
    edges = norm_edges(edges)
    m = len(edges)
    conflict = [set() for _ in range(m)]
    for i, j in sees_pairs(n, edges):
        conflict[i].add(j)
        conflict[j].add(i)
    colors = [-1] * m

    def go(i, top):
        if i == m:
            return True
        used = {colors[j] for j in conflict[i] if colors[j] >= 0}
        for c in range(min(k, top + 2)):
            if c not in used:
                colors[i] = c
                if go(i + 1, max(top, c)):
                    return True
                colors[i] = -1
        return False

    return go(0, -1)


def strong_chromatic_index(n, edges):
    """Smallest k admitting a strong edge-coloring (0 for edgeless)."""
    if not edges:
        return 0
    k = 1
    while not strong_k_colorable(n, edges, k):
        k += 1
    return k


def max_average_degree(n, edges):
    """max over nonempty vertex subsets S of 2·|E(S)|/|S|, as a Fraction."""
    edges = norm_edges(edges)
    best = Fraction(0)
    for size in range(1, n + 1):
        for sub in combinations(range(n), size):
            s = set(sub)
            inside = sum(1 for u, v in edges if u in s and v in s)
            best = max(best, Fraction(2 * inside, size))
    return best


def largest_densest_subset(n, edges):
    """The largest vertex subset S maximising |E(S)|/|S|, as a sorted tuple.

    It is unique: the union of two densest subsets is again densest.
    """
    edges = norm_edges(edges)
    best, best_sub = Fraction(-1), ()
    for size in range(1, n + 1):
        for sub in combinations(range(n), size):
            s = set(sub)
            inside = sum(1 for u, v in edges if u in s and v in s)
            if Fraction(inside, size) >= best:
                best, best_sub = Fraction(inside, size), sub
    return best_sub


def has_sdr(sets):
    """Hall SDR existence by direct backtracking over the sets in order."""

    def go(i, used):
        if i == len(sets):
            return True
        for x in sets[i]:
            if x not in used:
                if go(i + 1, used | {x}):
                    return True
        return False

    return go(0, frozenset())


def find_sdr(sets):
    """One SDR as a list of representatives, or None."""
    reps = [None] * len(sets)

    def go(i, used):
        if i == len(sets):
            return True
        for x in sorted(sets[i]):
            if x not in used:
                reps[i] = x
                if go(i + 1, used | {x}):
                    return True
        return False

    return reps if go(0, frozenset()) else None


def matching_number(sets):
    """Most sets that can take pairwise distinct representatives.

    Backtracking over the sets in order, each taking an unused element or
    none, memoized on (set index, elements used).
    """
    sets = [frozenset(s) for s in sets]

    @lru_cache(maxsize=None)
    def go(i, used):
        if i == len(sets):
            return 0
        best = go(i + 1, used)
        for x in sets[i] - used:
            best = max(best, 1 + go(i + 1, used | {x}))
        return best

    return go(0, frozenset())


def subgraph_embeddings(n, edges, pat_n, pat_edges, vertex_ok=None):
    """All injective maps pattern-vertex -> host-vertex preserving pattern edges.

    Subgraph (not induced) semantics: pattern edges must be present, host
    may have extra edges.  ``vertex_ok(pv, hv)`` filters candidate images.
    Returns sorted tuples (image of 0, image of 1, ...).
    """
    edges = set(map(tuple, norm_edges(edges)))
    out = set()
    for perm in permutations(range(n), pat_n):
        if vertex_ok is not None and not all(
            vertex_ok(i, perm[i]) for i in range(pat_n)
        ):
            continue
        ok = True
        for a, b in pat_edges:
            x, y = perm[a], perm[b]
            if ((x, y) if x < y else (y, x)) not in edges:
                ok = False
                break
        if ok:
            out.add(tuple(perm))
    return sorted(out)


def are_isomorphic(n1, edges1, n2, edges2):
    """Permutation sweep isomorphism test (small n only)."""
    if n1 != n2 or len(edges1) != len(edges2):
        return False
    e2 = set(map(tuple, norm_edges(edges2)))
    for perm in permutations(range(n1)):
        if all(
            ((perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u]))
            in e2
            for u, v in edges1
        ):
            return True
    return False


def canonical_form(n, edges):
    """Lexicographically least edge tuple over all vertex permutations."""
    best = None
    for perm in permutations(range(n)):
        relabeled = tuple(
            sorted(
                (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
                for u, v in edges
            )
        )
        if best is None or relabeled < best:
            best = relabeled
    return (n, best)


def delete_vertex(n, edges, v):
    """Delete v and its incident edges; compact ids.

    Returns ``((n - 1, kept), mapping)`` where ``kept`` holds exactly the
    edges avoiding ``v``, renamed, and ``mapping`` sends each surviving
    old vertex id to its new id (v itself is absent from the mapping).
    """
    if not (0 <= v < n):
        raise ValueError(f"invalid vertex id {v}")
    mapping = {
        old: old if old < v else old - 1 for old in range(n) if old != v
    }
    kept = [(mapping[a], mapping[b]) for a, b in edges if v not in (a, b)]
    return (n - 1, kept), mapping


# Named small graphs, as (n, edges).

def path(k):
    return k, [(i, i + 1) for i in range(k - 1)]


def cycle(k):
    return k, [(i, (i + 1) % k) for i in range(k)]


def star(leaves):
    return leaves + 1, [(0, i) for i in range(1, leaves + 1)]


def complete(k):
    return k, [(i, j) for i in range(k) for j in range(i + 1, k)]


def complete_bipartite(a, b):
    return a + b, [(i, a + j) for i in range(a) for j in range(b)]


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return 10, outer + spokes + inner
