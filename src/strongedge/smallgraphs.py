"""Isomorph-free streaming of small connected graphs.

Generation is by vertex augmentation: every connected graph on k+1 vertices
arises from a connected graph on k vertices by adding one vertex joined to a
nonempty subset of the old ones (order the vertices by BFS discovery to see
this), so extending every representative by every nonempty subset and
rejecting isomorphs level by level is exhaustive.

Isomorph rejection uses a canonical key computed by individualization and
refinement (McKay, *Practical Graph Isomorphism*, 1981).  An ordered vertex
partition is refined until it is equitable: each vertex is recoloured by
its colour and the multiset of its neighbours' colours, packed exactly into
one integer.  If cells remain, the first non-singleton cell is split by
individualizing each of its vertices in turn, and the search recurses.  Two
vertices u, v are twins when their neighbourhoods agree apart from u and v
themselves; swapping twins is an automorphism that fixes everything chosen
so far, so only one vertex per twin class is individualized.  Each leaf of the
search is a discrete partition, that is, an ordering of the vertices.  The
key is the least relabelled edge set over the orderings reached; the search
tree depends only on isomorphism-invariant data, so equal keys mean
isomorphic graphs.  Orderings that reach the key differ by automorphisms,
and together with the twin swaps they generate the automorphism group.

Parents are extended by orbit representatives only (McKay, *Isomorph-free
exhaustive generation*, 1998): masks in one orbit of Aut(parent) give
isomorphic children, so each parent is joined only to the least mask of
each orbit.  The emitted stream is unchanged by this: each class is still
emitted as the first candidate that reaches it in (parent, mask) order, and
that candidate is always the least mask of its orbit.
"""

from __future__ import annotations

from .graph import Graph

# Connected simple graphs on 1..9 vertices, one count per order.  The
# stream self-checks against these on exhaustion (full runs only).
CONNECTED_COUNTS = {
    1: 1,
    2: 1,
    3: 2,
    4: 6,
    5: 21,
    6: 112,
    7: 853,
    8: 11117,
    9: 261080,
}

MAX_N = 9

# Colours are cell starts.  A vertex has at most k neighbours in a cell of
# k vertices starting at c, and the next cell starts at c + k, so adding
# 1 << c per such neighbour stays within bits c..c+k-1: the sum over all
# neighbours encodes the multiset of their colours exactly, below 1 << n.
_WEIGHT = [1 << c for c in range(MAX_N)]

# _PAIR[a][b] is the key bit of an edge between positions a and b.
_PAIR = [
    [1 << (min(a, b) * MAX_N + max(a, b)) for b in range(MAX_N)]
    for a in range(MAX_N)
]


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _partition(sig):
    """Colour each vertex by the position where its cell starts when the
    vertices are sorted by `sig`; also return the number of cells."""
    n = len(sig)
    ordered = sorted(sig)
    start = dict(zip(ordered[::-1], range(n - 1, -1, -1)))
    return [start[s] for s in sig], len(start)


def _refine(nbrs, color, cells):
    """Refine an ordered partition, given as by `_partition`, until it is
    equitable.  Cells split in place, so the order of the input partition
    is kept.
    """
    n = len(color)
    while cells < n:
        weight = [_WEIGHT[c] for c in color]
        new, count = _partition(
            [(c << MAX_N) + sum([weight[u] for u in nb]) for c, nb in zip(color, nbrs)]
        )
        if count == cells:
            break
        color, cells = new, count
    return color, cells


def _canonical_key(n, adj, nbrs, edges):
    """Canonical key of a graph and generators of its automorphism group.

    `adj[v]` is v's neighbourhood as a bitmask and `nbrs[v]` as a tuple.
    Two graphs on n vertices have equal keys exactly when they are
    isomorphic.  The generators are permutations as tuples, v -> g[v].
    """
    best_key = None
    best = []  # orderings (vertex -> position) that reach best_key
    gens = []

    def leaf(pos):
        nonlocal best_key
        key = sum([_PAIR[pos[u]][pos[v]] for u, v in edges])
        if best_key is None or key < best_key:
            best_key = key
            best[:] = [pos]
        elif key == best_key:
            best.append(pos)

    def visit(color, cells):
        if cells == n:
            leaf(color)
            return
        cell_of = {}
        for v, c in enumerate(color):
            cell_of.setdefault(c, []).append(v)
        s = min(c for c, cell in cell_of.items() if len(cell) > 1)
        target = cell_of[s]
        reps = []
        for v in target:
            for r in reps:
                if adj[v] & ~(1 << r) == adj[r] & ~(1 << v):
                    swap = list(range(n))
                    swap[r], swap[v] = v, r
                    gens.append(tuple(swap))
                    break
            else:
                reps.append(v)
        for v in reps:
            child = color[:]
            for w in target:
                child[w] = s + 1
            child[v] = s
            visit(*_refine(nbrs, child, cells + 1))

    visit(*_refine(nbrs, *_partition([len(nb) for nb in nbrs])))
    inverse = [0] * n
    for v, p in enumerate(best[0]):
        inverse[p] = v
    gens.extend(tuple(inverse[p] for p in pos) for pos in best[1:])
    return best_key, gens


def _orbit_leaders(k, gens):
    """The nonempty subsets of k vertices, as bitmasks, that are least in
    their orbit under the group the permutations `gens` generate, ascending.
    """
    full = 1 << k
    if not gens:
        return range(1, full)
    images = []
    for g in gens:
        img = [0] * full
        for m in range(1, full):
            low = m & -m
            img[m] = img[m ^ low] | (1 << g[low.bit_length() - 1])
        images.append(img)
    seen = bytearray(full)
    leaders = []
    for m in range(1, full):
        if seen[m]:
            continue
        leaders.append(m)
        seen[m] = 1
        stack = [m]
        while stack:
            x = stack.pop()
            for img in images:
                y = img[x]
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
    return leaders


def enumerate_connected(n, max_edges=None):
    """Stream one representative per isomorphism class of connected graphs
    on exactly n vertices, optionally only those with at most max_edges
    edges.  Deterministic order.  The built-in ceiling is n = 9; larger
    corpora must be supplied externally.
    """
    if not 1 <= n <= MAX_N:
        raise ValueError(f"supported range is 1 <= n <= {MAX_N}, got {n}")
    if max_edges is not None and max_edges < n - 1:
        return
    if n == 1:
        yield Graph(1, [])
        return
    # representatives on `size - 1` vertices: (edges, adj, nbrs, generators)
    level = [((), [0], [()], [])]
    for size in range(2, n + 1):
        last = size == n
        new = size - 1
        bit = 1 << new
        joined = [tuple(_bits(mask)) for mask in range(1 << new)]
        seen = set()
        out = []
        count = 0
        for edges, adj, nbrs, gens in level:
            m = len(edges)
            # every later vertex adds at least one edge
            if max_edges is not None and m + 1 + (n - size) > max_edges:
                continue
            for mask in _orbit_leaders(new, gens):
                total = m + mask.bit_count()
                if max_edges is not None and total + (n - size) > max_edges:
                    continue
                cand = edges + tuple((u, new) for u in joined[mask])
                cadj = [a | bit if mask >> u & 1 else a for u, a in enumerate(adj)]
                cadj.append(mask)
                cnbrs = [
                    nb + (new,) if mask >> u & 1 else nb for u, nb in enumerate(nbrs)
                ]
                cnbrs.append(joined[mask])
                key, cgens = _canonical_key(size, cadj, cnbrs, cand)
                if key in seen:
                    continue
                seen.add(key)
                if last:
                    count += 1
                    yield Graph(size, list(cand))
                else:
                    out.append((cand, cadj, cnbrs, cgens))
        if last and max_edges is None:
            assert count == CONNECTED_COUNTS[n], (
                f"enumeration self-check failed at n={n}: {count}"
            )
        level = sorted(out, key=lambda rep: rep[0])
