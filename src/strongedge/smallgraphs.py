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

Most candidates are not the first of their class, and a pre-test skips
many of them before any key is computed.  Its invariant is the multiset of
(degree, triangles at the vertex) pairs.  The level is sorted by edge list;
take a candidate C from the parent at position i.  Suppose that for some
old vertex w, C - w is connected and every parent with the invariant of
C - w sits before position i.  Then C - w is isomorphic to a parent P
before position i, and P joined to the least mask in the orbit of the
image of w's neighbourhood is isomorphic to C and comes first, so C is
skipped.  This holds for any isomorphism invariant; a finer one skips
more.  The first candidate of a class never passes the test, so the
stream is unchanged.  Under max_edges the same holds: C - w has at most
max_edges - (n - size) - 1 edges, the previous level's cap, so its class
is in the level, and P and that mask pass their caps.  Each representative
carries its invariant and its triangles at each vertex, so a candidate's
invariant is updated from its parent's over the new vertex's neighbours
only, and that of C - w changes only at w and N(w): each neighbour u
loses one degree and the triangles through u and w, one per common
neighbour.

A graph is held as one adjacency bitmask per vertex, nothing else:
`_BITS[mask]` lists a mask's vertices, and `_edges` lists the edges for the
canonical key, the level's sort and each emitted `Graph`.

Keys are computed lazily.  Candidates that survive the pre-test are
bucketed by their invariant modulo a 64-bit prime.  Isomorphic graphs have
equal invariants, and the reduction only merges buckets, so a candidate
whose bucket is empty is a new class: it is emitted without a key, and the
bucket keeps the parent's position and the mask that built it, as one
integer.  On the bucket's first collision that graph is joined again and
keyed, and from then on every candidate that lands there is keyed and
checked against the keys seen.
Either way a candidate is emitted exactly when no earlier candidate
reached its class, so the stream is the one that keying every candidate
gives.  A parent's automorphism generators come from its key, computed
when it is extended.
For n = 8 the pre-test skips 59320 of the 71300 candidates, and 6832 of
the 11117 classes are emitted with no key; the call computes 6314 keys,
996 of them for the parents' generators.
"""

from __future__ import annotations

from math import comb

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

# The pre-test's invariant packs a graph's multiset of (degree, triangles
# at the vertex) pairs into one integer: a 4-bit count per pair (d, t) with
# t <= C(d, 2), 93 of them for MAX_N = 9, in order of d, then t.  The pairs
# of degree d start at slot C(d, 3) + d.  At most MAX_N < 16 vertices share
# a pair, so no count carries out of its 4 bits and the vertices' shares
# _UNIT[d][t] sum exactly.
# Buckets are invariants modulo this prime, 2^64 - 59.  Python's hash()
# would reduce them modulo 2^61 - 1, under which 16^s = 2^(4s mod 61): slots
# s and s + 61 would add the same amount and merge buckets of distinct
# invariants.
_BUCKET_PRIME = (1 << 64) - 59

_UNIT = [
    [1 << 4 * (comb(d, 3) + d + t) for t in range(comb(d, 2) + 1)]
    for d in range(MAX_N)
]

# _LOSS[d][t][k] is the change in the share of a vertex of degree d with t
# triangles when it loses one neighbour, and with it k triangles (None
# where no graph has that).
_LOSS = [[]] + [
    [
        [
            _UNIT[d][t] - _UNIT[d - 1][t - k] if t - k <= comb(d - 1, 2) else None
            for k in range(t + 1)
        ]
        for t in range(comb(d, 2) + 1)
    ]
    for d in range(1, MAX_N)
]

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


# _BITS[mask] is the tuple of vertices in a vertex bitmask, ascending.
_BITS = [tuple(_bits(mask)) for mask in range(1 << MAX_N)]


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
            [
                (c << MAX_N) + sum(map(weight.__getitem__, nb))
                for c, nb in zip(color, nbrs)
            ]
        )
        if count == cells:
            break
        color, cells = new, count
    return color, cells


def _edges(adj):
    """Edges (u, v), u < v, of the bitmasks `adj`, by v then u (graph6's)."""
    return [(u, v) for v, a in enumerate(adj) for u in _BITS[a & ~(-1 << v)]]


def _join(adj, mask):
    """`adj` with a new last vertex joined to the vertices in `mask`."""
    bit = 1 << len(adj)
    joined = [a | bit if mask >> u & 1 else a for u, a in enumerate(adj)]
    joined.append(mask)
    return joined


def _canonical_key(adj):
    """Canonical key of a graph and generators of its automorphism group.

    `adj[v]` is v's neighbourhood as a bitmask.  Two graphs on the same
    number of vertices have equal keys exactly when they are isomorphic.
    The generators are permutations as tuples, v -> g[v].
    """
    n = len(adj)
    nbrs = [_BITS[a] for a in adj]
    edges = _edges(adj)
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


def _connected_without(adj, w):
    """Whether the graph with adjacency bitmasks `adj` stays connected
    without vertex w, which is not its last vertex."""
    rest = ((1 << len(adj)) - 1) & ~(1 << w)
    reach = frontier = 1 << (len(adj) - 1)
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        grow = adj[low.bit_length() - 1] & rest & ~reach
        reach |= grow
        frontier |= grow
    return reach == rest


def _reached_earlier(top, index, adj, triangles, invariant):
    """Whether a parent before position `index` of the sorted level
    provably reaches the class of a candidate C, so that C cannot be the
    first candidate of its class.

    C's last vertex is the added one; `triangles[v]` counts the triangles
    at v and `invariant` is C's packed invariant.  `top` maps each
    invariant to the highest position in the level that carries it.  The
    answer is yes when, for some old vertex w, every parent with C - w's
    invariant comes before `index` and C - w is connected: then C - w is
    one of those parents, and the orbit leader of w's neighbourhood there
    gives C's class first.
    """
    # the latest old vertices first: at n <= 8 that tries 168161 vertices
    # over all candidates, against 285553 in ascending order
    for w in range(len(adj) - 2, -1, -1):
        near = adj[w]
        rest = invariant - _UNIT[near.bit_count()][triangles[w]]
        for u in _BITS[near]:
            rest -= _LOSS[adj[u].bit_count()][triangles[u]][(adj[u] & near).bit_count()]
        if top.get(rest, index) < index and _connected_without(adj, w):
            return True
    return False


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
    # representatives on `size - 1` vertices, sorted by edges: (adj,
    # triangles at each vertex, invariant)
    level = [([0], [0], _UNIT[0][0])]
    for size in range(2, n + 1):
        last = size == n
        new = size - 1
        top = {rep[2]: index for index, rep in enumerate(level)}
        # bucket of an invariant -> index << new | mask, the parent and mask
        # of the one class emitted with it so far; 0 once that is keyed
        buckets = {}
        seen = set()
        out = []
        count = 0
        for index, (adj, triangles, invariant) in enumerate(level):
            m = sum(a.bit_count() for a in adj) >> 1
            gens = _canonical_key(adj)[1]
            for mask in _orbit_leaders(new, gens):
                total = m + mask.bit_count()
                # every later vertex adds at least one edge (each parent
                # passed this test as a candidate one level down)
                if max_edges is not None and total + (n - size) > max_edges:
                    continue
                cadj = _join(adj, mask)
                ends = _BITS[mask]
                # each edge inside the mask closes one triangle with the
                # new vertex, counted here once from each end
                ctriangles = triangles[:]
                closed = 0
                cinvariant = invariant
                for u in ends:
                    inside = (adj[u] & mask).bit_count()
                    d = adj[u].bit_count()
                    t = triangles[u]
                    cinvariant += _UNIT[d + 1][t + inside] - _UNIT[d][t]
                    ctriangles[u] = t + inside
                    closed += inside
                ctriangles.append(closed >> 1)
                cinvariant += _UNIT[len(ends)][closed >> 1]
                if _reached_earlier(top, index, cadj, ctriangles, cinvariant):
                    continue
                bucket = cinvariant % _BUCKET_PRIME
                stored = buckets.get(bucket)
                if stored is None:
                    buckets[bucket] = index << new | mask
                else:
                    if stored:
                        at, founder = divmod(stored, 1 << new)
                        seen.add(_canonical_key(_join(level[at][0], founder))[0])
                        buckets[bucket] = 0
                    key = _canonical_key(cadj)[0]
                    if key in seen:
                        continue
                    seen.add(key)
                if last:
                    count += 1
                    yield Graph(size, _edges(cadj))
                else:
                    out.append((cadj, ctriangles, cinvariant))
        if last and max_edges is None:
            assert count == CONNECTED_COUNTS[n], (
                f"enumeration self-check failed at n={n}: {count}"
            )
        level = sorted(out, key=lambda rep: _edges(rep[0]))
