"""Exact sparseness metrics: Ore degree, maximum average degree, bound formulas.

mad(G) is the maximum of 2|E(S)|/|S| over nonempty vertex subsets S.  It is
computed by Dinkelbach iteration on a min cut.  The start rho is the best
density |E(S)|/|S| over the sets a min-degree peel passes through
(Charikar's greedy peeling, APPROX 2000), computed with degree buckets in
O(n + m); it is already the maximum on most small graphs.  Each cut either
finds a set S denser than rho, which sets rho = |E(S)|/|S|, or proves that
no set beats rho.  rho rises strictly through the finitely many values
|E(S)|/|S|, so it stops exactly at the maximum density, and the witness is
read from the cut that proves it.  The cut is Goldberg's density network
(Goldberg 1984) with the flow that runs straight source -> v -> sink taken
out: only each vertex's excess d(v) - 2*rho over the host edges is routed,
which is Hakimi's orientation test (Hakimi 1965).  Taking that flow out
lowers every cut by the same constant, so the cuts, and the witness read
from them, are Goldberg's.

All rationals are ``fractions.Fraction``; nothing here ever rounds.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil


def ore_degree(g):
    """max d(u)+d(v) over edges uv; undefined (ValueError) for edgeless graphs."""
    if g.m == 0:
        raise ValueError("Ore degree is undefined for an edgeless graph")
    deg = g.degrees()
    return max([deg[u] + deg[v] for u, v in g.edges])


def conjectured_bound(theta):
    """Conjectured strong chromatic index bound as a function of the Ore degree.

    Four branches by theta mod 4, each quadratic in t = ceil(theta/4).
    Defined for theta >= 5.
    """
    if theta < 5:
        raise ValueError(f"bound formula requires theta >= 5, got {theta}")
    t = ceil(theta / 4)
    r = theta % 4
    if r == 1:
        return 5 * t * t - 8 * t + 3
    if r == 2:
        return 5 * t * t - 6 * t + 2
    if r == 3:
        return 5 * t * t - 4 * t + 1
    return 5 * t * t


def mad_upper_bound(theta):
    """Largest mad value a graph with Ore degree theta can attain.

    2k(k+1)/(2k+1) for odd theta = 2k+1, and k for even theta = 2k.
    """
    if theta < 2:
        raise ValueError(f"requires theta >= 2, got {theta}")
    k = theta // 2
    if theta % 2:
        return Fraction(2 * k * (k + 1), 2 * k + 1)
    return Fraction(k)


def mad_bruteforce(g):
    """Exhaustive mad over all nonempty vertex subsets (guard: n <= 20).

    Returns (value, witness) with the witness sorted; ties resolved toward
    the first maximizer in subset enumeration order.
    """
    if g.n > 20:
        raise ValueError(f"brute-force mad guarded at n <= 20, got n={g.n}")
    if g.m == 0:
        raise ValueError("mad is undefined for an edgeless graph")
    adj_mask = [0] * g.n
    for u, v in g.edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
    best = Fraction(-1)
    best_set = None
    for mask in range(1, 1 << g.n):
        size = mask.bit_count()
        inside = 0
        mm = mask
        while mm:
            v = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            inside += (adj_mask[v] & mask).bit_count()
        # inside counts every internal edge twice, so inside/size is
        # already the average degree of the induced subgraph.
        val = Fraction(inside, size)
        if val > best:
            best = val
            best_set = mask
    witness = tuple(v for v in range(g.n) if best_set >> v & 1)
    return best, witness


class _Dinic:
    """Max flow with integer capacities (arc list with residual pairing)."""

    def __init__(self, n):
        self.n = n
        self.head = [[] for _ in range(n)]
        self.to = []
        self.cap = []

    def add(self, u, v, c, back=0):
        """Arc u->v of capacity c, paired with its reverse v->u of capacity
        back; returns the id of u->v, whose residual capacity is cap[id]."""
        a = len(self.to)
        self.head[u].append(a)
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(a + 1)
        self.to.append(u)
        self.cap.append(back)
        return a

    def max_flow(self, s, t):
        """(flow, level): a maximum s-t flow, and the levels of the last
        breadth-first search, the one that found no augmenting path.  A
        node is on the source side of the minimum cut nearest s exactly
        when its level is >= 0."""
        head, to, cap = self.head, self.to, self.cap
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                for a in head[u]:
                    v = to[a]
                    if cap[a] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow, level
            # Blocking flow by one walk over an explicit arc stack: advance
            # along the level graph; at t push the path's bottleneck and
            # restart from s; at a dead end retreat one arc and skip it.
            # it[u] moves only past dead arcs, never after a push.
            it = [0] * self.n
            path = []
            u = s
            while True:
                if u == t:
                    pushed = min(cap[a] for a in path)
                    for a in path:
                        cap[a] -= pushed
                        cap[a ^ 1] += pushed
                    flow += pushed
                    path.clear()
                    u = s
                arcs = head[u]
                for i in range(it[u], len(arcs)):
                    a = arcs[i]
                    if cap[a] > 0 and level[to[a]] == level[u] + 1:
                        it[u] = i
                        path.append(a)
                        u = to[a]
                        break
                else:
                    if not path:
                        break
                    it[u] = len(arcs)
                    u = to[path.pop() ^ 1]
                    it[u] += 1

    def cannot_reach(self, t):
        """Per node, True when it cannot reach t in the residual network.

        After a maximum flow these nodes are the source side of the
        minimum cut farthest from the source, the largest one: the search
        walks backwards from t over the arcs with residual capacity left.
        """
        head, to, cap = self.head, self.to, self.cap
        stuck = [True] * self.n
        stuck[t] = False
        queue = [t]
        for v in queue:
            for a in head[v]:
                u = to[a]
                if stuck[u] and cap[a ^ 1] > 0:  # a ^ 1 is the arc u -> v
                    stuck[u] = False
                    queue.append(u)
        return stuck


def _peel_density(g):
    """The best |E(S)|/|S| over the sets a min-degree peel passes through.

    The whole graph comes first; then a vertex of least remaining degree
    leaves, one at a time.  Degrees only fall, and by one per removed
    neighbor, so lazy buckets indexed by degree find each minimum in
    amortized constant time: an entry whose vertex is gone, or whose
    degree has fallen since it was filed, is skipped.
    """
    n = g.n
    deg = g.degrees()
    buckets = [[] for _ in range(max(deg) + 1)]
    for v in range(n - 1, -1, -1):  # pop() takes the smallest id first
        buckets[deg[v]].append(v)
    gone = [False] * n
    edges, size = g.m, n
    best_edges, best_size = edges, size
    d = 0
    while edges:
        while not buckets[d]:
            d += 1
        v = buckets[d].pop()
        if gone[v] or deg[v] != d:
            continue
        gone[v] = True
        edges -= d
        size -= 1
        for u in g.neighbors(v):
            if not gone[u]:
                deg[u] -= 1
                buckets[deg[u]].append(u)
        if d:
            d -= 1
        if edges * best_size > best_edges * size:
            best_edges, best_size = edges, size
    return Fraction(best_edges, best_size)


def _density_cut(g, rho):
    """(beaten, S): whether some vertex set is denser than rho, and the
    largest vertex set S that maximises |E(S)| - rho*|S|.

    Goldberg's network with rho = a/b, scaled by b: source->v capacity
    m*b, v->sink capacity m*b + 2a - d(v)*b, and b both ways across each
    edge.  The cut with source side {s} union S has capacity
    n*m*b - 2b(|E(S)| - rho*|S|), so it dips below n*m*b exactly when S
    beats density rho.  Every path s->v->t is saturated first: that
    leaves source->v with the excess (d(v)*b - 2a)+, v->sink with the
    deficit (2a - d(v)*b)+, and lowers every cut's capacity by the same
    constant n*m*b - (total excess).  So the minimum cuts are unchanged,
    and some S beats rho exactly when the flow of this excess network
    stays below the total excess (Hakimi's orientation test).  S is the
    largest minimum-cut source side, the vertices that cannot reach the
    sink once the flow is in.  When S beats rho its density exceeds rho;
    when nothing does, S is the union of every set of density exactly rho
    (empty when no set attains rho).  The network is built also when no
    vertex has excess: the flow is then 0, and S is the union of the
    components in which every vertex has degree 2*rho.
    """
    n = g.n
    a, b = rho.numerator, rho.denominator
    s, t = n, n + 1
    net = _Dinic(n + 2)
    excess = 0
    for v, d in enumerate(g.degrees()):
        x = d * b - 2 * a
        if x > 0:
            net.add(s, v, x)
            excess += x
        elif x < 0:
            net.add(v, t, -x)
    for u, v in g.edges:
        net.add(u, v, b, b)
    flow, _ = net.max_flow(s, t)
    stuck = net.cannot_reach(t)
    return flow < excess, tuple(v for v in range(n) if stuck[v])


def mad_exact(g):
    """Exact mad(g) with a witnessing vertex subset.

    Returns (value, witness): value = 2 * rho_star as a Fraction, witness
    the sorted tuple of vertex ids of the largest densest subset (the union
    of all subsets of density rho_star).  Raises ValueError on an edgeless
    graph.

    rho starts at the peel's best density and only ever takes densities
    of actual sets, so when the cut at rho finds no denser set, rho is
    rho_star and is attained; that final cut's largest source side is then
    the union of all densest sets.
    """
    if g.m == 0:
        raise ValueError("mad is undefined for an edgeless graph")
    rho = _peel_density(g)
    while True:
        beaten, side = _density_cut(g, rho)
        if not beaten:
            return 2 * rho, side
        members = set(side)
        inside = sum(1 for u, v in g.edges if u in members and v in members)
        rho = Fraction(inside, len(side))
