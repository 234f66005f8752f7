"""Graph representation, the distance-2 edge conflict relation, and I/O.

The central object is :class:`Graph`, an immutable simple undirected graph
with canonical vertex and edge indexing: vertices are ``0..n-1`` and edges
are stored as pairs ``(u, v)`` with ``u < v``, sorted lexicographically, so
edge ids are stable across runs.

Two edges *see* each other when they are at distance one or two in the line
graph: they share an endpoint, or a third edge is incident to both.  A
strong edge-coloring must give distinct colors to any two edges that see
each other, so coloring questions reduce to vertex coloring of the
:class:`ConflictGraph` built here.

I/O supports the short-form graph6 encoding (one graph per line) and a
plain edge-list text format.
"""

from __future__ import annotations

import bisect


# the tuples graphs share (see Graph), each its own key; cleared before it
# would pass _SHARED_LIMIT entries, so it never outgrows the bound
_SHARED_LIMIT = 1 << 16
_shared = {}

_G6_PAIR = [(u, v) for v in range(62) for u in range(v)]  # graph6 pair order

# largest n an edge list may give: Graph keeps two lists per vertex, ~150 MB
MAX_VERTICES = 10**6


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the byte position at fault."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class Graph:
    """Immutable simple undirected graph with canonical edge indexing.

    Vertices are the integers ``0..n-1``.  Edges are normalized to pairs
    ``(u, v)`` with ``u < v`` and sorted lexicographically; the position of
    a pair in :attr:`edges` is its edge id, and :meth:`edge_id` finds it by
    bisecting that tuple, so no second index is kept.  The same order
    builds every adjacency list ascending and pairs it with the incidence
    list: ``neighbors(v)[i]`` is the far end of ``incident_edges(v)[i]``.
    The graph6 encoding is kept once known: :func:`parse_graph6` stores
    the record it decoded and :func:`to_graph6` the string it built, so a
    graph is encoded at most once.  Equality and hashing ignore it; a
    pickled graph carries it.

    Graphs share their small tuples (hash-consing).  Each edge pair,
    ``neighbors(v)`` and ``incident_edges(v)`` is replaced by an equal
    tuple from a module table when one is there, so graphs hold one object
    for each distinct pair or list: a sweep keeps its whole corpus alive,
    and the 12113 connected graphs with n <= 8 have only 3588 distinct
    such tuples.  The table holds at most ``_SHARED_LIMIT`` entries; a
    graph whose tuples would pass the bound clears it first.  That only
    stops later graphs sharing with earlier ones, since shared tuples stay
    alive through the graphs that hold them.  A graph with more tuples
    than the bound shares only among its own.  Sharing changes no read,
    since tuples are immutable and compared by value: equality, hashing
    and lookups are as before, and a pickle stores the values, so an
    unpickled graph holds equal tuples of its own.
    """

    __slots__ = ("_n", "_edges", "_adj", "_incident", "_graph6")

    def __init__(self, n, edges):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        normalized = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            normalized.append((u, v) if u < v else (v, u))
        normalized.sort()
        adj = [[] for _ in range(n)]
        incident = [[] for _ in range(n)]
        for eid, (u, v) in enumerate(normalized):
            # sorted order puts a repeat right after its pair: v is then
            # already the last neighbor u received
            if adj[u] and adj[u][-1] == v:
                raise ValueError(f"duplicate edge {(u, v)}")
            adj[u].append(v)
            adj[v].append(u)
            incident[u].append(eid)
            incident[v].append(eid)
        count = len(normalized) + 2 * n
        if len(_shared) + count > _SHARED_LIMIT:
            _shared.clear()
        share = (_shared if count <= _SHARED_LIMIT else {}).setdefault
        self._n = n
        self._edges = tuple([share(p, p) for p in normalized])
        self._adj = tuple([share(t, t) for t in map(tuple, adj)])
        self._incident = tuple([share(t, t) for t in map(tuple, incident)])
        self._graph6 = None

    @property
    def n(self):
        """Number of vertices."""
        return self._n

    @property
    def m(self):
        """Number of edges."""
        return len(self._edges)

    @property
    def edges(self):
        """All edges as (u, v) pairs with u < v, in edge-id order."""
        return self._edges

    def neighbors(self, v):
        """Sorted neighbors of v."""
        return self._adj[v]

    def degree(self, v):
        return len(self._adj[v])

    def max_degree(self):
        return max((len(a) for a in self._adj), default=0)

    def has_edge(self, u, v):
        return 0 <= u < self._n and v in self._adj[u]

    def edge_id(self, u, v):
        """Edge id of (u, v); raises KeyError if the edge is absent."""
        pair = (u, v) if u < v else (v, u)
        e = bisect.bisect_left(self._edges, pair)
        if e < len(self._edges) and self._edges[e] == pair:
            return e
        raise KeyError(pair)

    def endpoints(self, e):
        """The pair (u, v) of edge id e."""
        return self._edges[e]

    def incident_edges(self, v):
        """Edge ids incident to v, ascending."""
        return self._incident[v]

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __hash__(self):
        return hash((self._n, self._edges))

    def __repr__(self):
        return f"Graph(n={self._n}, m={self.m})"


class ConflictGraph:
    """The *sees* relation of a host graph, as an explicit graph on edge ids.

    Vertex ``e`` of the conflict graph is edge ``e`` of the host; two
    vertices are adjacent exactly when the host edges see each other.
    """

    __slots__ = ("base", "sees")

    def __init__(self, base, sees):
        self.base = base
        self.sees = sees

    @property
    def n(self):
        """Number of conflict vertices (= host edge count)."""
        return len(self.sees)

    def __repr__(self):
        return f"ConflictGraph(edges={self.n})"


def build_conflict_graph(g):
    """Compute the full sees-relation of g as a :class:`ConflictGraph`.

    For edge e = (u, v), every edge that sees e is incident to some vertex
    of N(u) ∪ N(v) (the endpoints themselves included, since u ∈ N(v)), so
    the neighborhood is gathered by one sweep over that vertex set.
    """
    sees = []
    for e, (u, v) in enumerate(g.edges):
        near = set()
        ball = set(g.neighbors(u)) | set(g.neighbors(v))
        for x in ball:
            near.update(g.incident_edges(x))
        near.discard(e)
        sees.append(tuple(sorted(near)))
    return ConflictGraph(g, tuple(sees))


def is_connected(g):
    """True when g has one component (graphs on <= 1 vertex count)."""
    if g.n <= 1:
        return True
    seen = {0}
    stack = [0]
    while stack:
        for u in g.neighbors(stack.pop()):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.n


def parse_graph6(line):
    """Decode one short-form graph6 record (n ≤ 62, no ``>>graph6<<`` header).

    Raises :class:`Graph6Error` with the offending byte offset on malformed
    input: bad length field, characters outside the printable range
    63..126, truncation, trailing bytes, or nonzero padding bits.  Those
    checks leave exactly one valid record per graph, so the graph keeps
    the record as its graph6 encoding.
    """
    if isinstance(line, bytes):
        data = line
    else:
        try:
            data = line.encode("ascii")
        except UnicodeEncodeError as exc:
            raise Graph6Error(
                f"character {line[exc.start]!r} is not ASCII", exc.start
            ) from None
    data = data.rstrip(b"\r\n")
    if not data:
        raise Graph6Error("empty input", 0)
    first = data[0]
    if first == 126:
        raise Graph6Error("long-form length field not supported (n > 62)", 0)
    if not (63 <= first <= 125):
        raise Graph6Error(f"length byte {first} out of range", 0)
    n = first - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - 1 < nbytes:
        raise Graph6Error(
            f"truncated: need {nbytes} data bytes for n={n}, got {len(data) - 1}",
            len(data),
        )
    if len(data) - 1 > nbytes:
        raise Graph6Error("trailing bytes after graph data", 1 + nbytes)
    # the data bytes' six-bit groups, big-endian: pair k is bit
    # 6 * nbytes - 1 - k, and the padding, under six bits, ends the last byte
    bits = 0
    for i in range(1, 1 + nbytes):
        byte = data[i]
        if not (63 <= byte <= 126):
            raise Graph6Error(f"data byte {byte} out of range", i)
        bits = bits << 6 | byte - 63
    if bits & ((1 << (6 * nbytes - nbits)) - 1):
        raise Graph6Error("nonzero padding bits", nbytes)
    edges = []
    while bits:
        low = bits & -bits
        edges.append(_G6_PAIR[6 * nbytes - low.bit_length()])
        bits ^= low
    g = Graph(n, edges)
    g._graph6 = data.decode("ascii")
    return g


def to_graph6(g):
    """Encode g in short-form graph6 (requires n ≤ 62).

    The encoding is stored on g (a :class:`Graph` is immutable), so later
    calls, and graphs read by :func:`parse_graph6`, return it at once.
    """
    if g._graph6 is not None:
        return g._graph6
    n = g.n
    if n > 62:
        raise ValueError(f"short-form graph6 requires n <= 62, got {n}")
    # pair k of the column order is bit top - k, padding zeros below
    top = (n * (n - 1) // 2 + 5) // 6 * 6 - 1
    bits = 0
    for u, v in g.edges:
        bits |= 1 << top - (v * (v - 1) // 2 + u)
    g._graph6 = chr(n + 63) + "".join(
        [chr((bits >> shift & 63) + 63) for shift in range(top - 5, -1, -6)]
    )
    return g._graph6


def _decimal(text):
    """int(text) for an optional ``-`` and ASCII digits only; int() alone
    also takes ``+``, ``_``, whitespace and other scripts' digits."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an ASCII decimal: {text!r}")
    return int(text)


def parse_edge_list(text):
    """Parse the plain edge-list format.

    Lines hold ``u v`` with 0-based ids; blank lines and ``#`` comments are
    ignored; an optional first (non-comment) line ``n=<count>`` fixes the
    vertex count, otherwise n = 1 + max id.  Ids and the count are ASCII
    decimal.  Self-loops, duplicate edges, negative ids and counts, and any
    count or 1 + id above ``MAX_VERTICES`` are rejected with the line
    number, before any per-vertex list is built.
    """
    n_declared = None
    edges = []
    seen = set()
    first_content = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if first_content and line.startswith("n="):
            try:
                n_declared = _decimal(line[2:].strip())
            except ValueError:
                raise ValueError(f"line {lineno}: bad vertex count {line!r}")
            if not 0 <= n_declared <= MAX_VERTICES:
                raise ValueError(f"line {lineno}: n not in 0..{MAX_VERTICES}")
            first_content = False
            continue
        first_content = False
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = _decimal(parts[0]), _decimal(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer id in {raw!r}")
        if not (0 <= u < MAX_VERTICES and 0 <= v < MAX_VERTICES):
            raise ValueError(f"line {lineno}: vertex id not in 0..{MAX_VERTICES - 1}")
        if u == v:
            raise ValueError(f"line {lineno}: self-loop at {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate edge {key}")
        seen.add(key)
        edges.append(key)
    n = (1 + max(max(e) for e in edges)) if edges else 0
    if n_declared is not None:
        if n > n_declared:
            raise ValueError(
                f"edge id {n - 1} exceeds declared vertex count {n_declared}"
            )
        n = n_declared
    return Graph(n, edges)
