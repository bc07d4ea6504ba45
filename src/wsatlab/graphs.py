"""Compact undirected simple graphs on dense 0-based vertices.

Adjacency is kept as one Python int per vertex (bit i of ``rows[u]`` set
iff u~i), so neighborhood intersections are single word-parallel ``&``
operations.  ``n`` and ``rows`` are a graph's only state: the edge count
and completeness are read off the rows.  Graphs are treated as immutable by
every module except the closure engine, which mutates only its private
working copy.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator


class InputError(ValueError):
    """An argument or input file that the library refuses: a bad vertex
    pair, size, probability or parameter, or a malformed graph.  ``wsat``
    exits 2 on it; a plain ValueError from the library is an internal
    failure."""


def canon_edge(u: int, v: int) -> tuple[int, int]:
    """Canonical unordered pair (u < v)."""
    if u == v:
        raise InputError(f"self-loop ({u},{v})")
    return (u, v) if u < v else (v, u)


def host_pair(g: Graph, pair: tuple[int, int]) -> tuple[int, int]:
    """``pair`` as (u, v), u < v, after checking that both are vertices of g."""
    u, v = canon_edge(*pair)
    if u < 0 or v >= g.n:
        raise InputError(f"pair {pair} is not two vertices of 0..{g.n - 1}")
    return u, v


class Graph:
    __slots__ = ("n", "rows")

    def __init__(self, n: int):
        if n < 1:
            raise InputError("graph needs at least one vertex")
        self.n = n
        self.rows = [0] * n

    # -- construction ---------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        g = cls(n)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    @classmethod
    def from_rows(cls, n: int, rows: list[int]) -> "Graph":
        g = cls(n)
        g.rows = list(rows)
        return g

    def copy(self) -> "Graph":
        return Graph.from_rows(self.n, self.rows)

    def add_edge(self, u: int, v: int) -> None:
        u, v = host_pair(self, (u, v))
        if self.rows[u] >> v & 1:
            raise ValueError(f"duplicate edge ({u},{v})")
        self.rows[u] |= 1 << v
        self.rows[v] |= 1 << u

    def without_edge(self, u: int, v: int) -> "Graph":
        """A copy of the graph with the edge uv removed."""
        if not self.has_edge(u, v):
            raise ValueError(f"({u},{v}) is not an edge")
        g = self.copy()
        g.rows[u] &= ~(1 << v)
        g.rows[v] &= ~(1 << u)
        return g

    # -- queries ---------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.rows)) // 2

    def degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    def min_degree(self) -> int:
        return min(self.degree(u) for u in range(self.n))

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            r = self.rows[u] >> (u + 1) << (u + 1)
            while r:
                v = (r & -r).bit_length() - 1
                yield (u, v)
                r &= r - 1

    def non_edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if not self.rows[u] >> v & 1:
                    yield (u, v)

    def is_complete(self) -> bool:
        return self.edge_count == self.n * (self.n - 1) // 2

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def bits(mask: int) -> list[int]:
    """Indices of set bits, ascending."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def vertex_mask(vertices: Iterable[int]) -> int:
    """Bitmask of a vertex set."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def edges_within(g: Graph, mask: int) -> int:
    """Number of edges of g with both ends in the vertex bitmask ``mask``."""
    rows = g.rows
    twice = 0
    m = mask
    while m:
        b = m & -m
        twice += (rows[b.bit_length() - 1] & mask).bit_count()
        m ^= b
    return twice // 2


# -- named patterns -------------------------------------------------------


def make_complete(n: int) -> Graph:
    if n < 1:
        raise InputError("n >= 1 required")
    full = (1 << n) - 1
    return Graph.from_rows(n, [full ^ (1 << u) for u in range(n)])


def make_clique(r: int) -> Graph:
    if r < 2:
        raise InputError("clique needs r >= 2")
    return make_complete(r)


def make_complete_bipartite(r: int, s: int) -> Graph:
    if r < 1 or s < 1:
        raise InputError("both parts must be nonempty")
    g = Graph(r + s)
    for u in range(r):
        for v in range(r, r + s):
            g.add_edge(u, v)
    return g


def make_double_barbell(r: int) -> Graph:
    """Two copies of K_r joined by a pair of vertex-disjoint edges."""
    if r < 4:
        raise InputError("double barbell needs r >= 4")
    g = Graph(2 * r)
    for a in range(r):
        for b in range(a + 1, r):
            g.add_edge(a, b)
            g.add_edge(r + a, r + b)
    g.add_edge(0, r)
    g.add_edge(1, r + 1)
    return g


def enumerate_labeled_graphs(n: int) -> Iterator[Graph]:
    """All 2^C(n,2) labeled graphs on n vertices, in edge-mask order."""
    pairs = list(itertools.combinations(range(n), 2))
    if len(pairs) > 24:
        raise InputError("too many labeled graphs to enumerate")
    for mask in range(1 << len(pairs)):
        g = Graph(n)
        m = mask
        while m:
            b = m & -m
            g.add_edge(*pairs[b.bit_length() - 1])
            m ^= b
        yield g


# -- connectivity ---------------------------------------------------------


def is_connected(g: Graph) -> bool:
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        for u in bits(frontier):
            nxt |= g.rows[u]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << g.n) - 1


# -- edge-list text format -------------------------------------------------
# First line: n in decimal.  Each following non-empty line: "u v".

# The largest n the graph6 header encodes; a larger edge-list count is
# refused before any rows are allocated.
MAX_TEXT_N = 258047


def parse_edge_list(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise InputError("empty edge-list input")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise InputError(f"bad vertex count line: {lines[0]!r}") from exc
    if n > MAX_TEXT_N:
        raise InputError(f"vertex count {n} above {MAX_TEXT_N}")
    g = Graph(n)
    for ln in lines[1:]:
        try:
            u, v = (int(x) for x in ln.split())
        except ValueError:
            raise InputError(f"bad edge line: {ln!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"vertex out of range in line {ln!r}")
        if g.has_edge(u, v):
            raise InputError(f"duplicate edge in line {ln!r}")
        g.add_edge(u, v)  # raises on a self-loop
    return g


def serialize_edge_list(g: Graph) -> str:
    out = [str(g.n)]
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"


# -- graph6 ----------------------------------------------------------------
# Per the published graph6 format: N(n) then the upper triangle in column
# order (_g6_pairs) packed into 6-bit groups, each +63.


def _g6_pairs(n: int) -> Iterator[tuple[int, int]]:
    """The pairs of n vertices in graph6 column order (0,1),(0,2),(1,2),(0,3),...

    Built from C-level iterators: a Python generator here made
    ``serialize_graph6`` about 1.6 times slower at n = 1500."""
    return itertools.chain.from_iterable(
        zip(range(v), itertools.repeat(v)) for v in range(1, n)
    )


def _g6_encode_n(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= MAX_TEXT_N:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    raise InputError(f"graph6 encoding limited to n <= {MAX_TEXT_N} here")


def _g6_decode_n(data: str) -> tuple[int, int]:
    """Returns (n, chars consumed)."""
    if not data:
        raise InputError("empty graph6 input")
    c = ord(data[0])
    if c != 126:  # '~'
        if not 63 <= c <= 126:
            raise InputError(f"bad graph6 byte {c}")
        return c - 63, 1
    if len(data) < 4:
        raise InputError("truncated graph6 header")
    if data[1] == "~":
        raise InputError(f"graph6 n > {MAX_TEXT_N} not supported")
    n = 0
    for ch in data[1:4]:
        c = ord(ch)
        if not 63 <= c <= 126:
            raise InputError(f"bad graph6 byte {c}")
        n = n << 6 | (c - 63)
    return n, 4


def serialize_graph6(g: Graph) -> str:
    n = g.n
    out = [_g6_encode_n(n)]
    acc = 0
    nbits = 0
    for u, v in _g6_pairs(n):
        acc = acc << 1 | (g.rows[u] >> v & 1)
        nbits += 1
        if nbits == 6:
            out.append(chr(acc + 63))
            acc = 0
            nbits = 0
    if nbits:
        acc <<= 6 - nbits
        out.append(chr(acc + 63))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    data = text.strip()
    if data.startswith(">>graph6<<"):
        data = data[10:]
    n, pos = _g6_decode_n(data)
    if n < 1:
        raise InputError("graph6 graph must have n >= 1")
    g = Graph(n)
    need = n * (n - 1) // 2
    body = data[pos:]
    if len(body) != (need + 5) // 6:
        raise InputError(
            f"graph6 body length {len(body)}, expected {(need + 5) // 6}"
        )
    # the pairs are distinct and in range, so the rows are set directly
    rows = g.rows
    pairs = _g6_pairs(n)
    for ch in body:
        c = ord(ch)
        if not 63 <= c <= 126:
            raise InputError(f"bad graph6 byte {c}")
        group = c - 63
        for k in range(5, -1, -1):
            pair = next(pairs, None)   # None once every pair is read: padding
            if group >> k & 1:
                if pair is None:
                    raise InputError("nonzero padding in graph6 body")
                u, v = pair
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return g
