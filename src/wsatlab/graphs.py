"""Compact undirected simple graphs on dense 0-based vertices.

Adjacency is kept as one Python int per vertex (bit i of ``rows[u]`` set
iff u~i), so neighborhood intersections are single word-parallel ``&``
operations.  ``n`` and ``rows`` are a graph's only state: the edge count
and completeness are read off the rows.  Graphs are treated as immutable by
every module except the closure engine, which mutates only its private
working copy.  Named patterns, enumerated graphs and decoded graph6 are
built as rows, not edge by edge: graph6 column v is row v's bits below v,
lowest first, so the codec reads and writes whole columns.
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


def make_clique(r: int) -> Graph:
    if r < 2:
        raise InputError("clique needs r >= 2")
    full = (1 << r) - 1
    return Graph.from_rows(r, [full ^ (1 << u) for u in range(r)])


def make_complete_bipartite(r: int, s: int) -> Graph:
    if r < 1 or s < 1:
        raise InputError("both parts must be nonempty")
    left, right = (1 << r) - 1, ((1 << s) - 1) << r
    return Graph.from_rows(r + s, [right] * r + [left] * s)


def make_double_barbell(r: int) -> Graph:
    """Two copies of K_r joined by a pair of vertex-disjoint edges."""
    if r < 4:
        raise InputError("double barbell needs r >= 4")
    k = make_clique(r).rows
    rows = k + [row << r for row in k]
    for a in (0, 1):
        rows[a] |= 1 << (r + a)
        rows[r + a] |= 1 << a
    return Graph.from_rows(2 * r, rows)


def enumerate_labeled_graphs(n: int) -> Iterator[Graph]:
    """All 2^C(n,2) labeled graphs on n vertices, in edge-mask order."""
    pairs = list(itertools.combinations(range(n), 2))
    if len(pairs) > 24:
        raise InputError("too many labeled graphs to enumerate")
    for mask in range(1 << len(pairs)):
        g = Graph(n)
        rows = g.rows
        m = mask
        while m:
            b = m & -m
            u, v = pairs[b.bit_length() - 1]
            rows[u] |= 1 << v
            rows[v] |= 1 << u
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
# Per the published graph6 format: N(n), then the upper triangle in column
# order (0,1),(0,2),(1,2),(0,3),... packed into 6-bit groups, each +63.

# A body character and its six flags, first flag first; a character
# missing here is outside the graph6 byte range.
_G6_FLAGS = {chr(c + 63): format(c, "06b") for c in range(64)}
_G6_CHARS = {flags: ch for ch, flags in _G6_FLAGS.items()}


def _g6_encode_n(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= MAX_TEXT_N:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    raise InputError(f"graph6 encoding limited to n <= {MAX_TEXT_N} here")


def _g6_flags(chars: str) -> str:
    """The six flags of each graph6 character, in order."""
    try:
        return "".join(map(_G6_FLAGS.__getitem__, chars))
    except KeyError as exc:
        raise InputError(f"bad graph6 byte {ord(exc.args[0])}") from None


def _g6_decode_n(data: str) -> tuple[int, int]:
    """Returns (n, chars consumed)."""
    if not data:
        raise InputError("empty graph6 input")
    if data[0] != "~":
        return int(_g6_flags(data[0]), 2), 1
    if len(data) < 4:
        raise InputError("truncated graph6 header")
    if data[1] == "~":
        raise InputError(f"graph6 n > {MAX_TEXT_N} not supported")
    return int(_g6_flags(data[1:4]), 2), 4


def serialize_graph6(g: Graph) -> str:
    header = _g6_encode_n(g.n)  # refuses a size it cannot encode up front
    flags = "".join(format(g.rows[v] & ((1 << v) - 1), f"0{v}b")[::-1]
                    for v in range(1, g.n))
    flags += "0" * (-len(flags) % 6)
    return header + "".join(
        [_G6_CHARS[flags[i:i + 6]] for i in range(0, len(flags), 6)])


def parse_graph6(text: str) -> Graph:
    data = text.strip()
    if data.startswith(">>graph6<<"):
        data = data[10:]
    n, pos = _g6_decode_n(data)
    if n < 1:
        raise InputError("graph6 graph must have n >= 1")
    need = n * (n - 1) // 2
    body = data[pos:]
    if len(body) != (need + 5) // 6:
        raise InputError(
            f"graph6 body length {len(body)}, expected {(need + 5) // 6}"
        )
    flags = _g6_flags(body)
    if "1" in flags[need:]:
        raise InputError("nonzero padding in graph6 body")
    # column v padded to n flags is block v of an n x n flag matrix: block u
    # holds row u below u, and the stride-n slice from u row u above u
    matrix = "".join(flags[v * (v - 1) // 2:v * (v + 1) // 2].ljust(n, "0")
                     for v in range(n))
    return Graph.from_rows(n, [
        int(matrix[u * n:u * n + n][::-1], 2) | int(matrix[u::n][::-1], 2)
        for u in range(n)
    ])
