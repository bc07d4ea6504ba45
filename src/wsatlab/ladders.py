"""H-ladders: construction, the subgraph-density lemma, induced-ladder counts.

A ladder of height h chains h copies of the pattern minus two non-incident
rung edges, consecutive copies sharing a rung, topped by a single present
rung.  It is an edge-minimal witness graph for its (absent) base pair,
which is (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .closure import close
from .graphs import Graph, InputError, canon_edge, edges_within, host_pair, vertex_mask
from .patterns import PatternStats, Report

Edge = tuple[int, int]


@dataclass
class Ladder:
    graph: Graph                     # base (0, 1) is a non-edge
    rungs: list[Edge]                # (u_i, v_i) for i = 0..h; only the top is an edge
    steps: list[frozenset[int]]      # vertex sets of the steps S_1..S_h
    height: int
    size: int                        # (v_H - 2) * h


def build_ladder(h_graph: Graph, height: int) -> Ladder:
    """The height-``height`` ladder of ``h_graph``; its rungs are the
    lexicographically least pair of non-incident edges of the pattern."""
    if height < 1:
        raise InputError("height must be >= 1")
    edges = list(h_graph.edges())
    rung_edges = next(((e, f) for i, e in enumerate(edges) for f in edges[i + 1:]
                      if not set(e) & set(f)), None)
    if rung_edges is None:
        raise InputError("pattern has no pair of non-incident edges")
    (a0, b0), (a1, b1) = rung_edges
    v_h = h_graph.n
    others = sorted(set(range(v_h)) - {a0, b0})
    n = 2 + (v_h - 2) * height
    g = Graph(n)
    rungs: list[Edge] = [(0, 1)]
    steps: list[frozenset[int]] = []
    skip = set(rung_edges)
    for i in range(height):
        u_prev, v_prev = rungs[-1]
        fresh = 2 + (v_h - 2) * i
        image = {a0: u_prev, b0: v_prev}
        for off, x in enumerate(others):
            image[x] = fresh + off
        for x, y in edges:
            if (x, y) not in skip:
                g.add_edge(image[x], image[y])
        rungs.append(canon_edge(image[a1], image[b1]))
        steps.append(frozenset(image.values()))
    g.add_edge(*rungs[-1])

    size = (v_h - 2) * height
    expected_edges = (h_graph.edge_count - 2) * height + 1
    if g.edge_count != expected_edges:
        raise AssertionError(
            f"ladder edge count {g.edge_count} != (e_H-2)h+1 = {expected_edges}"
        )
    return Ladder(
        graph=g,
        rungs=rungs,
        steps=steps,
        height=height,
        size=size,
    )


# -- the density lemma ---------------------------------------------------------


def verify_ladder_lemma(ladder: Ladder, stats: PatternStats) -> Report:
    """Exhaustive scan of all proper induced subgraphs X of the ladder.

    Strictly balanced pattern (xi > 0): checks e(X) <= lambda*x - xi*sigma
    and that sigma = 0 exactly for x = 0 or X a union of bottom steps.
    Otherwise degrades to the weaker e(X) <= lambda*x for X containing the
    base endpoints.
    """
    g = ladder.graph
    n = g.n
    if n > 24:
        raise InputError("exhaustive subgraph scan limited to 24 vertices")
    lam = stats.lam
    assert lam is not None
    strict = stats.xi is not None and stats.xi > 0 and stats.strictly_balanced
    rep = Report(name="ladder-lemma")
    rep.details["mode"] = "strict" if strict else "degenerate"

    step_masks = [vertex_mask(vs) for vs in ladder.steps]
    # each step minus the vertices of its bottom rung
    upper_masks = [sm & ~vertex_mask(rung) for sm, rung in zip(step_masks, ladder.rungs)]
    prefix_unions = set()
    acc = 0
    for m in step_masks[:-1]:
        acc |= m
        prefix_unions.add(acc)

    base_mask = 0b11
    equalities: list[int] = []
    for mask in range(1 << n):
        if mask == (1 << n) - 1:
            continue  # X must be proper
        if not strict and (mask & base_mask) != base_mask:
            continue
        x = (mask & ~base_mask).bit_count()
        edges = edges_within(g, mask)
        rep.checked += 1
        if strict:
            sigma = sum(
                1
                for sm, um in zip(step_masks, upper_masks)
                if (mask & sm) != sm and (mask & um)
            )
            bound = lam * x - stats.xi * sigma  # type: ignore[operator]
            if edges > bound:
                rep.violations.append(
                    f"mask {mask:b}: {edges} edges > {bound} (x={x}, sigma={sigma})"
                )
            sigma_zero_expected = x == 0 or mask in prefix_unions
            if (sigma == 0) != sigma_zero_expected:
                rep.violations.append(
                    f"mask {mask:b}: sigma={sigma} but expected-zero={sigma_zero_expected}"
                )
            if edges == bound and x > 0:
                equalities.append(mask)
        else:
            if Fraction(edges) > lam * x:
                rep.violations.append(f"mask {mask:b}: {edges} edges > lambda*x")
    if strict:
        rep.details["equality_masks"] = equalities
        rep.details["prefix_union_masks"] = sorted(prefix_unions)
    return rep


# -- induced ladders in a host ---------------------------------------------------


def count_induced_ladders_at(g: Graph, pair: tuple[int, int], ladder: Ladder) -> int:
    """Number of labeled embeddings of the ladder into g with the base on
    ``pair`` whose image induces exactly the ladder's edges.

    The base is placed in canonical orientation (min(pair) -> u_0), and the
    remaining vertices are counted as ordered tuples, matching the labeled
    enumeration behind the expected-count formula; in particular the base
    pair and all non-top rungs must be non-edges of g inside the image.
    A pair that is not two vertices of g raises InputError.
    """
    u, v = host_pair(g, pair)
    lg = ladder.graph
    k2 = lg.n
    if g.n < k2:
        return 0
    if g.has_edge(u, v):
        return 0  # the base pair must be induced absent

    full = (1 << g.n) - 1
    rows = g.rows
    # ladder adjacency as masks over earlier-placed vertices
    adj = [[lg.has_edge(i, j) for j in range(i)] for i in range(k2)]
    image = [u, v] + [-1] * (k2 - 2)
    count = 0

    def extend(i: int, used: int) -> None:
        nonlocal count
        if i == k2:
            count += 1
            return
        cand = full & ~used
        for j in range(i):
            if adj[i][j]:
                cand &= rows[image[j]]
            else:
                cand &= ~rows[image[j]]
        while cand:
            b = cand & -cand
            image[i] = b.bit_length() - 1
            cand ^= b
            extend(i + 1, used | b)

    extend(2, 1 << u | 1 << v)
    return count


# -- closure behaviour -------------------------------------------------------------


def ladder_closure_check(ladder: Ladder, h_graph: Graph) -> Report:
    """The ladder percolates top-down: rung (u_{h-j}, v_{h-j}) joins in round j."""
    rep = Report(name="ladder-closure")
    trace = close(ladder.graph, h_graph)
    h = ladder.height
    round_edges = [set(e for e, _ in rnd.added) for rnd in trace.rounds]
    for j in range(1, h + 1):
        rep.checked += 1
        rung = ladder.rungs[h - j]
        if j > len(round_edges) or rung not in round_edges[j - 1]:
            rep.violations.append(f"rung {rung} not added in round {j}")
    return rep
