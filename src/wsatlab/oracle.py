"""Slow, obviously-correct references used as ground truth in differential
tests.  No dirty sets, no anchoring, no symmetry pruning: every non-edge is
retested every round by exhaustive subset-and-permutation search."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import Graph, InputError, edges_within, enumerate_labeled_graphs, vertex_mask


def _completes_somewhere(g: Graph, pair: tuple[int, int], h: Graph) -> bool:
    """Is there any copy of h in g + pair whose edges cover the pair?"""
    u, v = pair
    v_h = h.n
    if v_h > g.n:
        return False
    hedges = list(h.edges())
    e_h = h.edge_count
    others = [w for w in range(g.n) if w != u and w != v]
    for rest in itertools.combinations(others, v_h - 2):
        verts = (u, v) + rest
        # edges already present within the subset, plus the tested pair
        if edges_within(g, vertex_mask(verts)) + 1 < e_h:
            continue
        for perm in itertools.permutations(verts):
            covers = False
            ok = True
            for a, b in hedges:
                x, y = perm[a], perm[b]
                if (x == u and y == v) or (x == v and y == u):
                    covers = True
                elif not g.has_edge(x, y):
                    ok = False
                    break
            if ok and covers:
                return True
    return False


def naive_close(g: Graph, h: Graph) -> Graph:
    work = g.copy()
    while True:
        to_add = [
            pair for pair in work.non_edges() if _completes_somewhere(work, pair, h)
        ]
        if not to_add:
            return work
        for pair in to_add:
            work.add_edge(*pair)


@dataclass
class CensusResult:
    n: int
    total: int
    percolating: int
    by_edge_count: dict[int, tuple[int, int]]  # m -> (graphs, percolating)


def percolation_census(n: int, h: Graph) -> CensusResult:
    if n * (n - 1) // 2 > 20:
        raise InputError("census limited to C(n,2) <= 20")
    total = 0
    perc = 0
    by_m: dict[int, list[int]] = {}
    for g in enumerate_labeled_graphs(n):
        total += 1
        row = by_m.setdefault(g.edge_count, [0, 0])
        row[0] += 1
        if naive_close(g, h).is_complete():
            perc += 1
            row[1] += 1
    return CensusResult(
        n=n,
        total=total,
        percolating=perc,
        by_edge_count={m: (a, b) for m, (a, b) in sorted(by_m.items())},
    )
