import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from wsatlab import closure
from wsatlab.closure import (
    _clique_close_seq,
    _k4_closure_cliques,
    close,
    closure_contains_edge,
    find_completion,
    percolates,
)
from wsatlab.graphs import Graph, bits, make_clique, make_complete_bipartite
from wsatlab.oracle import enumerate_labeled_graphs, naive_close
from wsatlab.experiments import sample_gnp
from wsatlab.patterns import relabel


def test_find_completion_simple():
    # K_4 minus one edge: the missing pair completes a K_4
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    emb = find_completion(g, (2, 3), make_clique(4))
    assert emb is not None
    assert sorted(emb.mapping) == [0, 1, 2, 3]
    assert emb.pair == (2, 3)
    # every copy edge except the pair is present
    for u, v in emb.copy_edges(make_clique(4)):
        assert (u, v) == (2, 3) or g.has_edge(u, v)


def test_find_completion_none():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert find_completion(g, (0, 2), make_clique(4)) is None


def test_close_records_certified_rounds():
    # path on 4 vertices closes to K_4 under K_3 in two rounds
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    trace = close(g, make_clique(3))
    assert trace.final.is_complete()
    assert [r.t for r in trace.rounds] == [1, 2]
    assert sorted(e for e, _ in trace.rounds[0].added) == [(0, 2), (1, 3)]
    assert [e for e, _ in trace.rounds[1].added] == [(0, 3)]
    # embeddings certify against the pre-round graph
    work = g.copy()
    for rnd in trace.rounds:
        for pair, emb in rnd.added:
            for u, v in emb.copy_edges(make_clique(3)):
                assert (u, v) == pair or work.has_edge(u, v)
        for pair, _ in rnd.added:
            work.add_edge(*pair)


def test_close_is_idempotent_and_monotone():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])
    h = make_clique(3)
    final = close(g, h).final
    assert close(final, h).final == final
    for u, v in g.edges():
        assert final.has_edge(u, v)


def test_oracle_equivalence_all_graphs_n5_k4():
    h = make_clique(4)
    for g in enumerate_labeled_graphs(5):
        assert close(g, h).final == naive_close(g, h)


@pytest.mark.parametrize("seed", range(12))
def test_oracle_equivalence_random_n10_k5(seed):
    g = sample_gnp(10, 0.5, 9000 + seed)
    h = make_clique(5)
    assert close(g, h).final == naive_close(g, h)


def test_sequential_clique_engine_matches_round_engine():
    h = make_clique(4)
    for seed in range(25):
        g = sample_gnp(12, 0.3, 400 + seed)
        seq, flag = _clique_close_seq(g, 4)
        assert not flag
        assert seq == close(g, h).final


def test_percolates_matches_oracle_small():
    h = make_clique(4)
    for seed in range(60):
        g = sample_gnp(8, 0.35 + (seed % 4) * 0.1, 50 + seed)
        assert percolates(g, h) == naive_close(g, h).is_complete()


def test_percolates_k2_always():
    assert percolates(Graph(5), make_clique(2))


def test_percolates_noncomplete_pattern():
    # C_4 pattern: path 0-1-2-3 plus chord behaviour checked via oracle
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    for seed in range(20):
        g = sample_gnp(7, 0.4, 700 + seed)
        assert percolates(g, c4) == naive_close(g, c4).is_complete()


def test_disconnected_pattern_full_rescan():
    # two disjoint edges as the pattern: adding any pair with an edge elsewhere
    h = Graph.from_edges(4, [(0, 1), (2, 3)])
    g = Graph.from_edges(5, [(0, 1)])
    trace = close(g, h)
    assert trace.final == naive_close(g, h)
    assert trace.final.is_complete()


def test_closure_contains_edge_early_exit():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    h = make_clique(3)
    assert closure_contains_edge(g, h, (0, 3))
    assert closure_contains_edge(g, h, (0, 1))
    g2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not closure_contains_edge(g2, h, (0, 3))


def test_closure_contains_edge_k4_matches_oracle_all_graphs_n5():
    h = make_clique(4)
    for n in range(2, 6):
        for g in enumerate_labeled_graphs(n):
            final = naive_close(g, h)
            for pair in itertools.combinations(range(n), 2):
                assert closure_contains_edge(g, h, pair) == final.has_edge(*pair)


def test_closure_contains_edge_matches_round_engine_random(monkeypatch):
    """K_4 and K_5 on 200 random G(n, p), 7 <= n <= 12, every pair; the K_5
    calls reach both the infection certificate and, where it fails, the
    work queue stopped at the target."""
    reached = {True: 0, False: 0}
    spans = closure._infection_spans

    def counted_spans(*args):
        found = spans(*args)
        reached[found] += 1
        return found

    monkeypatch.setattr(closure, "_infection_spans", counted_spans)
    rng = random.Random(2024)
    for t in range(200):
        n = rng.randint(7, 12)
        r = 4 + t % 2
        h = make_clique(r)
        g = sample_gnp(n, rng.uniform(0.25, 0.55) + 0.15 * (r - 4), 6000 + t)
        final = close(g, h).final
        for pair in itertools.combinations(range(n), 2):
            assert closure_contains_edge(g, h, pair) == final.has_edge(*pair)
    assert reached[True] > 0 and reached[False] > 0


def test_bipartite_pattern_against_oracle():
    h = make_complete_bipartite(2, 2)  # same graph as C_4
    for seed in range(10):
        g = sample_gnp(7, 0.45, 150 + seed)
        assert close(g, h).final == naive_close(g, h)


def test_k3_percolation_is_connectivity_all_graphs_n5():
    h = make_clique(3)
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            assert percolates(g, h) == naive_close(g, h).is_complete()


# -- the K_4 clique process ---------------------------------------------------


def clique_union(n: int, cliques: list[int]) -> Graph:
    rows = [0] * n
    for a in cliques:
        for x in bits(a):
            rows[x] |= a & ~(1 << x)
    return Graph.from_rows(n, rows)


def assert_k4_cliques_valid(cliques: list[int]) -> None:
    """Each mask spans at least an edge, and no two share two vertices."""
    assert all(a.bit_count() >= 2 for a in cliques)
    for a, b in itertools.combinations(cliques, 2):
        assert (a & b).bit_count() <= 1


def test_k4_cliques_match_oracle_all_graphs_n5():
    h = make_clique(4)
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            cliques = _k4_closure_cliques(g)
            assert_k4_cliques_valid(cliques)
            assert clique_union(n, cliques) == naive_close(g, h)


def test_k4_cliques_match_sequential_engine_all_graphs_n6():
    for g in enumerate_labeled_graphs(6):
        cliques = _k4_closure_cliques(g)
        assert_k4_cliques_valid(cliques)
        assert clique_union(6, cliques) == _clique_close_seq(g, 4)[0]


@pytest.mark.parametrize(
    "n,edges,expected",
    [
        # triangle 012 with pendant edge 23: clique {2,3} meets 012 once
        (4, [(0, 1), (0, 2), (1, 2), (2, 3)], [0b0111, 0b1100]),
        # bowtie: two triangles sharing vertex 2 stay apart
        (5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)], [0b00111, 0b11100]),
        # K_4 minus an edge closes
        (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], [0b1111]),
        # triangle 012; 0345 and 1367 are K_4 minus 03 and minus 13, which
        # close by two-vertex merges; only then do the three cliques meet
        # pairwise in 0, 1 and 3, and the closure is K_8
        (8, [(0, 1), (0, 2), (1, 2),
             (0, 4), (0, 5), (4, 5), (3, 4), (3, 5),
             (1, 6), (1, 7), (6, 7), (3, 6), (3, 7)], [0xFF]),
    ],
    ids=["pendant-edge", "bowtie", "k4-minus-edge", "merge-then-triangle"],
)
def test_k4_cliques_named_cases(n, edges, expected):
    g = Graph.from_edges(n, edges)
    assert _k4_closure_cliques(g) == expected
    assert clique_union(n, expected) == naive_close(g, make_clique(4))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 14), st.floats(0.0, 0.6), st.integers(0, 2**32), st.randoms())
def test_k4_cliques_match_sequential_engine_under_relabelling(n, p, seed, rnd):
    g = sample_gnp(n, p, seed)
    perm = list(range(n))
    rnd.shuffle(perm)
    expected = _clique_close_seq(g, 4)[0]
    for graph, closed in ((g, expected), (relabel(g, perm), relabel(expected, perm))):
        cliques = _k4_closure_cliques(graph)
        assert_k4_cliques_valid(cliques)
        assert clique_union(n, cliques) == closed
        assert percolates(graph, make_clique(4)) == closed.is_complete()
