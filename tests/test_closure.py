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
from wsatlab.graphs import (
    Graph,
    bits,
    enumerate_labeled_graphs,
    make_clique,
    make_complete_bipartite,
    make_double_barbell,
)
from wsatlab.oracle import naive_close
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


# small non-clique patterns, each checked on every graph with n <= 5
SMALL_PATTERNS = {
    "C4": Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "diamond": Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    "paw": Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    "K1,3": make_complete_bipartite(1, 3),
    "2K2": Graph.from_edges(4, [(0, 1), (2, 3)]),
    "P3+K1": Graph.from_edges(4, [(0, 1), (1, 2)]),
    "K2,3": make_complete_bipartite(2, 3),
}


def test_percolates_noncomplete_pattern():
    for h in SMALL_PATTERNS.values():
        for n in range(1, 6):
            for g in enumerate_labeled_graphs(n):
                assert percolates(g, h) == naive_close(g, h).is_complete()
    c4 = SMALL_PATTERNS["C4"]
    for seed in range(20):
        g = sample_gnp(7, 0.4, 700 + seed)
        assert percolates(g, c4) == naive_close(g, c4).is_complete()


class ExitCounter:
    """Counts calls of ``closure._rounds`` (a non-clique ``percolates`` or
    ``closure_contains_edge`` call that makes none was settled by the
    degree rule) and infection certificates that span or fail."""

    def __init__(self, monkeypatch):
        self.rounds = 0
        self.infection = {True: 0, False: 0}
        rounds, spans = closure._rounds, closure._infection_spans

        def counted_rounds(*args):
            self.rounds += 1
            return rounds(*args)

        def counted_spans(*args):
            found = spans(*args)
            self.infection[found] += 1
            return found

        monkeypatch.setattr(closure, "_rounds", counted_rounds)
        monkeypatch.setattr(closure, "_infection_spans", counted_spans)


def test_percolates_dense_patterns_match_round_engine(monkeypatch):
    """K_{3,3} and DD_4 on seeded G(n, p), 8 <= n <= 16, against the round
    engine; the degree rule fires, and the infection certificate both spans
    and fails."""
    counter = ExitCounter(monkeypatch)
    rng = random.Random(77)
    rejected = 0
    for t in range(200):
        h = make_complete_bipartite(3, 3) if t % 2 else make_double_barbell(4)
        n = rng.randint(8, 16)
        g = sample_gnp(n, rng.uniform(0.2, 0.5), 8800 + t)
        expected = close(g, h).final.is_complete()
        rounds_before = counter.rounds
        assert percolates(g, h) == expected
        rejected += counter.rounds == rounds_before
    assert rejected > 0  # percolates returned before any round: the degree rule
    assert counter.infection[True] > 0 and counter.infection[False] > 0


def test_infection_needs_a_pattern_without_isolated_vertices():
    # H = K_4 + K_1 has minimum degree 0.  Round 1 closes K_4 minus an edge
    # on 0..3, but pendant vertex 4 needs two present edges to gain one, so
    # the closure is not complete although 4 has a neighbour in the K_4.
    h = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (0, 4)])
    assert len(close(g, h).rounds) == 1
    assert not naive_close(g, h).is_complete()
    assert not percolates(g, h)
    assert not closure_contains_edge(g, h, (1, 4))


PROPERTY_PATTERNS = {**SMALL_PATTERNS, "K3,3": make_complete_bipartite(3, 3)}


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(sorted(PROPERTY_PATTERNS)),
    st.integers(1, 9),
    st.floats(0.0, 0.9),
    st.integers(0, 2**32),
    st.randoms(),
)
def test_percolates_noncomplete_relabelling_and_monotone(name, n, p, seed, rnd):
    h = PROPERTY_PATTERNS[name]
    g = sample_gnp(n, p, seed)
    perm = list(range(n))
    rnd.shuffle(perm)
    verdict = percolates(g, h)
    assert verdict == close(g, h).final.is_complete()
    assert percolates(relabel(g, perm), h) == verdict
    if verdict:
        for pair in g.non_edges():
            more = g.copy()
            more.add_edge(*pair)
            assert percolates(more, h)


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


def test_closure_contains_edge_noncomplete_matches_round_engine(monkeypatch):
    """C_4 and K_{2,3} on random G(n, p), every pair, against the round
    engine; the degree rule at the endpoints refutes some targets, and the
    infection certificate both spans and fails."""
    counter = ExitCounter(monkeypatch)
    rng = random.Random(31)
    refuted = 0
    for t in range(120):
        h = make_complete_bipartite(2, 3) if t % 2 else make_complete_bipartite(2, 2)
        n = rng.randint(5, 11)
        g = sample_gnp(n, rng.uniform(0.1, 0.5), 5100 + t)
        final = close(g, h).final
        for pair in itertools.combinations(range(n), 2):
            rounds_before = counter.rounds
            assert closure_contains_edge(g, h, pair) == final.has_edge(*pair)
            refuted += not g.has_edge(*pair) and counter.rounds == rounds_before
    assert refuted > 0
    assert counter.infection[True] > 0 and counter.infection[False] > 0


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
