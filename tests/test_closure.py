import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from wsatlab import closure
from wsatlab.closure import (
    Embedding,
    _clique_close_seq,
    _clique_kernel,
    close,
    closure_contains_edge,
    find_completion,
    percolates,
)
from wsatlab.graphs import (
    Graph,
    bits,
    canon_edge,
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


# -- the anchored search against its reference ------------------------------


def reference_plans(h: Graph) -> list[tuple[tuple[int, int], list[int]]]:
    """The search plans without their cuts: every edge-orbit representative
    of h under Aut(h) (every edge when v_H > 8), sorted, in both
    orientations, each with its vertex order (anchor first, then most
    placed neighbours, then least id)."""
    edges = list(h.edges())
    autos = [
        perm
        for perm in itertools.permutations(range(h.n))
        if all(h.has_edge(perm[u], perm[v]) for u, v in edges)
    ] if h.n <= 8 else [range(h.n)]
    reps = sorted(
        {min(canon_edge(perm[u], perm[v]) for perm in autos) for u, v in edges}
    )
    plans = []
    for a, b in reps:
        for x, y in ((a, b), (b, a)):
            order = [x, y]
            rest = [z for z in range(h.n) if z not in order]
            while rest:
                best = max(rest, key=lambda z: (
                    sum(h.has_edge(z, w) for w in order), -z))
                order.append(best)
                rest.remove(best)
            plans.append(((a, b), order))
    return plans


def reference_completion(g: Graph, pair, h: Graph, plans) -> Embedding | None:
    """``find_completion`` over ``plans``: the first plan with a copy gives
    the least image vector, host candidates taken in ascending order."""
    u, v = pair

    def extend(order, image, used):
        i = len(image)
        if i == len(order):
            return True
        cand = (1 << g.n) - 1 & ~used
        for j in range(i):
            if h.has_edge(order[i], order[j]):
                cand &= g.rows[image[j]]
        for w in bits(cand):
            image.append(w)
            if extend(order, image, used | 1 << w):
                return True
            image.pop()
        return False

    for anchor, order in plans:
        image = [u, v]
        if extend(order, image, 1 << u | 1 << v):
            mapping = [0] * h.n
            for x, w in zip(order, image):
                mapping[x] = w
            return Embedding(mapping=tuple(mapping), anchor=anchor, pair=(u, v))
    return None


PAW = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def test_search_plans_one_per_arc_orbit():
    def anchors(h):
        return [tuple(plan.order[:2]) for plan in closure.pattern_info(h).plans]

    for r in range(3, 7):
        assert anchors(make_clique(r)) == [(0, 1)]
    assert len(anchors(make_complete_bipartite(3, 3))) == 1
    assert anchors(make_double_barbell(4)) == [(0, 1), (0, 2), (2, 0), (0, 4), (2, 3)]
    # no automorphism of the paw swaps the ends of its pendant edge 23
    assert anchors(PAW) == [(0, 1), (0, 2), (2, 0), (2, 3), (3, 2)]
    # past 8 vertices there is no automorphism scan: every edge, both ways
    dd5 = make_double_barbell(5)
    assert len(anchors(dd5)) == 2 * dd5.edge_count
    # K_4: position 3 (vertex 3) is a twin of position 2 (vertex 2)
    assert closure.pattern_info(make_clique(4)).plans[0].twin_floor == [-1, -1, -1, 2]


@pytest.mark.parametrize("name", ["K3", "K4", "C4", "paw", "diamond", "K1,3", "P4", "K2,3"])
def test_find_completion_matches_reference_all_graphs(name):
    """Every non-edge of every graph with n <= 5: the same Embedding as
    the search over both orientations of every orbit rep, without twin
    order."""
    h = {
        "K3": make_clique(3),
        "K4": make_clique(4),
        "P4": Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
        **SMALL_PATTERNS,
    }[name]
    plans = reference_plans(h)
    for n in range(2, 6):
        for g in enumerate_labeled_graphs(n):
            for pair in g.non_edges():
                assert find_completion(g, pair, h) == reference_completion(g, pair, h, plans)


def test_find_completion_matches_reference_random():
    """K_5, K_{3,3} and DD_4 on 200 seeded G(n, p), 8 <= n <= 16, every
    non-edge; some DD_4 copies come from the reversed plan (2, 0), which
    no automorphism makes redundant."""
    patterns = [make_clique(5), make_complete_bipartite(3, 3), make_double_barbell(4)]
    plans = [reference_plans(h) for h in patterns]
    rng = random.Random(909)
    found = [0, 0, 0]
    reversed_dd4 = 0
    for t in range(200):
        k = t % 3
        h = patterns[k]
        n = rng.randint(8, 16)
        g = sample_gnp(n, rng.uniform(0.3, 0.7), 9900 + t)
        for pair in g.non_edges():
            emb = find_completion(g, pair, h)
            assert emb == reference_completion(g, pair, h, plans[k])
            if emb is not None:
                found[k] += 1
                reversed_dd4 += k == 2 and emb.anchor == (0, 2) and emb.mapping[2] == pair[0]
    assert min(found) > 0 and reversed_dd4 > 0


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
        assert _clique_close_seq(g, 4) == close(g, h).final


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
    "paw": PAW,
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
    degree rule or the first kernel run) and clique kernel runs that span
    or fail, in all and among the re-runs after a round."""

    def __init__(self, monkeypatch):
        self.rounds = 0
        self.kernel = {True: 0, False: 0}
        self.rerun = {True: 0, False: 0}
        self.in_rounds = False
        rounds, kernel = closure._rounds, closure._clique_kernel

        def counted_rounds(*args):
            self.rounds += 1
            self.in_rounds = True
            try:
                yield from rounds(*args)
            finally:
                self.in_rounds = False

        def counted_kernel(*args):
            rows = kernel(*args)
            self.kernel[rows is None] += 1
            if self.in_rounds:
                self.rerun[rows is None] += 1
            return rows

        monkeypatch.setattr(closure, "_rounds", counted_rounds)
        monkeypatch.setattr(closure, "_clique_kernel", counted_kernel)


def test_percolates_dense_patterns_match_round_engine(monkeypatch):
    """K_{3,3} and DD_4 on seeded G(n, p), 8 <= n <= 16, against the round
    engine; the degree rule fires, and the clique kernel both spans and
    fails, also when re-run after a round."""
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
        rejected += not expected and counter.rounds == rounds_before
    assert rejected > 0  # refuted before any round: the degree rule
    assert counter.kernel[True] > 0 and counter.kernel[False] > 0
    assert counter.rerun[True] > 0 and counter.rerun[False] > 0


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


def test_kernel_spans_from_one_clique_when_delta_is_one(monkeypatch):
    # The paw (a triangle with a pendant edge) has delta_H = 1, so a
    # triangle of g absorbs every other vertex: mapping the pendant vertex
    # to the isolated vertex 3 and its neighbour into the triangle adds an
    # edge at 3 with no edge there.  The kernel spans before any round.
    counter = ExitCounter(monkeypatch)
    h = SMALL_PATTERNS["paw"]
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])
    assert naive_close(g, h).is_complete()
    assert percolates(g, h)
    assert closure_contains_edge(g, h, (0, 3))
    assert counter.rounds == 0 and counter.kernel == {True: 2, False: 0}


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
    final = close(g, h).final
    verdict = percolates(g, h)
    assert verdict == final.is_complete()
    assert percolates(relabel(g, perm), h) == verdict
    for pair in itertools.combinations(range(n), 2):
        assert closure_contains_edge(g, h, pair) == final.has_edge(*pair)
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


@pytest.mark.parametrize("name", ["K2", "K3", *SMALL_PATTERNS])
def test_closure_contains_edge_matches_oracle_all_graphs(name):
    """Every graph with n <= 5 and every pair, K_4 aside (its own test
    above), against ``naive_close``; K_2 closes even an edgeless graph."""
    h = {"K2": make_clique(2), "K3": make_clique(3), **SMALL_PATTERNS}[name]
    for n in range(2, 6):
        for g in enumerate_labeled_graphs(n):
            final = naive_close(g, h)
            for pair in itertools.combinations(range(n), 2):
                assert closure_contains_edge(g, h, pair) == final.has_edge(*pair)


class QueueCounter:
    """Counts calls of the residue work queue ``closure._clique_close_seq``;
    a K_r call, r >= 5, that makes none was settled by the kernel alone."""

    def __init__(self, monkeypatch):
        self.calls = 0
        queue = closure._clique_close_seq

        def counted_queue(*args):
            self.calls += 1
            return queue(*args)

        monkeypatch.setattr(closure, "_clique_close_seq", counted_queue)


def test_closure_contains_edge_matches_round_engine_random(monkeypatch):
    """K_4 and K_5 on 200 random G(n, p), 7 <= n <= 12, every pair; the K_5
    calls are settled both by the kernel alone and by the residue queue."""
    counter = QueueCounter(monkeypatch)
    kernel_only = 0
    rng = random.Random(2024)
    for t in range(200):
        n = rng.randint(7, 12)
        r = 4 + t % 2
        h = make_clique(r)
        g = sample_gnp(n, rng.uniform(0.25, 0.55) + 0.15 * (r - 4), 6000 + t)
        final = close(g, h).final
        for pair in itertools.combinations(range(n), 2):
            calls = counter.calls
            assert closure_contains_edge(g, h, pair) == final.has_edge(*pair)
            kernel_only += r == 5 and not g.has_edge(*pair) and counter.calls == calls
    assert kernel_only > 0 and counter.calls > 0


def test_closure_contains_edge_noncomplete_matches_round_engine(monkeypatch):
    """C_4 and K_{2,3} on random G(n, p), every pair, against the round
    engine; the degree rule at the endpoints refutes some targets, and the
    clique kernel both spans and fails, also when re-run after a round."""
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
            refuted += not final.has_edge(*pair) and counter.rounds == rounds_before
    assert refuted > 0
    assert counter.kernel[True] > 0 and counter.kernel[False] > 0
    assert counter.rerun[True] > 0 and counter.rerun[False] > 0


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


# -- the clique kernel ----------------------------------------------------------


def kernel_closure(g: Graph, r: int) -> Graph:
    """The graph U of ``_clique_kernel``, complete when one clique spans."""
    rows = _clique_kernel(g, r - 1, r - 2)
    if rows is None:
        return make_clique(g.n)
    return Graph.from_rows(g.n, rows)


def is_subgraph(small: Graph, big: Graph) -> bool:
    return all(s & ~b == 0 for s, b in zip(small.rows, big.rows))


def test_k3_kernel_is_the_closure_all_graphs():
    """K_3: the kernel against the oracle for n <= 5, and against the work
    queue for n = 6."""
    h = make_clique(3)
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            assert kernel_closure(g, 3) == naive_close(g, h)
    for g in enumerate_labeled_graphs(6):
        assert kernel_closure(g, 3) == _clique_close_seq(g, 3)


def test_k4_cliques_match_oracle_all_graphs_n5():
    h = make_clique(4)
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            assert kernel_closure(g, 4) == naive_close(g, h)


def test_k4_cliques_match_sequential_engine_all_graphs_n6():
    for g in enumerate_labeled_graphs(6):
        assert kernel_closure(g, 4) == _clique_close_seq(g, 4)


@pytest.mark.parametrize("r", [5, 6])
def test_kernel_then_queue_all_graphs_n6(r, monkeypatch):
    """K_5 and K_6 on every graph with n <= 6: the kernel's union lies
    between g and the closure, and the queue on it gives the closure.
    ``percolates`` answers yes by the kernel alone on some graphs and runs
    the residue queue on others."""
    counter = QueueCounter(monkeypatch)
    h = make_clique(r)
    kernel_yes = 0
    for n in range(1, 7):
        for g in enumerate_labeled_graphs(n):
            expected = _clique_close_seq(g, r)
            union = kernel_closure(g, r)
            assert is_subgraph(g, union) and is_subgraph(union, expected)
            assert _clique_close_seq(union, r) == expected
            calls = counter.calls
            assert percolates(g, h) == expected.is_complete()
            kernel_yes += n > 1 and union.is_complete() and counter.calls == calls
    assert kernel_yes > 0 and counter.calls > 0


@pytest.mark.parametrize("r", [5, 6])
def test_kernel_then_queue_random(r):
    """K_5 and K_6 on seeded G(n, p), 7 <= n <= 40, around p = n^(-1/lambda)
    with lambda = (C(r, 2) - 2) / (r - 2), where some graphs percolate and
    some do not."""
    lam = (r * (r - 1) / 2 - 2) / (r - 2)
    rng = random.Random(500 + r)
    verdicts = set()
    for t in range(60):
        n = rng.randint(7, 40)
        p = rng.uniform(0.6, 1.6) * n ** (-1 / lam)
        g = sample_gnp(n, p, 7100 + 100 * r + t)
        expected = _clique_close_seq(g, r)
        union = kernel_closure(g, r)
        assert is_subgraph(g, union) and is_subgraph(union, expected)
        assert _clique_close_seq(union, r) == expected
        verdicts.add(expected.is_complete())
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "n,edges",
    [
        # triangle 012 with pendant edge 23: clique {2,3} meets 012 once
        (4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
        # bowtie: two triangles sharing vertex 2 stay apart
        (5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]),
        # K_4 minus an edge closes
        (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
        # triangle 012; 0345 and 1367 are K_4 minus 03 and minus 13, which
        # close by two-vertex merges; only then do the three cliques meet
        # pairwise in 0, 1 and 3, and the closure is K_8
        (8, [(0, 1), (0, 2), (1, 2),
             (0, 4), (0, 5), (4, 5), (3, 4), (3, 5),
             (1, 6), (1, 7), (6, 7), (3, 6), (3, 7)]),
    ],
    ids=["pendant-edge", "bowtie", "k4-minus-edge", "merge-then-triangle"],
)
def test_k4_cliques_named_cases(n, edges):
    g = Graph.from_edges(n, edges)
    assert kernel_closure(g, 4) == naive_close(g, make_clique(4))


def test_kernel_misled_by_growth_order():
    """K_5 minus the edge (9, 10) on 9..13, each of its 9 edges in its own
    triangle through a decoy vertex 0..8.  The kernel first grows each
    decoy edge into its triangle, which no fourth vertex sees whole; the
    triangles cover every edge of the K_5 minus an edge, so the kernel adds
    nothing, and the residue queue finds (9, 10)."""
    k5_minus = [e for e in itertools.combinations(range(9, 14), 2) if e != (9, 10)]
    edges = list(k5_minus)
    for d, (x, y) in enumerate(k5_minus):
        edges += [(d, x), (d, y)]
    g = Graph.from_edges(14, edges)
    h = make_clique(5)
    assert kernel_closure(g, 5) == g
    assert _clique_close_seq(g, 5) == close(g, h).final
    assert close(g, h).final.has_edge(9, 10)
    assert closure_contains_edge(g, h, (9, 10))


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 6), st.integers(1, 14), st.floats(0.0, 0.7),
       st.integers(0, 2**32), st.randoms())
def test_kernel_and_queue_under_relabelling(r, n, p, seed, rnd):
    g = sample_gnp(n, p, seed)
    perm = list(range(n))
    rnd.shuffle(perm)
    moved = relabel(g, perm)
    expected = _clique_close_seq(g, r)
    assert _clique_close_seq(moved, r) == relabel(expected, perm)
    assert _clique_close_seq(kernel_closure(moved, r), r) == relabel(expected, perm)
    if r <= 4:
        assert kernel_closure(moved, r) == relabel(expected, perm)
    assert percolates(moved, make_clique(r)) == expected.is_complete()


# -- closure properties -----------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 6), st.integers(1, 10), st.floats(0.0, 0.8),
       st.integers(0, 2**32))
def test_closing_a_closed_graph_changes_nothing(r, n, p, seed):
    h = make_clique(r)
    closed = close(sample_gnp(n, p, seed), h).final
    assert close(closed, h).final == closed
    assert _clique_close_seq(closed, r) == closed
    assert kernel_closure(closed, r) == closed


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 6), st.integers(2, 10), st.floats(0.0, 0.8),
       st.integers(0, 2**32), st.randoms())
def test_clique_verdicts_survive_an_added_edge(r, n, p, seed, rnd):
    h = make_clique(r)
    g = sample_gnp(n, p, seed)
    missing = list(g.non_edges())
    if not missing:
        return
    more = g.copy()
    more.add_edge(*rnd.choice(missing))
    if percolates(g, h):
        assert percolates(more, h)
    for pair in itertools.combinations(range(n), 2):
        if closure_contains_edge(g, h, pair):
            assert closure_contains_edge(more, h, pair)
