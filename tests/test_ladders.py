import itertools

import pytest

from wsatlab.graphs import Graph, make_clique
from wsatlab.ladders import (
    build_ladder,
    count_induced_ladders_at,
    ladder_closure_check,
    verify_ladder_lemma,
)
from wsatlab.patterns import analyze


def test_k5_ladder_shape():
    for h in (1, 2, 3):
        lad = build_ladder(make_clique(5), h)
        assert lad.graph.n == 3 * h + 2
        assert lad.graph.edge_count == 8 * h + 1
        assert lad.size == 3 * h
        assert not lad.graph.has_edge(0, 1)        # base absent
        assert lad.graph.has_edge(*lad.rungs[-1])  # top rung present
        for rung in lad.rungs[:-1]:
            assert not lad.graph.has_edge(*rung)


def test_k4_ladder_shape():
    lad = build_ladder(make_clique(4), 4)
    assert lad.graph.n == 2 * 4 + 2
    assert lad.graph.edge_count == 4 * 4 + 1


def test_rung_validation():
    k5 = make_clique(5)
    # the rungs are the lexicographically least pair of non-incident edges
    lad = build_ladder(k5, 1)
    assert lad.rungs == [(0, 1), (2, 3)]
    assert lad.graph.edge_count == 9
    with pytest.raises(ValueError):
        build_ladder(k5, 0)
    with pytest.raises(ValueError):
        # star pattern has no two non-incident edges
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        build_ladder(star, 1)


@pytest.mark.parametrize("h", [1, 2, 3])
def test_ladder_lemma_k5(h):
    stats = analyze(make_clique(5))
    lad = build_ladder(make_clique(5), h)
    rep = verify_ladder_lemma(lad, stats)
    assert rep.details["mode"] == "strict"
    assert rep.checked == 2 ** lad.graph.n - 1
    assert rep.ok, rep.violations[:3]
    # every union of the first h' steps attains the bound with equality
    # (other equality cases exist, e.g. a step minus one upper rung vertex)
    assert set(rep.details["prefix_union_masks"]) <= set(rep.details["equality_masks"])


@pytest.mark.parametrize("h", [1, 2])
def test_ladder_lemma_k6(h):
    stats = analyze(make_clique(6))
    lad = build_ladder(make_clique(6), h)
    rep = verify_ladder_lemma(lad, stats)
    assert rep.details["mode"] == "strict"
    assert rep.ok, rep.violations[:3]


@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_ladder_lemma_k4_degenerate(h):
    # K_4 is not strictly balanced: only the weaker density bound applies
    stats = analyze(make_clique(4))
    lad = build_ladder(make_clique(4), h)
    rep = verify_ladder_lemma(lad, stats)
    assert rep.details["mode"] == "degenerate"
    assert rep.ok, rep.violations[:3]


@pytest.mark.parametrize("h", [1, 2, 3])
def test_ladder_closure_top_down(h):
    lad = build_ladder(make_clique(5), h)
    rep = ladder_closure_check(lad, make_clique(5))
    assert rep.checked == h
    assert rep.ok, rep.violations


def naive_count(g: Graph, pair, lad) -> int:
    """Reference count: all injective placements of the non-base vertices."""
    lg = lad.graph
    u, v = (pair if pair[0] < pair[1] else (pair[1], pair[0]))
    others = [w for w in range(g.n) if w not in (u, v)]
    count = 0
    for perm in itertools.permutations(others, lg.n - 2):
        image = [u, v] + list(perm)
        ok = all(
            g.has_edge(image[a], image[b]) == lg.has_edge(a, b)
            for a in range(lg.n)
            for b in range(a + 1, lg.n)
        )
        count += ok
    return count


def test_count_on_the_ladder_itself():
    lad = build_ladder(make_clique(5), 1)
    got = count_induced_ladders_at(lad.graph, (0, 1), lad)
    assert got == naive_count(lad.graph, (0, 1), lad)
    # base orientation fixed; the 3! symmetries of the non-base vertices of
    # the height-1 ladder (K_5 minus its base pair) give the multiplicity
    assert got == 6


def test_count_against_naive_random():
    from wsatlab.experiments import sample_gnp

    lad = build_ladder(make_clique(4), 1)
    for seed in range(8):
        g = sample_gnp(8, 0.5, 2000 + seed)
        for pair in [(0, 1), (2, 5)]:
            assert count_induced_ladders_at(g, pair, lad) == naive_count(
                g, pair, lad
            )


def test_count_requires_absent_base():
    lad = build_ladder(make_clique(4), 1)
    g = make_clique(6)
    assert count_induced_ladders_at(g, (0, 1), lad) == 0


def test_count_on_a_host_smaller_than_the_ladder():
    lad = build_ladder(make_clique(4), 2)
    assert count_induced_ladders_at(Graph(lad.graph.n - 1), (0, 1), lad) == 0


def test_induced_ladder_found_only_at_its_base():
    lad = build_ladder(make_clique(5), 2)
    assert count_induced_ladders_at(lad.graph, (0, 1), lad) > 0
    assert count_induced_ladders_at(lad.graph, (0, 2), lad) == 0
