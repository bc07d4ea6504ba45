import pytest

from wsatlab.graphs import Graph, enumerate_labeled_graphs, make_clique
from wsatlab.oracle import naive_close, percolation_census


def test_enumerate_labeled_graphs_count():
    graphs = list(enumerate_labeled_graphs(4))
    assert len(graphs) == 2**6
    assert graphs[0].edge_count == 0
    assert graphs[-1].is_complete()
    with pytest.raises(ValueError):
        next(enumerate_labeled_graphs(9))


def test_naive_close_path_triangle():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert naive_close(g, make_clique(3)).is_complete()
    g2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    final = naive_close(g2, make_clique(3))
    assert final == g2  # nothing to add


def test_census_n4_k4():
    res = percolation_census(4, make_clique(4))
    assert res.total == 64
    assert res.percolating == 7
    # only K_4 itself (1 graph) and the four K_4-minus-an-edge... per edge
    # count: 6 edges -> 1 graph, 5 edges -> 6 graphs; nothing sparser
    assert res.by_edge_count[6] == (1, 1)
    assert res.by_edge_count[5] == (6, 6)
    assert all(b == 0 for m, (a, b) in res.by_edge_count.items() if m < 5)


def test_census_n4_k3_counts_connected_graphs():
    res = percolation_census(4, make_clique(3))
    assert res.percolating == 38  # labeled connected graphs on 4 vertices


def test_census_n3_k3():
    res = percolation_census(3, make_clique(3))
    # complete, or one edge short of complete
    assert res.percolating == 1 + 3


def test_census_rejects_large_n():
    with pytest.raises(ValueError):
        percolation_census(8, make_clique(4))
