import pytest
from hypothesis import given, settings, strategies as st

from wsatlab.graphs import (
    Graph,
    canon_edge,
    is_connected,
    make_clique,
    make_complete_bipartite,
    make_double_barbell,
    parse_edge_list,
    parse_graph6,
    serialize_edge_list,
    serialize_graph6,
)


def random_graph(n: int, mask: int) -> Graph:
    g = Graph(n)
    i = 0
    for v in range(1, n):
        for u in range(v):
            if mask >> i & 1:
                g.add_edge(u, v)
            i += 1
    return g


def test_add_edge_and_queries():
    g = Graph(4)
    g.add_edge(2, 0)
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert g.edge_count == 1
    assert g.degree(0) == 1 and g.degree(3) == 0
    assert list(g.edges()) == [(0, 2)]
    assert (0, 1) in list(g.non_edges())


def test_without_edge_copies():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    h = g.without_edge(2, 1)
    assert list(h.edges()) == [(0, 1), (2, 3)] and h.edge_count == 2
    assert g.edge_count == 3 and g.has_edge(1, 2)
    with pytest.raises(ValueError):
        g.without_edge(0, 3)


def test_add_edge_rejects_bad_input():
    g = Graph(3)
    with pytest.raises(ValueError):
        g.add_edge(1, 1)
    with pytest.raises(ValueError):
        g.add_edge(0, 3)
    with pytest.raises(ValueError):
        g.add_edge(-1, 2)  # must not touch rows[-1] before failing
    assert g.rows == [0, 0, 0]
    g.add_edge(0, 1)
    with pytest.raises(ValueError):
        g.add_edge(1, 0)


def test_canon_edge():
    assert canon_edge(5, 2) == (2, 5)
    with pytest.raises(ValueError):
        canon_edge(3, 3)


def test_named_patterns():
    k5 = make_clique(5)
    assert k5.n == 5 and k5.edge_count == 10 and k5.is_complete()
    b = make_complete_bipartite(2, 3)
    assert b.edge_count == 6 and not b.has_edge(0, 1) and b.has_edge(0, 2)
    dd = make_double_barbell(4)
    assert dd.n == 8
    assert dd.edge_count == 2 * 6 + 2
    assert dd.has_edge(0, 4) and dd.has_edge(1, 5) and not dd.has_edge(2, 6)
    assert dd.min_degree() == 3


def test_is_connected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not is_connected(g)
    g.add_edge(1, 2)
    assert is_connected(g)
    assert is_connected(Graph(1))


def test_edge_list_round_trip():
    g = Graph.from_edges(6, [(0, 5), (1, 2), (2, 4)])
    assert parse_edge_list(serialize_edge_list(g)) == g


def test_edge_list_rejects_garbage():
    with pytest.raises(ValueError):
        parse_edge_list("")
    with pytest.raises(ValueError):
        parse_edge_list("x\n0 1\n")
    with pytest.raises(ValueError):
        parse_edge_list("3\n0 1 2\n")
    with pytest.raises(ValueError):
        parse_edge_list("3\n0 3\n")
    with pytest.raises(ValueError):
        parse_edge_list("3\n0 1\n0 1\n")
    with pytest.raises(ValueError):
        parse_edge_list("999999999999\n")  # refused before allocating rows


def test_graph6_known_values():
    # K_4 and the 5-cycle in standard graph6 encoding
    assert serialize_graph6(make_clique(4)) == "C~"
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert serialize_graph6(c5) == "Dhc"
    assert parse_graph6("C~") == make_clique(4)
    assert parse_graph6(">>graph6<<C~") == make_clique(4)


def test_graph6_rejects_bad_bodies():
    with pytest.raises(ValueError):
        parse_graph6("")
    with pytest.raises(ValueError):
        parse_graph6("C~~")  # body too long
    with pytest.raises(ValueError):
        parse_graph6("C")  # body too short


@given(st.integers(1, 12), st.integers(0, (1 << 66) - 1))
def test_graph6_round_trip(n, mask):
    g = random_graph(n, mask & ((1 << (n * (n - 1) // 2)) - 1))
    assert parse_graph6(serialize_graph6(g)) == g


@given(st.integers(60, 70), st.integers(0, (1 << 64) - 1))
def test_graph6_long_form_round_trip(n, mask):
    # n > 62 exercises the '~' three-byte header
    g = Graph(n)
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    for i in range(64):
        if mask >> i & 1:
            u, v = pairs[(i * 997) % len(pairs)]
            if not g.has_edge(u, v):
                g.add_edge(u, v)
    assert parse_graph6(serialize_graph6(g)) == g


@given(st.integers(2, 10), st.integers(0, (1 << 45) - 1))
def test_edge_list_round_trip_random(n, mask):
    g = random_graph(n, mask & ((1 << (n * (n - 1) // 2)) - 1))
    assert parse_edge_list(serialize_edge_list(g)) == g


@given(st.integers(1, 10), st.integers(0, (1 << 45) - 1))
def test_edge_count_consistency(n, mask):
    g = random_graph(n, mask & ((1 << (n * (n - 1) // 2)) - 1))
    assert g.edge_count == len(list(g.edges()))
    assert g.edge_count == sum(g.degree(u) for u in range(n)) // 2
    assert g.edge_count + len(list(g.non_edges())) == n * (n - 1) // 2


# Text that is often close to valid: a vertex count, then edge lines, with
# stray tokens mixed in; graph6 bytes, the '~' header and the optional prefix.
JUNK_LINE = st.sampled_from(["x", "1 2 3", "", " 4 ", "1.5", "-1 0", "0 9"])
EDGE_LIST_TEXT = st.integers(0, 8).flatmap(lambda n: st.tuples(
    st.just(str(n)),
    st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
             .map(lambda e: f"{e[0]} {e[1]}"), max_size=5),
    st.lists(JUNK_LINE, max_size=1),
)).map(lambda t: "\n".join([t[0], *t[1], *t[2]]))
GRAPH6_TEXT = st.tuples(
    st.sampled_from(["", ">>graph6<<", " "]),
    st.text(st.characters(min_codepoint=58, max_codepoint=130), max_size=12),
).map("".join)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), EDGE_LIST_TEXT))
def test_parse_edge_list_fuzz(text):
    try:
        g = parse_edge_list(text)
    except ValueError:
        return
    out = serialize_edge_list(g)
    assert parse_edge_list(out) == g
    assert serialize_edge_list(parse_edge_list(out)) == out


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), GRAPH6_TEXT))
def test_parse_graph6_fuzz(text):
    try:
        g = parse_graph6(text)
    except ValueError:
        return
    out = serialize_graph6(g)
    assert parse_graph6(out) == g
    assert serialize_graph6(parse_graph6(out)) == out
