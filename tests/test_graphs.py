import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from wsatlab.graphs import (
    Graph,
    InputError,
    canon_edge,
    enumerate_labeled_graphs,
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
    with pytest.raises(ValueError, match=r"pair \(0, 3\) is not two vertices of 0..2"):
        g.add_edge(0, 3)
    with pytest.raises(ValueError, match="not two vertices"):
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
    except InputError:
        return
    out = serialize_edge_list(g)
    assert parse_edge_list(out) == g
    assert serialize_edge_list(parse_edge_list(out)) == out


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), GRAPH6_TEXT))
def test_parse_graph6_fuzz(text):
    try:
        g = parse_graph6(text)
    except InputError:
        return
    out = serialize_graph6(g)
    assert parse_graph6(out) == g
    assert serialize_graph6(parse_graph6(out)) == out


# -- the column-at-a-time graph6 codec against the earlier per-pair one --------
# ``ref_serialize_graph6`` and ``ref_parse_graph6`` are the codec as it was
# before it read and wrote whole columns: one accumulator step per pair.


def _ref_pairs(n):
    return itertools.chain.from_iterable(
        zip(range(v), itertools.repeat(v)) for v in range(1, n)
    )


def _ref_encode_n(n):
    if n <= 62:
        return chr(n + 63)
    return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))


def _ref_decode_n(data):
    if not data:
        raise InputError("empty graph6 input")
    c = ord(data[0])
    if c != 126:
        if not 63 <= c <= 126:
            raise InputError(f"bad graph6 byte {c}")
        return c - 63, 1
    if len(data) < 4:
        raise InputError("truncated graph6 header")
    if data[1] == "~":
        raise InputError("graph6 n > 258047 not supported")
    n = 0
    for ch in data[1:4]:
        c = ord(ch)
        if not 63 <= c <= 126:
            raise InputError(f"bad graph6 byte {c}")
        n = n << 6 | (c - 63)
    return n, 4


def ref_serialize_graph6(g):
    out = [_ref_encode_n(g.n)]
    acc = nbits = 0
    for u, v in _ref_pairs(g.n):
        acc = acc << 1 | (g.rows[u] >> v & 1)
        nbits += 1
        if nbits == 6:
            out.append(chr(acc + 63))
            acc = nbits = 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return "".join(out)


def ref_parse_graph6(text):
    data = text.strip()
    if data.startswith(">>graph6<<"):
        data = data[10:]
    n, pos = _ref_decode_n(data)
    if n < 1:
        raise InputError("graph6 graph must have n >= 1")
    g = Graph(n)
    need = n * (n - 1) // 2
    body = data[pos:]
    if len(body) != (need + 5) // 6:
        raise InputError(
            f"graph6 body length {len(body)}, expected {(need + 5) // 6}"
        )
    pairs = _ref_pairs(n)
    for ch in body:
        c = ord(ch)
        if not 63 <= c <= 126:
            raise InputError(f"bad graph6 byte {c}")
        for k in range(5, -1, -1):
            pair = next(pairs, None)
            if (c - 63) >> k & 1:
                if pair is None:
                    raise InputError("nonzero padding in graph6 body")
                g.rows[pair[0]] |= 1 << pair[1]
                g.rows[pair[1]] |= 1 << pair[0]
    return g


def assert_codec_matches_reference(g):
    text = serialize_graph6(g)
    assert text == ref_serialize_graph6(g)
    assert parse_graph6(text).rows == ref_parse_graph6(text).rows == g.rows


def test_graph6_matches_reference_on_every_small_graph():
    for n in range(1, 7):
        for g in enumerate_labeled_graphs(n):
            assert_codec_matches_reference(g)


def test_graph6_matches_reference_on_seeded_gnp():
    rng = random.Random(20)
    for n in [1, 2, 62, 63, 64, 299, 300] + [rng.randint(3, 300) for _ in range(40)]:
        p = rng.choice([0.0, 0.01, 0.1, 0.5, 0.9, 1.0])
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        assert_codec_matches_reference(Graph.from_edges(n, edges))


def error_message(parse, text):
    with pytest.raises(InputError) as exc:
        parse(text)
    return str(exc.value)


def test_graph6_errors_match_reference():
    rng = random.Random(21)
    texts = ["", "~", "~??", "~~???", "~?\x80?", "\x3e", "?", "C~~", "C"]
    for n in (5, 7, 12, 63, 100):
        good = serialize_graph6(Graph.from_edges(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]))
        head = len(_ref_encode_n(n))
        body = good[head:]
        for bad in ("\x3e", " ", "\x7f", "\u20ac"):
            for at in (0, len(body) // 2, len(body) - 1):
                texts.append(good[:head + at] + bad + good[head + at + 1:])
        texts += [good[:-1], good + "?", good[:head]]
        pad = 6 * len(body) - n * (n - 1) // 2
        if pad:
            texts.append(good[:-1] + chr((ord(good[-1]) - 63 | 1) + 63))
    for text in texts:
        assert error_message(parse_graph6, text) == \
            error_message(ref_parse_graph6, text), repr(text)


def test_graph6_refuses_a_size_it_cannot_encode_before_the_body():
    g = Graph(258048)  # one more than the four-byte header holds
    with pytest.raises(InputError, match="limited to n <= 258047"):
        serialize_graph6(g)  # the body alone would be 3.3e10 flags


def test_named_patterns_match_their_edge_lists():
    for r in range(1, 7):
        for s in range(1, 7):
            edges = [(u, v) for u in range(r) for v in range(r, r + s)]
            assert make_complete_bipartite(r, s) == Graph.from_edges(r + s, edges)
    for r in range(4, 9):
        edges = [(a + off, b + off) for off in (0, r)
                 for a, b in itertools.combinations(range(r), 2)]
        assert make_double_barbell(r) == \
            Graph.from_edges(2 * r, edges + [(0, r), (1, r + 1)])


def test_enumerated_graphs_follow_the_edge_mask():
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask, g in enumerate(enumerate_labeled_graphs(n)):
            assert g == Graph.from_edges(
                n, [e for i, e in enumerate(pairs) if mask >> i & 1])
