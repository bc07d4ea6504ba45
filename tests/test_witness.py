import dataclasses
import hashlib
import math
import re
from fractions import Fraction as F

import pytest

from wsatlab.closure import RoundRecord, close
from wsatlab.graphs import Graph, enumerate_labeled_graphs, make_clique, make_complete_bipartite
from wsatlab.ladders import build_ladder
from wsatlab.patterns import analyze
from wsatlab.experiments import mix_seed, sample_gnp, theory_markers
from wsatlab.witness import (
    REAStep,
    REATrace,
    ReplayError,
    check_aizenman_lebowitz,
    check_case2_bound,
    check_component_bound,
    check_edge_lower_bound,
    check_witness_closures,
    close_with_witnesses,
    rea_replay,
)
from wsatlab.witness import _certificates

from test_closure import SMALL_PATTERNS


def path4():
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


def test_initial_edges_are_their_own_witness():
    g = path4()
    _, recs = close_with_witnesses(g, make_clique(3))
    for e in g.edges():
        rec = recs[e]
        assert rec.edges == frozenset({e})
        assert rec.k == 2 and rec.size == 0


def test_witness_size_is_k_minus_2():
    g = path4()
    _, recs = close_with_witnesses(g, make_clique(3))
    for rec in recs.values():
        assert rec.size == rec.k - 2


def test_path4_k3_witnesses():
    g = path4()
    trace, recs = close_with_witnesses(g, make_clique(3))
    assert trace.final.is_complete()
    # (0,2) completes via triangle {0,1,2}: witness is its two support edges
    assert recs[(0, 2)].edges == frozenset({(0, 1), (1, 2)})
    # (0,3) needs the whole path
    assert recs[(0, 3)].edges == frozenset({(0, 1), (1, 2), (2, 3)})
    assert recs[(0, 3)].k == 4


def test_ladder_base_witness_is_whole_ladder():
    h = make_clique(5)
    lad = build_ladder(h, 3)
    trace, recs = close_with_witnesses(lad.graph, h)
    rec = recs[(0, 1)]
    assert rec.k == lad.graph.n == 11
    assert rec.edge_count == lad.graph.edge_count == 25
    assert rec.edges == frozenset(lad.graph.edges())
    assert rec.ell_lambda == 0
    assert rec.ell_star == 0


def test_rea_replay_path4():
    g = path4()
    h = make_clique(3)
    trace, recs = close_with_witnesses(g, h)
    rea = rea_replay((0, 3), recs, trace, h)
    assert len(rea.steps) == 2
    # one red edge per copy, the target's last; no red edge is a witness edge
    red = [s.red_edge for s in rea.steps]
    assert red[-1] == (0, 3) and not set(red) & recs[(0, 3)].edges
    # final step's component spans all four vertices
    assert rea.steps[-1].component_vertices == 4


def test_rea_replay_of_an_initial_edge_has_no_steps():
    g = path4()
    h = make_clique(3)
    trace, recs = close_with_witnesses(g, h)
    rea = rea_replay((2, 1), recs, trace, h)
    assert rea.target == (1, 2) and rea.steps == []


def test_rea_replay_refuses_a_target_outside_the_closure():
    # two disjoint edges: K_3 adds nothing
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    h = make_clique(3)
    trace, recs = close_with_witnesses(g, h)
    with pytest.raises(ReplayError, match=re.escape("(0, 2) not in the closure")):
        rea_replay((2, 0), recs, trace, h)


def test_rea_component_bound_fields():
    h = make_clique(5)
    stats = analyze(h)
    lad = build_ladder(h, 2)
    trace, recs = close_with_witnesses(lad.graph, h)
    rea = rea_replay((0, 1), recs, trace, h)
    rep = check_component_bound(rea, stats)
    assert rep.checked == len(rea.steps) > 0
    assert rep.ok, rep.violations


def test_case2_bound_on_ladder():
    h = make_clique(5)
    stats = analyze(h)
    lad = build_ladder(h, 3)
    trace, recs = close_with_witnesses(lad.graph, h)
    rec = recs[(0, 1)]
    rea = rea_replay((0, 1), recs, trace, h)
    rep = check_case2_bound(rea, rec, stats)
    assert rep.applicable and rep.ok
    # the ladder saturates the bound: all h steps are Case 2, ell = 0
    assert rep.details["case2_steps"] == 3
    assert rep.details["bound"] == F(11 - 2, 5 - 2)


def test_case2_bound_on_an_initial_edge():
    h = make_clique(5)
    stats = analyze(h)
    lad = build_ladder(h, 2)
    trace, recs = close_with_witnesses(lad.graph, h)
    e = next(lad.graph.edges())
    rea = rea_replay(e, recs, trace, h)
    assert rea.steps == []
    rep = check_case2_bound(rea, recs[e], stats)
    assert rep.applicable and rep.checked == 0 and rep.ok


def test_case2_inapplicable_for_k4():
    h = make_clique(4)
    stats = analyze(h)
    g = sample_gnp(12, 0.45, 31)
    trace, recs = close_with_witnesses(g, h)
    added = [e for e in recs if e not in set(g.edges())]
    if not added:
        pytest.skip("no closure edge in this sample")
    rea = rea_replay(added[0], recs, trace, h)
    rep = check_case2_bound(rea, recs[added[0]], stats)
    assert not rep.applicable


@pytest.mark.parametrize("r,n,p,seed", [(4, 14, 0.32, 1), (5, 14, 0.5, 2)])
def test_invariant_suite_random(r, n, p, seed):
    h = make_clique(r)
    stats = analyze(h)
    g = sample_gnp(n, p, seed)
    trace, recs = close_with_witnesses(g, h)
    assert check_witness_closures(recs, h, trace).ok
    assert check_aizenman_lebowitz(recs, trace, h).ok
    assert check_edge_lower_bound(recs, stats).ok
    for target in trace.added_edges():
        rea = rea_replay(target, recs, trace, h)
        assert check_component_bound(rea, stats).ok
        rep = check_case2_bound(rea, recs[target], stats)
        assert rep.ok


def test_aizenman_lebowitz_on_closing_run():
    h = make_clique(3)
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    trace, recs = close_with_witnesses(g, h)
    rep = check_aizenman_lebowitz(recs, trace, h)
    assert rep.ok, rep.violations
    sizes = rep.details["sizes"]
    assert max(sizes) == 6 - 2  # the longest witness spans the path


@pytest.mark.parametrize("name,short", [
    ("K1,2", 1022), ("K1,3", 992), ("K3+K1", 972), ("paw", 25), ("K4", 0)])
def test_aizenman_lebowitz_first_round_by_min_degree(name, short):
    """M_1 = v_H - 2 needs delta_H >= 2; below it a first-round witness may
    span fewer vertices, and only M_1 <= v_H - 2 is checked.  ``short``
    counts the graphs on 5 vertices with M_1 < v_H - 2."""
    h = {
        "K1,2": make_complete_bipartite(1, 2),
        "K1,3": make_complete_bipartite(1, 3),
        "K3+K1": Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)]),
        "paw": SMALL_PATTERNS["paw"],
        "K4": make_clique(4),
    }[name]
    seen = 0
    for g in enumerate_labeled_graphs(5):
        trace, recs = close_with_witnesses(g, h)
        rep = check_aizenman_lebowitz(recs, trace, h)
        assert rep.ok, (g.rows, rep.violations)
        if trace.rounds:
            m_1 = max(recs[e].size for e, _ in trace.rounds[0].added)
            assert m_1 <= h.n - 2
            seen += m_1 < h.n - 2
    assert seen == short


def test_aizenman_lebowitz_keeps_the_equality_at_min_degree_two():
    h = make_clique(4)
    trace, recs = close_with_witnesses(make_clique(4).without_edge(0, 1), h)
    recs[(0, 1)] = dataclasses.replace(recs[(0, 1)], size=1)
    assert check_aizenman_lebowitz(recs, trace, h).violations == \
        ["M_1 = 1 != v_H - 2 = 2"]


@pytest.mark.parametrize("name", ["K3", "K4", "K1,2", "K3+K1", *SMALL_PATTERNS])
def test_witness_closures_hold_on_every_small_graph(name):
    # witnesses of patterns with delta_H <= 1 may use host vertices outside
    # their edges, or miss an end of their target
    h = {
        "K3": make_clique(3),
        "K4": make_clique(4),
        "K1,2": make_complete_bipartite(1, 2),
        "K3+K1": Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)]),
        **SMALL_PATTERNS,
    }[name]
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            trace, recs = close_with_witnesses(g, h)
            rep = check_witness_closures(recs, h, trace)
            assert rep.ok, (n, g.rows, rep.violations)


# -- replay pinned at the reference, and tampered inputs -----------------------


def criterion4_graph(r: int, t: int = 0):
    """Graph t of acceptance criterion 4's G(30, n^(-1/lambda)) stream for K_r."""
    h = make_clique(r)
    p = theory_markers(30, analyze(h))["upper_order"]
    return sample_gnp(30, p, mix_seed(777 + r, t)), h


def step_digest(trace, recs, h) -> tuple[int, int, str]:
    """(added edges, REA steps, sha256 over every REAStep field of every
    added edge's replay)."""
    digest = hashlib.sha256()
    steps = 0
    for target in trace.added_edges():
        for s in rea_replay(target, recs, trace, h).steps:
            steps += 1
            digest.update(repr((target, s.j, s.copy, s.red_edge, s.merged_components,
                                s.case, s.tree_step, s.component_vertices,
                                s.component_nonred)).encode())
    return len(trace.added_edges()), steps, digest.hexdigest()


@pytest.mark.parametrize("r,expected", [
    (4, (326, 3022, "2d77137d9d8b425258d18bb2b2d9f74552fbbd3b3979934fbc7ab83c5a106e0a")),
    (5, (319, 6372, "096195e460e41231ba6b391176d6952970ff6ddd3948b18b1cc4a8c09c75664b")),
])
def test_rea_steps_pinned_on_criterion4_graphs(r, expected):
    # the digests were taken with the set-based replay that rebuilt its
    # certificate map on every call
    g, h = criterion4_graph(r)
    trace, recs = close_with_witnesses(g, h)
    assert step_digest(trace, recs, h) == expected
    # replay again on the memoized index, and on a fresh trace
    assert step_digest(trace, recs, h) == expected
    assert step_digest(*close_with_witnesses(g, h), h) == expected


def deep_target(trace, recs, h):
    """The added edge with the largest witness (ties: the largest edge)."""
    return max(trace.added_edges(), key=lambda e: (recs[e].k, e))


def without_certificate(trace, edge):
    rounds = [RoundRecord(t=rnd.t, added=[(e, emb) for e, emb in rnd.added if e != edge])
              for rnd in trace.rounds]
    return dataclasses.replace(trace, rounds=rounds)


def test_replay_rejects_dropped_certificate():
    g, h = criterion4_graph(4)
    trace, recs = close_with_witnesses(g, h)
    target = deep_target(trace, recs, h)
    child = rea_replay(target, recs, trace, h).steps[0].red_edge
    assert child != target
    with pytest.raises(ReplayError, match=f"support edge {re.escape(str(child))} has no certificate"):
        rea_replay(target, recs, without_certificate(trace, child), h)
    # dropped in place, after the index of the trace was built
    for rnd in trace.rounds:
        rnd.added[:] = [(e, emb) for e, emb in rnd.added if e != child]
    with pytest.raises(ReplayError, match="has no certificate"):
        rea_replay(target, recs, trace, h)


def test_replay_rejects_swapped_certificate():
    # edge a certified by b's copy: the copy's anchor image b is neither
    # initial nor placed, and a is not in the copy
    g, h = criterion4_graph(4)
    trace, recs = close_with_witnesses(g, h)
    (a, emb_a), (b, emb_b) = trace.rounds[0].added[:2]
    rounds = [RoundRecord(t=1, added=[(a, emb_b), (b, emb_a)] + trace.rounds[0].added[2:]),
              *trace.rounds[1:]]
    swapped = dataclasses.replace(trace, rounds=rounds)
    with pytest.raises(ReplayError, match=re.escape(f"step 1: support edge {b} unavailable")):
        rea_replay(a, recs, swapped, h)


def test_certificate_index_is_keyed_by_pattern():
    g, h = criterion4_graph(4)
    trace, _ = close_with_witnesses(g, h)
    index = _certificates(trace, h)
    assert _certificates(trace, make_clique(4)) is index
    # K_4 minus an edge has the same vertex count but five copy edges
    other = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert _certificates(trace, other) is not index
    assert {c.edges.bit_count() for c in trace.certificate_index.certs.values()} == {5}
    assert {c.edges.bit_count() for c in _certificates(trace, h).certs.values()} == {6}


@pytest.mark.parametrize("r", [4, 5])
def test_witness_missing_an_edge_fails_closure_check(r):
    g, h = criterion4_graph(r)
    trace, recs = close_with_witnesses(g, h)
    assert check_witness_closures(recs, h, trace).ok
    # a first-round witness is K_r minus the target: any edge removed
    # leaves no copy of K_r minus an edge
    first = trace.rounds[0].added[0][0]
    assert recs[first].k == r and recs[first].edge_count == r * (r - 1) // 2 - 1
    # in a deep witness, a target endpoint of degree r - 2 that loses an
    # edge can never gain one
    deep = deep_target(trace, recs, h)
    end = min(deep, key=lambda x: sum(x in f for f in recs[deep].edges))
    assert sum(end in f for f in recs[deep].edges) == r - 2
    for target, dropped in ((first, min(recs[first].edges)),
                            (deep, min(f for f in recs[deep].edges if end in f))):
        bad = dict(recs)
        bad[target] = dataclasses.replace(recs[target], edges=recs[target].edges - {dropped})
        rep = check_witness_closures(bad, h, trace)
        assert rep.violations == [f"target {target}: not in closure of witness"]


@pytest.mark.parametrize("r,field,value,expected", [
    (4, "component_nonred", 0,
     "target (4, 11) step 41: component has 0 non-red edges < 43"),
    (4, "component_vertices", 32,
     "target (4, 11) step 41: component has 56 non-red edges < 61"),
    (5, "component_nonred", 0,
     "target (15, 17) step 61: component has 0 non-red edges < 187/3"),
    (5, "component_vertices", 34,
     "target (15, 17) step 61: component has 83 non-red edges < 259/3"),
])
def test_component_bound_violation_message(r, field, value, expected):
    # message texts as the Fraction-based check printed them
    g, h = criterion4_graph(r)
    stats = analyze(h)
    trace, recs = close_with_witnesses(g, h)
    rea = rea_replay(deep_target(trace, recs, h), recs, trace, h)
    last = rea.steps[-1]
    bad = dataclasses.replace(rea, steps=rea.steps[:-1] + [dataclasses.replace(last, **{field: value})])
    assert check_component_bound(bad, stats).violations == [expected]


@pytest.mark.parametrize("r", [4, 5])
def test_component_bound_is_strict_at_the_bound(r):
    stats = analyze(make_clique(r))
    step = REAStep(j=1, copy=None, red_edge=(0, 1), merged_components=[], case="case2",
                   tree_step=True, component_vertices=23, component_nonred=0)
    bound = stats.lambda_star * (23 - stats.v_h) + stats.e_h - 1
    for nonred, ok in ((math.ceil(bound), True), (math.ceil(bound) - 1, False)):
        rea = REATrace(target=(0, 1), steps=[dataclasses.replace(step, component_nonred=nonred)])
        assert check_component_bound(rea, stats).ok == ok
