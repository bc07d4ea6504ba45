import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from wsatlab.graphs import Graph, InputError, make_clique, make_complete_bipartite, make_double_barbell
from wsatlab.patterns import (
    analyze,
    compute_lambda_prime,
    densest_subgraph_profile,
    is_2_balanced,
    relabel,
    verify_appendix_lemmas,
)


def test_profile_k5():
    # densest subgraph of K_5 on v vertices is K_v
    assert densest_subgraph_profile(make_clique(5)) == {
        2: 1, 3: 3, 4: 6, 5: 10
    }


def test_profile_double_barbell():
    dd = make_double_barbell(4)
    prof = densest_subgraph_profile(dd)
    assert prof[4] == 6          # one barbell clique
    assert prof[8] == 14
    assert prof[5] == 7          # K_4 plus a pendant bridge vertex


def test_k5_invariants():
    s = analyze(make_clique(5))
    assert (s.v_h, s.e_h, s.delta_h) == (5, 10, 4)
    assert s.lam == F(8, 3)
    assert s.lambda_star == F(8, 3)
    assert s.v_star == frozenset({2})
    assert s.xi == F(1, 3)
    assert s.xi_prime == F(1, 3)
    assert s.balanced and s.strictly_balanced and s.connected
    assert not s.degenerate


def test_k4_invariants():
    s = analyze(make_clique(4))
    assert s.lam == F(2) and s.lambda_star == F(2)
    assert s.v_star == frozenset({2, 3})
    assert s.xi is None
    assert s.xi_prime == 0
    assert s.balanced and not s.strictly_balanced


def test_k6_k7_strictly_balanced():
    for r in (6, 7):
        s = analyze(make_clique(r))
        assert s.lam == F(r * (r - 1) // 2 - 2, r - 2)
        assert s.strictly_balanced
        assert s.v_star == frozenset({2})


def test_double_barbell_unbalanced():
    s = analyze(make_double_barbell(4))
    assert s.lam == F(2)
    assert s.lambda_star == F(7, 4)   # (C(4,2)+1)/4
    assert s.v_star == frozenset({4})
    assert not s.balanced and not s.strictly_balanced
    assert s.lambda_star < s.lam


def test_complete_bipartite_invariants():
    s = analyze(make_complete_bipartite(3, 3))
    assert s.lam == F(7, 4)
    assert s.balanced


def test_lambda_prime_examples():
    # K_r minus an edge stays densest as a whole: (e_H-1)/v_H
    assert compute_lambda_prime(make_clique(4)) == F(5, 4)
    assert compute_lambda_prime(make_clique(5)) == F(9, 5)
    # K_2 minus its edge is edgeless, max density 0
    assert compute_lambda_prime(make_clique(2)) == 0
    with pytest.raises(ValueError):
        compute_lambda_prime(Graph(3))


def test_is_2_balanced():
    assert is_2_balanced(make_clique(4))
    # triangle with a pendant edge is not 2-balanced
    g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert not is_2_balanced(g)


def test_degenerate_flags():
    assert analyze(make_clique(3)).degenerate
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert analyze(path).degenerate          # min degree 1
    assert not analyze(make_clique(4)).degenerate


@settings(max_examples=60)
@given(st.integers(4, 6), st.integers(0, (1 << 15) - 1), st.randoms())
def test_relabeling_invariance(n, mask, rnd):
    pairs = list(itertools.combinations(range(n), 2))
    g = Graph(n)
    for i, (u, v) in enumerate(pairs):
        if mask >> i & 1:
            g.add_edge(u, v)
    perm = list(range(n))
    rnd.shuffle(perm)
    a = analyze(g)
    b = analyze(relabel(g, perm))
    assert (a.lam, a.lambda_star, a.v_star, a.xi, a.balanced, a.strictly_balanced) == (
        b.lam, b.lambda_star, b.v_star, b.xi, b.balanced, b.strictly_balanced
    )


def test_appendix_lemmas_hold_to_5():
    rep = verify_appendix_lemmas(5)
    assert rep.name == "appendix"
    assert rep.checked == 263  # labeled graphs on 4 or 5 vertices with min degree >= 2
    assert rep.ok, rep.violations[:3]


@pytest.mark.parametrize("v_max", [-1, 0, 3, 8])
def test_appendix_lemmas_refuse_v_max_outside_4_to_7(v_max):
    """Below 4 no graph would be checked, which would read as a pass."""
    with pytest.raises(InputError, match="exhaustive check needs 4 <= v_max <= 7"):
        verify_appendix_lemmas(v_max)
