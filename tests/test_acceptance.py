"""Acceptance gate: nine pass/fail criteria, one printed line each.

Pinned tolerances: exact where marked exact, factor-of-2 band for the
K_4 threshold against the finite-n marker max(1/sqrt(3 n log n), p_delta(n))
(the asymptotic constant or the minimum-degree threshold, whichever is
larger), 3 standard errors for the expected-count check.  Lines
are written to the real stdout so they stay visible under pytest capture.
Set WSAT_THREADS to parallelize the Monte Carlo criteria (results are
worker-count invariant by construction).
"""

import json
import math
import os
import sys

import pytest

from wsatlab.closure import close
from wsatlab.graphs import Graph, make_clique, make_double_barbell
from wsatlab.ladders import build_ladder, count_induced_ladders_at, verify_ladder_lemma
from wsatlab.oracle import enumerate_labeled_graphs, naive_close, percolation_census
from wsatlab.patterns import analyze, verify_appendix_lemmas
from wsatlab.experiments import (
    bisect_pc,
    expected_ladder_count,
    fit_exponent,
    mix_seed,
    sample_gnp,
    theory_markers,
)
from wsatlab.witness import (
    check_aizenman_lebowitz,
    check_case2_bound,
    check_component_bound,
    check_edge_lower_bound,
    check_witness_closures,
    close_with_witnesses,
    rea_replay,
)

WORKERS = int(os.environ.get("WSAT_THREADS", "1"))


def verdict(num: int, ok: bool, detail: str) -> None:
    line = f"[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_acceptance_1_ladder_figure_exactness():
    h = make_clique(5)
    lad = build_ladder(h, 3)
    ok = lad.graph.n == 11 and lad.graph.edge_count == 25
    _, recs = close_with_witnesses(lad.graph, h)
    rec = recs[(0, 1)]
    stats = analyze(h)
    bound = stats.lambda_star * (rec.k - 5) + 10 - 1
    ok = ok and rec.k == 11 and rec.ell_lambda == 0 and rec.ell_star == 0
    ok = ok and bound == 25 and rec.edge_count == 25
    verdict(1, ok, f"K_5 ladder h=3: {lad.graph.n} vertices, "
            f"{lad.graph.edge_count} edges; base witness k={rec.k}, "
            f"ell={rec.ell_lambda}, edges={rec.edge_count} = bound {bound}")


def test_acceptance_2_oracle_equivalence():
    h4 = make_clique(4)
    mism = sum(
        close(g, h4).final != naive_close(g, h4)
        for g in enumerate_labeled_graphs(5)
    )
    h5 = make_clique(5)
    for s in range(300):
        g = sample_gnp(10, 0.5, mix_seed(1234, s))
        mism += close(g, h5).final != naive_close(g, h5)
    verdict(2, mism == 0,
            f"{mism} mismatches over 1024 labeled n=5 graphs (K_4) "
            f"and 300 random n=10 graphs (K_5)")


def test_acceptance_3_census_facts():
    c4 = percolation_census(4, make_clique(4)).percolating
    c3 = percolation_census(4, make_clique(3)).percolating
    verdict(3, c4 == 7 and c3 == 38,
            f"n=4 census: K_4 -> {c4} (want 7), K_3 -> {c3} (want 38)")


def test_acceptance_4_witness_invariant_suite():
    violations = 0
    runs = 0
    for r in (4, 5):
        h = make_clique(r)
        stats = analyze(h)
        p = theory_markers(30, stats)["upper_order"]
        for t in range(100):
            runs += 1
            g = sample_gnp(30, p, mix_seed(777 + r, t))
            trace, recs = close_with_witnesses(g, h)
            violations += len(check_witness_closures(recs, h, trace).violations)
            violations += len(check_aizenman_lebowitz(recs, trace, h).violations)
            violations += len(check_edge_lower_bound(recs, stats).violations)
            for target in trace.added_edges():
                rea = rea_replay(target, recs, trace, h)
                violations += len(check_component_bound(rea, stats).violations)
                rep = check_case2_bound(rea, recs[target], stats)
                if rep.applicable:
                    violations += len(rep.violations)
    verdict(4, violations == 0,
            f"{violations} violations over {runs} runs "
            f"(witness closure, size recurrence and interval, edge lower "
            f"bound, component bound, Case-2 bound)")


def test_acceptance_5_ladder_lemma_exhaustive():
    stats = analyze(make_clique(5))
    bad = 0
    eq_ok = True
    for h in (1, 2, 3):
        lad = build_ladder(make_clique(5), h)
        rep = verify_ladder_lemma(lad, stats)
        bad += len(rep.violations)
        eq_ok = eq_ok and set(rep.details["prefix_union_masks"]) <= set(
            rep.details["equality_masks"]
        )
    verdict(5, bad == 0 and eq_ok,
            f"{bad} bound violations over all proper induced subgraphs of "
            f"K_5 ladders h=1..3 (lambda=8/3, xi=1/3); step-prefix unions "
            f"all attain equality: {eq_ok}")


def test_acceptance_6_balance_classification():
    ok = all(analyze(make_clique(r)).strictly_balanced for r in (5, 6, 7))
    s4 = analyze(make_clique(4))
    ok = ok and s4.balanced and not s4.strictly_balanced
    dd = analyze(make_double_barbell(4))
    from fractions import Fraction
    ok = ok and not dd.balanced and dd.lambda_star == Fraction(7, 4)
    rep = verify_appendix_lemmas(5)
    ok = ok and rep.ok
    verdict(6, ok,
            f"K_5..K_7 strictly balanced; K_4 balanced not strictly; DD_4 "
            f"unbalanced with lambda*={dd.lambda_star}; balance equivalences "
            f"checked on {rep.checked} graphs, {len(rep.violations)} violations")


def min_degree_threshold(n: int, delta_h: int) -> float:
    """The p at which n * P(Bin(n-1, p) <= delta_h - 2) = ln 2.

    A vertex of degree below delta_h - 1 never gains an edge, so G(n, p)
    can only percolate when no vertex has degree <= delta_h - 2.  At this p
    the expected number of such vertices is ln 2, so the Poisson estimate of
    P(min degree >= delta_h - 1) is 1/2.  Solved by bisection; the tail
    decreases in p.
    """
    def stuck_vertices(p: float) -> float:
        return n * sum(math.comb(n - 1, i) * p ** i * (1 - p) ** (n - 1 - i)
                       for i in range(delta_h - 1))

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if stuck_vertices(mid) > math.log(2):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_acceptance_7_k4_threshold_scaling():
    # The BBM constant 1/sqrt(3 n log n) is asymptotic; at n = 100 and 200
    # the minimum-degree obstruction sits above it, so the finite-n marker
    # is the larger of the two.
    k4 = make_clique(4)
    delta_h = analyze(k4).delta_h
    results = []
    ok = True
    for n in (100, 200):
        asymptotic = 1 / math.sqrt(3 * n * math.log(n))
        marker = max(asymptotic, min_degree_threshold(n, delta_h))
        est = bisect_pc(n, k4, trials=400, tolerance=0.1,
                        master_seed=97, workers=WORKERS)
        ratio = est.p_hat / marker
        results.append(f"n={n}: p_hat={est.p_hat:.4f}, marker={marker:.4f}, "
                       f"ratio={ratio:.2f} (asymptotic marker={asymptotic:.4f}, "
                       f"ratio={est.p_hat / asymptotic:.2f})")
        ok = ok and 0.5 <= ratio <= 2.0
    verdict(7, ok, "; ".join(results) + " (band: ratio in [0.5, 2])")


def test_acceptance_8_expected_ladder_count():
    n, p, trials = 60, 0.1, 2000
    ladder = build_ladder(make_clique(4), 1)
    counts = []
    for t in range(trials):
        g = sample_gnp(n, p, mix_seed(4242, t))
        counts.append(count_induced_ladders_at(g, (0, 1), ladder))
    mean = sum(counts) / trials
    var = sum((c - mean) ** 2 for c in counts) / (trials - 1)
    se = math.sqrt(var / trials)
    formula = expected_ladder_count(n, p, ladder)
    dev = abs(mean - formula) / se if se > 0 else float("inf")
    verdict(8, dev <= 3.0,
            f"mean count {mean:.4f} vs formula {formula:.4f} over {trials} "
            f"seeds: {dev:.2f} standard errors (limit 3)")


def test_acceptance_9_determinism_across_workers():
    from wsatlab.cli import main

    def capture(threads: str) -> str:
        old = os.environ.get("WSAT_THREADS")
        os.environ["WSAT_THREADS"] = threads
        import io
        from contextlib import redirect_stdout
        buf = io.StringIO()
        try:
            with redirect_stdout(buf):
                main(["pc-search", "--n", "25", "--pattern", "K3",
                      "--trials", "50", "--seed", "7", "--tol", "0.2",
                      "--no-timing"])
                main(["curve", "--n", "20", "--pattern", "K4", "--grid",
                      "0.1,0.25,0.4", "--trials", "40", "--seed", "3",
                      "--format", "json", "--no-timing"])
        finally:
            if old is None:
                os.environ.pop("WSAT_THREADS", None)
            else:
                os.environ["WSAT_THREADS"] = old
        return buf.getvalue()

    a = capture("1")
    b = capture("8")
    verdict(9, a == b and len(a) > 0,
            f"pc-search and curve JSON byte-identical for WSAT_THREADS=1 "
            f"vs 8 ({len(a)} bytes)")


def test_informational_k3_exponent_fit():
    # not an acceptance criterion: log-log slope of the K_3 threshold,
    # expected near -1 (log-corrected)
    estimates = []
    for n in (50, 100, 200, 400):
        est = bisect_pc(n, make_clique(3), trials=200, tolerance=0.1,
                        master_seed=55, workers=WORKERS)
        estimates.append((n, est.p_hat))
    slope, stderr = fit_exponent(estimates)
    inside = -1.25 <= slope <= -0.8
    print(f"[INFO] K_3 exponent fit: slope={slope:.3f} (stderr {stderr:.3f}), "
          f"target [-1.25, -0.8]: {'ok' if inside else 'outside'}",
          file=sys.__stdout__, flush=True)
