import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from wsatlab import experiments
from wsatlab.graphs import Graph, make_clique, serialize_graph6
from wsatlab.ladders import LadderSpec
from wsatlab.patterns import analyze
from wsatlab.experiments import (
    bisect_pc,
    expected_ladder_count,
    fit_exponent,
    ladder_base_experiment,
    mix_seed,
    percolation_curve,
    sample_gnp,
    theory_markers,
    wilson_interval,
    worker_count,
)


def test_sample_gnp_deterministic():
    a = sample_gnp(25, 0.3, 777)
    b = sample_gnp(25, 0.3, 777)
    assert a == b
    assert a != sample_gnp(25, 0.3, 778)


@pytest.mark.parametrize(
    "n,p,seed,edges,graph6",
    [
        (1, 0.5, 3, 0, "@"),
        (5, 0.5, 1, 7, "Dfk"),
        (30, 0.2, 777, 79,
         "]?cBI?_??@P_`?_oI?G???CCa?SAGoC_s?w????FqG??H_MGgOq_?OPI?GGG???_OM?`?AH_K?"),
        (100, 0.07, 97, 371,
         "sha256:eecfe272b068521d2a027d41fb689ff71674a230f4d9cda843ffe8851d95d2ec"),
        (257, 0.03, 12345, 957,
         "sha256:a9af9c62596e06f8976ad5f2824c7841db7ae4d255ba97ffc0322ea155eae7e2"),
    ],
)
def test_sample_gnp_pinned_draws(n, p, seed, edges, graph6):
    # the Philox stream and its upper-triangle row-major layout are part of
    # the reproducibility contract: these draws must never change
    g = sample_gnp(n, p, seed)
    text = serialize_graph6(g)
    if graph6.startswith("sha256:"):
        text = "sha256:" + hashlib.sha256(text.encode()).hexdigest()
    assert text == graph6
    assert g.edge_count == edges == sum(r.bit_count() for r in g.rows) // 2


def reference_sample_gnp(n: int, p: float, seed: int) -> Graph:
    """The earlier all-at-once sampler: one Philox per draw, all n(n-1)/2
    uniforms, and an upper-triangle mask."""
    rng = np.random.Generator(np.random.Philox(key=seed & ((1 << 64) - 1)))
    drawn = rng.random(n * (n - 1) // 2) < p
    m = np.zeros((n, n), dtype=bool)
    m[np.triu(np.ones((n, n), dtype=bool), 1)] = drawn
    m |= m.T
    data = np.packbits(m, axis=1, bitorder="little").tobytes()
    width = (n + 7) // 8
    g = Graph(n)
    g.rows = [int.from_bytes(data[i * width:(i + 1) * width], "little") for i in range(n)]
    return g


# n = 363 and n = 600 span two and three blocks of uniforms
@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 64, 65, 100, 362, 363, 600])
def test_sample_gnp_matches_reference(n):
    for p in (0.0, 1e-4, 0.07, 0.5, 1.0):
        for seed in (0, 97, (1 << 64) - 12345):
            g, ref = sample_gnp(n, p, seed), reference_sample_gnp(n, p, seed)
            assert g.rows == ref.rows, (n, p, seed)
            assert g.edge_count == ref.edge_count, (n, p, seed)


def test_sample_gnp_memory_peak():
    sample_gnp(50, 0.1, 1)  # the thread's generator is built outside the trace
    tracemalloc.start()
    try:
        sample_gnp(1600, 0.0146, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20


def test_sample_gnp_threads_draw_the_serial_stream():
    cases = [(60 + t, 0.1 * (1 + t % 5), mix_seed(31, t)) for t in range(24)]
    expect = [sample_gnp(*c).rows for c in cases]
    results: dict[int, list] = {}

    def work(w: int) -> None:
        for _ in range(20):
            for t in range(w, len(cases), 4):
                results.setdefault(t, []).append(sample_gnp(*cases[t]).rows)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert sorted(results) == list(range(len(cases)))
    for t, draws in results.items():
        assert len(draws) == 20 and all(rows == expect[t] for rows in draws)


def test_import_leaves_numpy_random_unloaded():
    # the pool's parent must not pay for numpy.random: it only samples in
    # the workers, and the import adds several MB of resident memory
    code = ("import sys, wsatlab, wsatlab.cli, wsatlab.experiments; "
            "print('numpy.random' in sys.modules)")
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "False"


def test_sample_gnp_extremes_and_stats():
    assert sample_gnp(10, 0.0, 1).edge_count == 0
    assert sample_gnp(10, 1.0, 1).is_complete()
    with pytest.raises(ValueError):
        sample_gnp(10, 1.5, 1)
    n, p = 40, 0.2
    trials = 200
    mean = sum(sample_gnp(n, p, s).edge_count for s in range(trials)) / trials
    expect = n * (n - 1) / 2 * p
    sd = math.sqrt(n * (n - 1) / 2 * p * (1 - p) / trials)
    assert abs(mean - expect) < 5 * sd


def test_mix_seed_spreads():
    seeds = {mix_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert mix_seed(42, 0) != mix_seed(43, 0)


def test_wilson_interval():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 100)[0] == pytest.approx(0.0, abs=1e-12)
    assert wilson_interval(100, 100)[1] == pytest.approx(1.0, abs=1e-12)
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("WSAT_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("WSAT_THREADS", "8")
    assert worker_count() == 8
    assert worker_count(3) == 3


def test_percolation_curve_extremes():
    pts = percolation_curve(12, make_clique(3), [0.0, 1.0], 25, 5)
    assert pts[0].fraction == 0.0
    assert pts[1].fraction == 1.0


def test_percolation_curve_worker_invariance():
    k4 = make_clique(4)
    a = percolation_curve(18, k4, [0.15, 0.3], 30, 11, workers=1)
    b = percolation_curve(18, k4, [0.15, 0.3], 30, 11, workers=4)
    assert [(p.successes, p.fraction) for p in a] == [
        (p.successes, p.fraction) for p in b
    ]


def test_expected_ladder_count_closed_form():
    # K_4 ladder of height 1 on k=2 extra vertices: 5 edges, 1 absent pair
    spec = LadderSpec(pattern=make_clique(4), height=1)
    for n, p in [(60, 0.1), (30, 0.05)]:
        exact = (n - 2) * (n - 3) * p**5 * (1 - p)
        assert expected_ladder_count(n, p, spec) == pytest.approx(exact, rel=1e-12)
    assert expected_ladder_count(60, 0.0, spec) == 0.0
    assert expected_ladder_count(60, 1.0, spec) == 0.0  # absent pair impossible
    with pytest.raises(ValueError):
        expected_ladder_count(3, 0.1, spec)


def test_theory_markers():
    s5 = analyze(make_clique(5))
    m = theory_markers(10_000, s5)
    assert m["upper_order"] == pytest.approx(10_000 ** (-3 / 8))
    s4 = analyze(make_clique(4))
    m4 = theory_markers(10_000, s4)
    assert m4["upper_order"] == pytest.approx(1e-2)
    assert m4["lower_order"] == pytest.approx(1e-2 * math.log(10_000) ** -0.5)


def test_fit_exponent_exact():
    pts = [(n, 3.0 * n**-1.5) for n in (50, 100, 200, 400)]
    slope, stderr = fit_exponent(pts)
    assert slope == pytest.approx(-1.5, abs=1e-9)
    assert stderr == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        fit_exponent(pts[:2])


def test_monte_carlo_refuses_bad_sizes_up_front():
    k4 = make_clique(4)
    for n in (0, -4):
        with pytest.raises(ValueError, match="n >= 1"):
            bisect_pc(n, k4, trials=5, tolerance=0.1, master_seed=1)
        with pytest.raises(ValueError, match="n >= 1"):
            percolation_curve(n, k4, [0.5], 5, 1)
        with pytest.raises(ValueError, match="n >= 1"):
            ladder_base_experiment(n, k4, 5, 1, alpha=2.0, beta=0.3)
    for tol in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="tolerance >= 0"):
            bisect_pc(10, k4, trials=5, tolerance=tol, master_seed=1)


def test_bisect_pc_k2_trivial():
    est = bisect_pc(10, make_clique(2), trials=20, tolerance=0.2, master_seed=3)
    assert est.p_hat == 0.0
    assert est.converged


def test_bisect_pc_k3_matches_connectivity_threshold():
    n = 60
    est = bisect_pc(n, make_clique(3), trials=120, tolerance=0.15, master_seed=17)
    marker = math.log(n) / n
    assert marker / 2 <= est.p_hat <= 2 * marker
    assert all(t == 120 for _, _, t, _ in est.probes)


def test_bisect_pc_deterministic_across_workers():
    a = bisect_pc(30, make_clique(3), trials=60, tolerance=0.2, master_seed=5,
                  workers=1)
    b = bisect_pc(30, make_clique(3), trials=60, tolerance=0.2, master_seed=5,
                  workers=4)
    assert a.p_hat == b.p_hat and a.probes == b.probes


def test_ladder_base_experiment_small():
    out = ladder_base_experiment(20, make_clique(4), 60, 23, p=0.25, height=1)
    assert out["trials"] == 60
    assert 0.0 <= out["base_frequency"] <= 1.0
    assert out["formula_count"] == pytest.approx(
        18 * 17 * 0.25**5 * 0.75, rel=1e-12
    )
    assert abs(out["mean_count"] - out["formula_count"]) < max(
        5 * out["stderr_count"], 0.2
    )


def test_ladder_experiment_alpha_beta_parameters():
    out = ladder_base_experiment(50, make_clique(4), 10, 1, alpha=2.0, beta=0.3)
    assert out["p"] == pytest.approx((2.0 / 50) ** 0.5)
    assert out["height"] == max(1, round(0.3 * math.log(50)))
    assert "gamma" in out and out["gamma"] == pytest.approx(1 - 1 / (2.0**2 - 1))


def test_ladder_experiment_takes_exactly_one_parameter_pair():
    k4 = make_clique(4)
    for params in (
        {},
        {"alpha": 2.0},
        {"beta": 0.3},
        {"p": 0.1},
        {"height": 1},
        {"alpha": 2.0, "p": 0.1, "height": 1},
        {"alpha": 2.0, "beta": 0.3, "p": 0.5, "height": 7},
        {"beta": 0.3, "p": 0.1, "height": 1},
        {"alpha": 2.0, "height": 1},
        {"beta": 0.3, "p": 0.1},
    ):
        with pytest.raises(ValueError, match="exactly one of"):
            ladder_base_experiment(30, k4, 3, 1, **params)


def test_one_pool_per_monte_carlo_call(monkeypatch):
    pools = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
    k3, k4 = make_clique(3), make_clique(4)
    serial = bisect_pc(30, k3, trials=40, tolerance=0.2, master_seed=5, workers=1)
    assert pools == []
    pooled = bisect_pc(30, k3, trials=40, tolerance=0.2, master_seed=5, workers=2)
    assert len(pools) == 1
    assert len(serial.probes) > 1 and pooled.probes == serial.probes
    ps = [0.15, 0.25, 0.35]
    serial_curve = percolation_curve(18, k4, ps, 20, 11, workers=1)
    pooled_curve = percolation_curve(18, k4, ps, 20, 11, workers=2)
    assert len(pools) == 2
    assert pooled_curve == serial_curve
