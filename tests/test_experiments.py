import hashlib
import math
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import concurrent.futures
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from wsatlab import experiments
from wsatlab.graphs import (Graph, InputError, make_clique, make_complete_bipartite,
                            serialize_graph6)
from wsatlab.ladders import build_ladder
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


# p at the edges of the float grid: 0, the least subnormal, the least
# uniform step, both neighbours of 0.5, the last uniform step below 1, and 1
EDGE_PS = (0.0, 5e-324, 2.0**-53, math.nextafter(0.5, 0), 0.5,
           math.nextafter(0.5, 1), 1 - 2.0**-53, 1.0)


def raw_threshold(p: float) -> int:
    return math.ceil(p * 2**53) << 11


def test_raw_threshold_keeps_the_pairs_whose_uniform_is_below_p():
    """numpy's uniform from a raw output x is (x >> 11) * 2^-53, so x below
    ceil(p * 2^53) * 2^11 keeps exactly the pairs with uniform below p."""
    for seed in (0, 97, (1 << 64) - 12345):
        raw = np.random.Philox(key=seed).random_raw(1 << 16).tolist()
        uniforms = np.random.Generator(np.random.Philox(key=seed)).random(1 << 16)
        for p in EDGE_PS:
            t = raw_threshold(p)
            assert [x < t for x in raw] == (uniforms < p).tolist(), (seed, p)
    # the outputs next to each threshold, which a stream block rarely holds
    ps = EDGE_PS + tuple(random.Random(25).random() for _ in range(200))
    for p in ps:
        t = raw_threshold(p)
        for x in {t - 2**11 - 1, t - 2**11, t - 1, t, t + 2**11 - 1, t + 2**11}:
            if 0 <= x < 2**64:
                assert ((x >> 11) * 2.0**-53 < p) == (x < t), (p, x)


@pytest.mark.parametrize("n", [2, 9, 100, 363])
def test_sample_gnp_matches_reference_at_the_float_edges(n):
    for p in EDGE_PS:
        for seed in (0, 97):
            assert sample_gnp(n, p, seed).rows == reference_sample_gnp(n, p, seed).rows, (n, p)


def test_sample_gnp_is_exact_at_a_pair_uniform():
    """At p equal to pair (0, 1)'s uniform u the pair is absent, and at the
    next float above u it is present.  The seeds whose first raw output
    ends in eleven 0 bits and in eleven 1 bits put u on either edge of its
    step of the integer threshold."""
    def low_bits(seed):
        return int(np.random.Philox(key=seed).random_raw()) & 2047

    seeds = [0, 97, next(s for s in range(1 << 20) if low_bits(s) == 0),
             next(s for s in range(1 << 20) if low_bits(s) == 2047)]
    for seed in seeds:
        u = float(np.random.Generator(np.random.Philox(key=seed)).random())
        for p, edge in ((u, False), (math.nextafter(u, 1), True)):
            g = sample_gnp(5, p, seed)
            assert g.has_edge(0, 1) == edge, (seed, p)
            assert g.rows == reference_sample_gnp(5, p, seed).rows, (seed, p)


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


def fresh_modules(code: str, *names: str, cwd=None) -> list[str]:
    """Which of ``names`` are in sys.modules after ``code`` runs in a fresh
    interpreter that imports wsatlab from this checkout."""
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code += f"\nprint('loaded:', *[m for m in {names!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                         capture_output=True, text=True, check=True,
                         timeout=60).stdout
    return out.splitlines()[-1].split()[1:]


def test_import_leaves_numpy_random_unloaded():
    # the pool's parent must not pay for numpy.random: it only samples in
    # the workers, and the import adds several MB of resident memory
    code = "import sys, wsatlab, wsatlab.cli, wsatlab.experiments"
    assert fresh_modules(code, "numpy.random") == []


def test_commands_that_never_draw_leave_numpy_and_the_pool_unloaded(tmp_path):
    (tmp_path / "g.el").write_text("5\n0 1\n1 2\n0 2\n2 3\n3 4\n2 4\n")
    code = (
        "import sys, wsatlab, wsatlab.cli\n"
        "for argv in (['analyze', '--pattern', 'K4'],\n"
        "             ['close', '--input', 'g.el', '--pattern', 'K3'],\n"
        "             ['percolate', '--input', 'g.el', '--pattern', 'K4']):\n"
        "    assert wsatlab.cli.main(argv) == 0\n"
    )
    assert fresh_modules(code, "numpy", "concurrent.futures.process",
                         "multiprocessing", cwd=tmp_path) == []


def test_pool_parent_loads_numpy_but_not_numpy_random():
    # the workers fork with numpy already imported; only they draw
    code = (
        "import sys\n"
        "from wsatlab.experiments import percolation_curve\n"
        "from wsatlab.graphs import make_clique\n"
        "percolation_curve(12, make_clique(3), [0.3], 8, 1, workers=2)\n"
    )
    assert fresh_modules(code, "numpy", "numpy.random") == ["numpy"]


@pytest.mark.skipif(
    not {"fork", "forkserver"} <= set(multiprocessing.get_all_start_methods()),
    reason="needs the fork and forkserver start methods")
def test_pool_forks_where_the_default_is_forkserver():
    # the workers are forks of the caller, made after numpy was loaded,
    # also where the platform's default start method is another one
    code = (
        "import multiprocessing, os, sys\n"
        "multiprocessing.set_start_method('forkserver')\n"
        "from wsatlab import experiments\n"
        "from wsatlab.graphs import make_clique\n"
        "experiments.percolation_curve(12, make_clique(3), [0.3], 8, 1, workers=2)\n"
        "assert experiments._pool[0].submit(os.getppid).result() == os.getpid()\n"
    )
    assert fresh_modules(code, "numpy.random") == []


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
    monkeypatch.setenv("WSAT_THREADS", "two")
    with pytest.raises(InputError, match="WSAT_THREADS"):
        worker_count()


def test_percolation_curve_extremes():
    pts = percolation_curve(12, make_clique(3), [0.0, 1.0], 25, 5)
    assert pts[0].fraction == 0.0
    assert pts[1].fraction == 1.0


def test_percolation_curve_checks_the_whole_grid_before_any_trial(monkeypatch):
    def no_trials(*args):
        raise AssertionError("a trial ran before the grid was checked")

    monkeypatch.setattr(experiments, "_count_percolating", no_trials)
    k3 = make_clique(3)
    for grid in ([0.1, 0.2, 7.0], [float("nan")], [0.5, -0.1], [0.3, math.inf],
                 [math.nextafter(1.0, 2)]):
        with pytest.raises(InputError, match=r"p must be in \[0,1\]"):
            percolation_curve(12, k3, grid, 5, 1, workers=2)


def test_percolation_curve_worker_invariance():
    k4 = make_clique(4)
    a = percolation_curve(18, k4, [0.15, 0.3], 30, 11, workers=1)
    b = percolation_curve(18, k4, [0.15, 0.3], 30, 11, workers=4)
    assert [(p.successes, p.fraction) for p in a] == [
        (p.successes, p.fraction) for p in b
    ]


def test_expected_ladder_count_closed_form():
    # K_4 ladder of height 1 on k=2 extra vertices: 5 edges, 1 absent pair
    ladder = build_ladder(make_clique(4), 1)
    for n, p in [(60, 0.1), (30, 0.05)]:
        exact = (n - 2) * (n - 3) * p**5 * (1 - p)
        assert expected_ladder_count(n, p, ladder) == pytest.approx(exact, rel=1e-12)
    assert expected_ladder_count(60, 0.0, ladder) == 0.0
    assert expected_ladder_count(60, 1.0, ladder) == 0.0  # absent pair impossible
    with pytest.raises(ValueError):
        expected_ladder_count(3, 0.1, ladder)


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


def test_theory_markers_refuse_n_below_2():
    with pytest.raises(InputError, match="n >= 2"):
        theory_markers(1, analyze(make_clique(4)))


def test_fit_exponent_refuses_a_zero_p_hat():
    # bisect_pc reports p_hat = 0 where every probe percolates
    est = bisect_pc(10, make_clique(2), trials=20, tolerance=0.2, master_seed=3)
    pts = [(n, 3.0 * n**-1.5) for n in (50, 100, 200)] + [(10, est.p_hat)]
    with pytest.raises(InputError, match="positive"):
        fit_exponent(pts)


def test_fit_exponent_refuses_a_zero_n():
    pts = [(n, 3.0 * n**-1.5) for n in (50, 100, 200)] + [(0, 0.5)]
    with pytest.raises(InputError, match="positive"):
        fit_exponent(pts)


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


def test_bisect_pc_starts_from_lambda_of_any_pattern_size():
    """lambda comes from the pattern's counts, so a pattern too large for
    the exhaustive invariants of ``analyze`` is searched too."""
    k13 = make_clique(13)
    est = bisect_pc(16, k13, trials=5, tolerance=0.2, master_seed=1)
    lam = (k13.edge_count - 2) / (k13.n - 2)  # 76/11
    assert est.probes[0][0] == min(0.9, 16.0 ** (-1.0 / lam))
    assert 0.0 < est.p_hat <= 1.0


def test_ladder_experiment_refuses_alpha_without_positive_lambda():
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(InputError, match="lambda"):
        ladder_base_experiment(20, two_k2, 3, 1, alpha=2.0, beta=0.3)


def test_bisect_pc_deterministic_across_workers():
    a = bisect_pc(30, make_clique(3), trials=60, tolerance=0.2, master_seed=5,
                  workers=1)
    b = bisect_pc(30, make_clique(3), trials=60, tolerance=0.2, master_seed=5,
                  workers=4)
    assert a.p_hat == b.p_hat and a.probes == b.probes


def two_loop_bisect_pc(n, pattern, trials, tolerance, master_seed, workers=None):
    """The earlier ``bisect_pc``, which grew its bracket with one loop that
    halves p and a mirror loop that doubles it; the reference for the one
    bracket loop."""
    experiments._check_sizes(n, trials)
    if not tolerance >= 0:
        raise InputError("tolerance >= 0 required")
    lam = experiments._lambda(pattern)
    start = min(0.9, float(n) ** (-1.0 / lam)) if lam is not None else 0.5
    probes = []

    def probe(p):
        succ = experiments._count_percolating(n, p, pattern, trials, master_seed,
                                              len(probes) << 40, workers)
        frac = succ / trials
        probes.append((p, succ, trials, frac))
        return frac

    lo, hi = 0.0, 1.0
    p = start
    if probe(p) >= 0.5:
        hi = p
        while len(probes) < experiments.MAX_PROBES:
            p /= 2
            if p < 1e-9:
                return experiments.PcEstimate(n, 0.0, (0.0, hi), trials, probes, True)
            if probe(p) >= 0.5:
                hi = p
            else:
                lo = p
                break
    else:
        lo = p
        while len(probes) < experiments.MAX_PROBES and p < 1.0:
            p = min(1.0, p * 2)
            if probe(p) >= 0.5:
                hi = p
                break
            lo = p

    while len(probes) < experiments.MAX_PROBES:
        mid = (lo + hi) / 2
        if hi - lo < tolerance * mid:
            break
        frac = probe(mid)
        ci = wilson_interval(probes[-1][1], trials)
        if ci[0] < 0.5 < ci[1]:
            return experiments.PcEstimate(n, mid, (lo, hi), trials, probes, True)
        if frac >= 0.5:
            hi = mid
        else:
            lo = mid
    p_hat = (lo + hi) / 2
    converged = hi - lo < tolerance * p_hat if p_hat > 0 else True
    return experiments.PcEstimate(n, p_hat, (lo, hi), trials, probes, converged)


def fake_probes(kind: str, case: int, threshold: float):
    """A stand-in for ``_count_percolating``: a deterministic count of
    percolating trials at p, with no graph drawn."""
    def count(n, p, pattern, trials, master_seed, stream, workers):
        if kind == "always":
            return trials
        if kind == "never":
            return 0
        if kind == "step":
            return trials if p >= threshold else 0
        # noisy: a logistic curve in log p plus seeded Gaussian noise
        q = 1 / (1 + (threshold / p) ** 4)
        noise = random.Random(f"{case}:{p!r}:{stream}").gauss(0, 1)
        return min(trials, max(0, round(trials * q + noise * math.sqrt(trials * q * (1 - q)))))
    return count


def test_bisect_pc_one_bracket_loop_matches_the_two_loops(monkeypatch):
    rng = random.Random(20201020)
    n, h = 100, make_clique(4)
    starts = [2e-9, 2.5e-9, 0.9, 0.95, 0.5, 1e-3]
    for case in range(2000):
        kind = ("always", "never", "step", "noisy")[case % 4]
        threshold = 10 ** rng.uniform(-12, 0.3)
        start = starts[case] if case < len(starts) else 10 ** rng.uniform(math.log10(2e-9), 0)
        # n ** (-1 / lam) == start, up to rounding, and None starts at 0.5
        lam = None if case % 50 == 7 else -math.log(n) / math.log(start)
        trials = rng.choice((1, 2, 3, 5, 40, 399, 400, rng.randint(1, 400)))
        tolerance = rng.choice((0.0, math.inf, rng.uniform(0, 0.5)))
        monkeypatch.setattr(experiments, "_lambda", lambda pattern: lam)
        monkeypatch.setattr(experiments, "_count_percolating",
                            fake_probes(kind, case, threshold))
        args = (n, h, trials, tolerance, case)
        assert bisect_pc(*args) == two_loop_bisect_pc(*args), (case, kind, threshold)


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


def test_ladder_experiment_builds_its_ladder_once(monkeypatch):
    from wsatlab import ladders

    builds, build = [], ladders.build_ladder

    def counting_build(*args):
        builds.append(args)
        return build(*args)

    expected = ladder_base_experiment(20, make_clique(4), 12, 23, p=0.3, height=1)
    monkeypatch.setattr(experiments, "build_ladder", counting_build)
    monkeypatch.setattr(ladders, "build_ladder", counting_build)
    assert ladder_base_experiment(20, make_clique(4), 12, 23, p=0.3, height=1) == expected
    assert len(builds) == 1


def test_ladder_experiment_refuses_a_ladder_too_large_before_building_it(monkeypatch):
    """(v_H - 2) * height > n - 2 is refused before the ladder is built, so
    a height of billions is a usage error, not a MemoryError; a pattern
    without two non-incident edges is still refused."""

    def no_build(*args):
        raise AssertionError(f"build_ladder{args} called")

    k4 = make_clique(4)
    with monkeypatch.context() as m:
        m.setattr(experiments, "build_ladder", no_build)
        for params in ({"alpha": 2.0, "beta": 1e9}, {"alpha": 2.0, "beta": 3.0},
                       {"p": 0.5, "height": 10**9}, {"p": 0.5, "height": 5}):
            with pytest.raises(InputError, match="ladder does not fit in the host"):
                ladder_base_experiment(10, k4, 3, 1, **params)
    star = make_complete_bipartite(1, 3)
    for params in ({"alpha": 2.0, "beta": 0.3}, {"p": 0.5, "height": 1}):
        with pytest.raises(InputError, match="non-incident edges"):
            ladder_base_experiment(10, star, 3, 1, **params)


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


def test_trial_ranges_partition_the_trials():
    for processes in range(1, 6):
        for trials in range(1, 51):
            ranges = experiments._trial_ranges(trials, processes)
            assert len(ranges) == (1 if processes == 1 else min(trials, 2 * processes))
            assert all(lo < hi for lo, hi in ranges)
            covered = [t for lo, hi in ranges for t in range(lo, hi)]
            assert covered == list(range(trials)), (trials, processes)


def test_ladder_experiment_is_the_same_at_any_worker_count():
    k4 = make_clique(4)
    outs = [ladder_base_experiment(20, k4, 12, 23, p=0.3, height=1, workers=w)
            for w in (1, 2, 3)]
    assert outs[0] == outs[1] == outs[2]


def test_one_pool_per_process_and_worker_count(monkeypatch):
    pools = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    experiments._drop_pool()
    k3, k4 = make_clique(3), make_clique(4)
    ps = [0.15, 0.25, 0.35]
    serial = bisect_pc(30, k3, trials=40, tolerance=0.2, master_seed=5, workers=1)
    serial_curve = percolation_curve(18, k4, ps, 20, 11, workers=1)
    # a map of at most one trial runs in-process, also at more than one worker
    assert percolation_curve(18, k4, ps, 1, 11, workers=2) == \
        percolation_curve(18, k4, ps, 1, 11, workers=1)
    assert ladder_base_experiment(18, k4, 1, 11, p=0.3, height=1, workers=2) == \
        ladder_base_experiment(18, k4, 1, 11, p=0.3, height=1, workers=1)
    assert pools == []
    pooled = bisect_pc(30, k3, trials=40, tolerance=0.2, master_seed=5, workers=2)
    pooled_curve = percolation_curve(18, k4, ps, 20, 11, workers=2)
    assert len(pools) == 1
    assert len(serial.probes) > 1 and pooled.probes == serial.probes
    assert pooled_curve == serial_curve
    # the old pool's threads are gone before the new pool forks, which
    # Python 3.12 and later would report with a DeprecationWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        replaced = percolation_curve(18, k4, ps, 20, 11, workers=3)
    assert len(pools) == 2 and experiments._pool[0] is pools[1]
    assert replaced == serial_curve


def test_the_pool_runs_at_most_one_process_per_usable_cpu(monkeypatch):
    """The pool and the trial ranges are sized by the processes that run,
    not by the worker count asked for, and every map sends one task per
    range, of the one task shape (n, p, master_seed, stream, lo, hi,
    pattern)."""
    sizes, maps = [], []

    class InProcessPool:
        """Records the pool size and each map's function and tasks, and maps
        in this process: nothing forks."""

        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)

        def map(self, fn, items, chunksize=1):
            maps.append((fn, list(items)))
            return map(fn, maps[-1][1])

        def shutdown(self, wait=True):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(experiments, "_pool", None)
    # four usable CPUs on any machine: the pool forks nothing
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    k4, ps = make_clique(4), [0.15, 0.25, 0.35]
    serial = percolation_curve(18, k4, ps, 20, 11, workers=1)
    serial_ladder = ladder_base_experiment(18, k4, 20, 11, p=0.3, height=1, workers=1)
    assert maps == []
    assert percolation_curve(18, k4, ps, 20, 11, workers=10**6) == serial
    assert ladder_base_experiment(18, k4, 20, 11, p=0.3, height=1, workers=10**6) == \
        serial_ladder
    assert sizes == [4] and experiments._pool[1] == 10**6
    ranges = experiments._trial_ranges(20, 4)
    assert len(ranges) == 2 * 4
    ladder = build_ladder(k4, 1)
    assert maps == [
        (experiments._percolating_in_range,
         [(18, p, 11, pi << 32, lo, hi, k4) for lo, hi in ranges])
        for pi, p in enumerate(ps)
    ] + [(experiments._ladder_counts_in_range,
          [(18, 0.3, 11, 0, lo, hi, ladder) for lo, hi in ranges])]
    assert not hasattr(experiments, "_percolation_trial")
    assert not hasattr(experiments, "_ladder_count_trial")


def gone(pid: int, timeout: float = 10.0) -> bool:
    """Whether process ``pid`` has ended (a zombie counts) within ``timeout``."""
    stat = Path(f"/proc/{pid}/stat")
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if stat.read_text().rsplit(")", 1)[1].split()[0] in "ZX":
                return True
        except (FileNotFoundError, ProcessLookupError):
            return True
        time.sleep(0.01)
    return False


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("ending,code", [("", 0), ("raise RuntimeError('uncaught')", 1),
                                         ("import os; os._exit(1)", 1)],
                         ids=["normal-exit", "uncaught-exception", "os-exit"])
def test_no_worker_outlives_its_process(ending, code, tmp_path):
    script = (
        "import multiprocessing\n"
        "from wsatlab.experiments import percolation_curve\n"
        "from wsatlab.graphs import make_clique\n"
        "percolation_curve(12, make_clique(3), [0.3], 8, 1, workers=2)\n"
        "print(*[p.pid for p in multiprocessing.active_children()], flush=True)\n"
        + ending
    )
    src = str(Path(experiments.__file__).resolve().parents[1])
    # files, not pipes: a worker left running would hold a pipe open
    out, err = tmp_path / "out", tmp_path / "err"
    with out.open("w") as fout, err.open("w") as ferr:
        proc = subprocess.run([sys.executable, "-c", script],
                              env=dict(os.environ, PYTHONPATH=src),
                              stdout=fout, stderr=ferr, timeout=60)
    assert proc.returncode == code, err.read_text()
    pids = [int(x) for x in out.read_text().split()]
    assert len(pids) == 2
    if "_exit" in ending:
        # no exit hook ran: each worker ends by itself once its parent has
        # gone, and stays a zombie until whoever inherited it reaps it
        assert all(gone(pid) for pid in pids)
    else:
        # the exit hook joins the workers, so none is left, not even a zombie
        assert not [pid for pid in pids if Path(f"/proc/{pid}").exists()]


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_a_killed_worker_fails_at_most_one_call():
    k4 = make_clique(4)
    ps = [0.15, 0.25, 0.35]
    serial = percolation_curve(18, k4, ps, 40, 11, workers=1)
    assert percolation_curve(18, k4, ps, 40, 11, workers=2) == serial
    pid = experiments._pool[0].submit(os.getpid).result()
    os.kill(pid, signal.SIGKILL)
    assert gone(pid)
    try:
        assert percolation_curve(18, k4, ps, 40, 11, workers=2) == serial
    except BrokenProcessPool:
        assert experiments._pool is None
    assert percolation_curve(18, k4, ps, 40, 11, workers=2) == serial
