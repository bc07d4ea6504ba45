"""Seeded Monte Carlo: G(n,p) sampling, percolation curves, p_c bisection,
exponent fits, and the induced-ladder frequency experiment.

Reproducibility contract: randomness comes from numpy's counter-based
Philox generator, keyed per trial as Philox(key=mix_seed(master_seed,
stream_id)) where mix_seed is the splitmix64-based mixing function below.
Identical (parameters, master seed) therefore give identical output
regardless of worker count; WSAT_THREADS (or the ``workers`` argument) only
partitions the work.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .closure import percolates
from .graphs import Graph
from .ladders import LadderSpec, build_ladder, count_induced_ladders_at
from .patterns import PatternStats, analyze

_MASK64 = (1 << 64) - 1
_PHI64 = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _PHI64) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix_seed(master_seed: int, stream_id: int) -> int:
    """Published 64-bit mixing function for per-stream seeds."""
    return _splitmix64(_splitmix64(master_seed & _MASK64) ^ ((stream_id * _PHI64) & _MASK64))


# Uniforms are drawn in blocks of this many, so one draw never holds the
# n(n - 1)/2 float64s at once; each float64 consumes one 64-bit Philox
# output, so the blocks do not change the stream.
_BLOCK = 1 << 16

_thread = threading.local()


def _philox_stream(seed: int) -> np.random.Generator:
    """This thread's Generator(Philox), set to the start of the stream of
    Philox(key=seed): counter 0, key [seed mod 2^64, 0], empty buffer.

    Building Philox(key=...) per draw would gather OS entropy for a
    SeedSequence that is then thrown away.  The generator is made on first
    use, so importing this module does not import numpy.random.
    """
    rng = getattr(_thread, "rng", None)
    if rng is None:
        rng = _thread.rng = np.random.Generator(np.random.Philox(0))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([seed & _MASK64, 0], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def sample_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi sample, fully determined by (n, p, seed).

    Pair k of the upper triangle in row-major order, (0, 1), (0, 2), ...,
    (n - 2, n - 1), is an edge iff the k-th uniform of the Philox stream
    keyed by ``seed`` is below p.  A draw needs O(n^2) bytes of scratch.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0,1]")
    if n < 1:
        raise ValueError("n >= 1 required")
    rng = _philox_stream(seed)
    v = np.arange(n)
    starts = v * (2 * n - v - 1) // 2       # index of pair (v, v + 1)
    total = n * (n - 1) // 2
    a = np.zeros((n, n), dtype=bool)
    for off in range(0, total, _BLOCK):
        k = np.flatnonzero(rng.random(min(_BLOCK, total - off)) < p) + off
        i = np.searchsorted(starts, k, side="right") - 1
        j = k - starts[i] + i + 1
        a[i, j] = True
        a[j, i] = True
    data = np.packbits(a, axis=1, bitorder="little").tobytes()
    w = (n + 7) // 8
    from_bytes = int.from_bytes
    return Graph.from_rows(
        n, [from_bytes(data[x:x + w], "little") for x in range(0, n * w, w)]
    )


# -- worker plumbing -----------------------------------------------------------


def worker_count(workers: int | None = None) -> int:
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("WSAT_THREADS")
    return max(1, int(env)) if env else 1


@contextmanager
def _trial_map(workers: int | None):
    """Yields ``map(fn, items) -> list`` for one Monte Carlo call: in-process
    at one worker (``worker_count(workers)``), else on a single process pool
    that every probe of the call reuses.  Results come back in task order,
    and the chunk size depends on the task and worker counts only."""
    workers = worker_count(workers)
    if workers <= 1:
        yield lambda fn, items: [fn(x) for x in items]
        return
    with ProcessPoolExecutor(max_workers=workers) as ex:

        def pool_map(fn, items: list) -> list:
            if len(items) <= 1:
                return [fn(x) for x in items]
            chunk = max(1, len(items) // (4 * workers))
            return list(ex.map(fn, items, chunksize=chunk))

        yield pool_map


# Trial tasks carry the pattern Graph itself: pickle sends one shared object
# once per pool chunk, which is cheaper than parsing graph6 in every trial.
def _percolation_trial(args: tuple[int, float, int, Graph]) -> bool:
    n, p, seed, h = args
    return percolates(sample_gnp(n, p, seed), h)


def _ladder_count_trial(args: tuple[int, float, int, Graph, int]) -> int:
    n, p, seed, h, height = args
    spec = LadderSpec(pattern=h, height=height)
    return count_induced_ladders_at(sample_gnp(n, p, seed), (0, 1), spec)


def _check_sizes(n: int, trials: int) -> None:
    if n < 1:
        raise ValueError("n >= 1 required")
    if trials < 1:
        raise ValueError("trials >= 1 required")


def _count_percolating(
    trial_map, n: int, p: float, pattern: Graph, trials: int, master_seed: int,
    stream: int,
) -> int:
    """Trials of G(n, p) that percolate; trial t draws stream ``stream | t``."""
    tasks = [
        (n, p, mix_seed(master_seed, stream | t), pattern) for t in range(trials)
    ]
    return sum(trial_map(_percolation_trial, tasks))


# -- percolation probability ----------------------------------------------------

# The normal quantile of the 95% Wilson score interval.
WILSON_Z = 1.96


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    if trials == 0:
        return (0.0, 1.0)
    z = WILSON_Z
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass
class CurvePoint:
    n: int
    p: float
    trials: int
    successes: int
    fraction: float
    ci_lo: float
    ci_hi: float


def percolation_curve(
    n: int,
    pattern: Graph,
    ps: list[float],
    trials: int,
    master_seed: int,
    workers: int | None = None,
) -> list[CurvePoint]:
    _check_sizes(n, trials)
    points = []
    with _trial_map(workers) as trial_map:
        for pi, p in enumerate(ps):
            succ = _count_percolating(trial_map, n, p, pattern, trials,
                                      master_seed, pi << 32)
            lo, hi = wilson_interval(succ, trials)
            points.append(CurvePoint(n, p, trials, succ, succ / trials, lo, hi))
    return points


# -- p_c search -------------------------------------------------------------------


@dataclass
class PcEstimate:
    n: int
    p_hat: float
    interval: tuple[float, float]
    trials_per_probe: int
    probes: list[tuple[float, int, int, float]]  # (p, successes, trials, fraction)
    converged: bool


MAX_PROBES = 48


def bisect_pc(
    n: int,
    pattern: Graph,
    trials: int,
    tolerance: float,
    master_seed: int,
    workers: int | None = None,
) -> PcEstimate:
    """Bisection for the median percolation point, exploiting monotonicity
    of the percolation event in p.  The initial bracket is grown by
    doubling/halving from the n^(-1/lambda) theory marker.  A search runs at
    most ``MAX_PROBES`` (48) probes of ``trials`` trials each; one that
    stops at the cap reports the midpoint of its bracket."""
    _check_sizes(n, trials)
    if not tolerance >= 0:  # NaN included
        raise ValueError("tolerance >= 0 required")
    stats = analyze(pattern)
    if stats.lam is not None and stats.lam > 0:
        start = min(0.9, float(n) ** (-1.0 / float(stats.lam)))
    else:
        start = 0.5
    probes: list[tuple[float, int, int, float]] = []
    with _trial_map(workers) as trial_map:

        def probe(p: float) -> float:
            succ = _count_percolating(trial_map, n, p, pattern, trials,
                                      master_seed, len(probes) << 40)
            frac = succ / trials
            probes.append((p, succ, trials, frac))
            return frac

        lo, hi = 0.0, 1.0
        p = start
        if probe(p) >= 0.5:
            hi = p
            while len(probes) < MAX_PROBES:
                p /= 2
                if p < 1e-9:
                    # everything percolates down to negligible p
                    return PcEstimate(n, 0.0, (0.0, hi), trials, probes, True)
                if probe(p) >= 0.5:
                    hi = p
                else:
                    lo = p
                    break
        else:
            lo = p
            while len(probes) < MAX_PROBES and p < 1.0:
                p = min(1.0, p * 2)
                if probe(p) >= 0.5:
                    hi = p
                    break
                lo = p

        while len(probes) < MAX_PROBES:
            mid = (lo + hi) / 2
            if hi - lo < tolerance * mid:
                break
            frac = probe(mid)
            ci = wilson_interval(probes[-1][1], trials)
            if ci[0] < 0.5 < ci[1]:
                # the trial budget cannot resolve which side of p_c this probe
                # sits on, so the midpoint itself is the estimate
                return PcEstimate(n, mid, (lo, hi), trials, probes, True)
            if frac >= 0.5:
                hi = mid
            else:
                lo = mid
        p_hat = (lo + hi) / 2
        converged = hi - lo < tolerance * p_hat if p_hat > 0 else True
        return PcEstimate(n, p_hat, (lo, hi), trials, probes, converged)


# -- theory markers and ladder statistics ----------------------------------------


def theory_markers(n: int, stats: PatternStats) -> dict[str, float]:
    """Unit-constant marker values: n^(-1/lambda) and the general lower-bound
    order n^(-1/lambda*) (log n)^(1/lambda*-1)."""
    if stats.lam is None or stats.lam <= 0:
        raise ValueError("lambda undefined for this pattern")
    assert stats.lambda_star is not None
    inv_l = 1.0 / float(stats.lam)
    inv_ls = 1.0 / float(stats.lambda_star)
    return {
        "upper_order": n ** (-inv_l),
        "lower_order": n ** (-inv_ls) * math.log(n) ** (inv_ls - 1.0),
    }


def expected_ladder_count(n: int, p: float, spec: LadderSpec) -> float:
    """Exact expected number of labeled induced ladders at a fixed base,
    evaluated in log space."""
    ladder = build_ladder(spec)
    k = ladder.size
    if k > n - 2:
        raise ValueError("ladder does not fit in the host")
    e_ladder = ladder.graph.edge_count           # lambda*k + 1
    non_edges = (k + 2) * (k + 1) // 2 - e_ladder
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 0.0 if non_edges > 0 else math.exp(
            math.lgamma(n - 1) - math.lgamma(n - 1 - k)
        )
    log_val = (
        math.lgamma(n - 1)
        - math.lgamma(n - 1 - k)
        + e_ladder * math.log(p)
        + non_edges * math.log1p(-p)
    )
    return math.exp(log_val)


def ladder_base_experiment(
    n: int,
    pattern: Graph,
    trials: int,
    master_seed: int,
    *,
    p: float | None = None,
    height: int | None = None,
    alpha: float | None = None,
    beta: float | None = None,
    workers: int | None = None,
) -> dict:
    """Frequency with which the fixed pair (0,1) is the base of an induced
    ladder, plus the empirical mean count against its exact expectation.

    Exactly one parameter pair must be given: (p, height), or (alpha, beta)
    with p = (alpha/n)^(1/lambda) and height = round(beta log n) clamped to
    >= 1.  With (alpha, beta) the result also holds ``gamma`` =
    1 - 1/(alpha^(v_H - 2) - 1), or None where alpha^(v_H - 2) <= 1 leaves
    it undefined, and the admissibility constraints on (alpha, beta),
    reported, not enforced; their upper bound (v_H - 2) log alpha is None at
    alpha = 0, where no (alpha, beta) satisfies them.
    """
    _check_sizes(n, trials)
    given = (alpha is not None, beta is not None, p is not None, height is not None)
    if given not in ((True, True, False, False), (False, False, True, True)):
        raise ValueError("exactly one of (alpha, beta) or (p, height) must be set")
    report: dict = {}
    if alpha is not None:
        if not alpha >= 0:  # NaN included
            raise ValueError("alpha >= 0 required")
        if not beta > 0:  # NaN included
            raise ValueError("beta > 0 required")
        stats = analyze(pattern)
        assert stats.lam is not None
        lam = float(stats.lam)
        p = (alpha / n) ** (1.0 / lam)
        height = max(1, round(beta * math.log(n)))
        denom = alpha ** (stats.v_h - 2) - 1
        report["gamma"] = 1.0 - 1.0 / denom if denom > 0 else None
        lo = math.log(2)
        mid = 1.0 / (lam * beta)
        hi = (stats.v_h - 2) * math.log(alpha) if alpha > 0 else None
        report["constraints_satisfied"] = hi is not None and lo < mid < hi
        report["constraint_values"] = {"log2": lo, "inv_lambda_beta": mid,
                                       "vh2_log_alpha": hi}
    tasks = [
        (n, p, mix_seed(master_seed, t), pattern, height) for t in range(trials)
    ]
    with _trial_map(workers) as trial_map:
        counts = trial_map(_ladder_count_trial, tasks)
    counts_arr = np.asarray(counts, dtype=float)
    mean = float(counts_arr.mean())
    se = float(counts_arr.std(ddof=1) / math.sqrt(len(counts_arr))) if len(counts_arr) > 1 else 0.0
    formula = expected_ladder_count(n, p, LadderSpec(pattern=pattern, height=height))
    return {
        "n": n,
        "p": p,
        "height": height,
        "trials": trials,
        "base_frequency": float((counts_arr > 0).mean()),
        "mean_count": mean,
        "stderr_count": se,
        "formula_count": formula,
        **report,
    }


# -- exponent fit -------------------------------------------------------------------


def fit_exponent(estimates: list[tuple[int, float]]) -> tuple[float, float]:
    """Least-squares slope of log p_hat against log n, with standard error."""
    if len(estimates) < 3:
        raise ValueError("need at least 3 points")
    xs = np.log([float(n) for n, _ in estimates])
    ys = np.log([float(p) for _, p in estimates])
    if np.allclose(xs, xs[0]):
        raise ValueError("degenerate fit: all n equal")
    a = np.vstack([xs, np.ones_like(xs)]).T
    coef, residuals, *_ = np.linalg.lstsq(a, ys, rcond=None)
    slope = float(coef[0])
    dof = len(xs) - 2
    if dof > 0 and residuals.size:
        s2 = float(residuals[0]) / dof
        stderr = math.sqrt(s2 / float(((xs - xs.mean()) ** 2).sum()))
    else:
        stderr = 0.0
    return slope, stderr
