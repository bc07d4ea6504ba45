"""Seeded Monte Carlo: G(n,p) sampling, percolation curves, p_c bisection,
exponent fits, and the induced-ladder frequency experiment.

Reproducibility contract: randomness comes from numpy's counter-based
Philox generator, keyed per trial as Philox(key=mix_seed(master_seed,
stream_id)) where mix_seed is the splitmix64-based mixing function below.
Identical (parameters, master seed) therefore give identical output
regardless of worker count; WSAT_THREADS (or the ``workers`` argument) only
partitions the work.

Importing this module imports neither numpy nor the process-pool stack, so
commands that never draw start without them.  numpy is imported by the
first draw (``sample_gnp``) and by the functions that compute with arrays
(``ladder_base_experiment``, ``fit_exponent``).

Maps of more than one trial at more than one worker run on one process
pool kept for the life of the process (``_map_trials``); every other map
runs in-process.  The pool is forked after loading numpy, but not
numpy.random, in the parent: the workers inherit numpy instead of each
importing it, and only they draw, so numpy.random stays out of the
parent.  It forks on every platform that has the fork start method, also
where another method is the default (Linux from Python 3.14 on), and
takes the platform default elsewhere.  The workers stop at interpreter
exit, through ``concurrent.futures``' own exit hook, and each also ends
once the parent has ended, so a parent that skips its exit hooks
(``os._exit``, a signal) leaves none behind.
"""

from __future__ import annotations

import atexit
import importlib
import math
import os
import threading
from dataclasses import dataclass

from .closure import percolates
from .graphs import Graph, InputError
from .ladders import Ladder, build_ladder, count_induced_ladders_at
from .patterns import PatternStats

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


def _philox_stream(seed: int):
    """This thread's numpy Generator(Philox), set to the start of the
    stream of Philox(key=seed): counter 0, key [seed mod 2^64, 0], empty
    buffer.

    Building Philox(key=...) per draw would gather OS entropy for a
    SeedSequence that is then thrown away.  The generator is made on first
    use, so only a process that draws imports numpy.random.
    """
    import numpy as np

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
        raise InputError("p must be in [0,1]")
    if n < 1:
        raise InputError("n >= 1 required")
    import numpy as np

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
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise InputError(f"WSAT_THREADS must be an integer, got {env!r}") from None


# The process pool of ``_map_trials`` and its worker count, or None.
_pool = None


def _drop_pool() -> None:
    """Shut the kept pool down, wait for it, and forget it."""
    global _pool
    if _pool is not None:
        _pool[0].shutdown(wait=True)
        _pool = None


def _end_with_parent() -> None:
    """Pool initializer: a daemon thread ends this worker once the process
    that forked it has ended, also one that skipped its exit hooks
    (``os._exit``, a signal)."""
    import multiprocessing
    from multiprocessing.connection import wait

    sentinel = multiprocessing.parent_process().sentinel

    def watch() -> None:
        wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


# concurrent.futures' exit hook stops the workers before atexit functions
# run; dropping the pool then releases the executor while the modules it
# needs are still loaded, not during interpreter teardown.
atexit.register(_drop_pool)


def _map_trials(fn, items: list, workers: int | None) -> list:
    """``[fn(x) for x in items]``, in order: in-process at one worker
    (``worker_count(workers)``) or for at most one item, else on the process
    pool kept in ``_pool``, in chunks whose size depends on the item and
    worker counts only.

    The pool is forked by the first pooled map and kept for the life of the
    process, so later maps at that worker count skip the start-up and the
    workers' imports.  A map at another count first shuts the old pool down
    and waits for it, so no fork happens while its threads run.  A map that
    raises ``BrokenProcessPool`` drops the pool and re-raises; the next map
    forks a fresh one.  The workers run the module state of the moment they
    were forked: a change made in the parent later (a patched function, say)
    does not reach them.  The pool is not locked: it assumes that maps come
    from one thread.
    """
    global _pool
    workers = worker_count(workers)
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    if _pool is not None and _pool[1] != workers:
        _drop_pool()
    if _pool is None:
        # Forked workers inherit numpy from here rather than each importing
        # it; numpy.random stays out of the parent, which never draws.
        importlib.import_module("numpy")
        import multiprocessing

        fork = "fork" in multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork") if fork else None
        _pool = (ProcessPoolExecutor(max_workers=workers, mp_context=context,
                                     initializer=_end_with_parent),
                 workers)
    chunk = max(1, len(items) // (4 * workers))
    try:
        return list(_pool[0].map(fn, items, chunksize=chunk))
    except BrokenProcessPool:
        _drop_pool()
        raise


# Trial tasks carry the pattern Graph itself: pickle sends one shared object
# once per pool chunk, which is cheaper than parsing graph6 in every trial.
def _percolation_trial(args: tuple[int, float, int, Graph]) -> bool:
    n, p, seed, h = args
    return percolates(sample_gnp(n, p, seed), h)


def _ladder_count_trial(args: tuple[int, float, int, Ladder]) -> int:
    n, p, seed, ladder = args
    return count_induced_ladders_at(sample_gnp(n, p, seed), (0, 1), ladder)


def _check_sizes(n: int, trials: int) -> None:
    if n < 1:
        raise InputError("n >= 1 required")
    if trials < 1:
        raise InputError("trials >= 1 required")


def _count_percolating(
    n: int, p: float, pattern: Graph, trials: int, master_seed: int, stream: int,
    workers: int | None,
) -> int:
    """Trials of G(n, p) that percolate; trial t draws stream ``stream | t``."""
    tasks = [
        (n, p, mix_seed(master_seed, stream | t), pattern) for t in range(trials)
    ]
    return sum(_map_trials(_percolation_trial, tasks, workers))


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
    for pi, p in enumerate(ps):
        succ = _count_percolating(n, p, pattern, trials, master_seed, pi << 32,
                                  workers)
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


def _lambda(pattern: Graph) -> float | None:
    """lambda = (e_H - 2)/(v_H - 2), the exponent of the n^(-1/lambda)
    marker, from the pattern's vertex and edge counts alone, or None where
    it is undefined or not positive."""
    v_h, e_h = pattern.n, pattern.edge_count
    if v_h < 3 or e_h <= 2:
        return None
    return (e_h - 2) / (v_h - 2)


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
    doubling/halving from the n^(-1/lambda) theory marker, with lambda =
    (e_H - 2)/(v_H - 2) read from the pattern's counts (so a pattern of any
    size can be searched), or from p = 0.5 where lambda is undefined or not
    positive.  A search runs at most ``MAX_PROBES`` (48) probes of
    ``trials`` trials each; one that stops at the cap reports the midpoint
    of its bracket."""
    _check_sizes(n, trials)
    if not tolerance >= 0:  # NaN included
        raise InputError("tolerance >= 0 required")
    lam = _lambda(pattern)
    start = min(0.9, float(n) ** (-1.0 / lam)) if lam is not None else 0.5
    probes: list[tuple[float, int, int, float]] = []

    def probe(p: float) -> float:
        succ = _count_percolating(n, p, pattern, trials, master_seed,
                                  len(probes) << 40, workers)
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
    order n^(-1/lambda*) (log n)^(1/lambda*-1), for n >= 2, where log n > 0."""
    if n < 2:
        raise InputError("n >= 2 required")
    if stats.lam is None or stats.lam <= 0:
        raise InputError("lambda undefined for this pattern")
    assert stats.lambda_star is not None
    inv_l = 1.0 / float(stats.lam)
    inv_ls = 1.0 / float(stats.lambda_star)
    return {
        "upper_order": n ** (-inv_l),
        "lower_order": n ** (-inv_ls) * math.log(n) ** (inv_ls - 1.0),
    }


def expected_ladder_count(n: int, p: float, ladder: Ladder) -> float:
    """Exact expected number of labeled induced ladders at a fixed base,
    evaluated in log space."""
    k = ladder.size
    if k > n - 2:
        raise InputError("ladder does not fit in the host")
    e_ladder = ladder.graph.edge_count           # lambda*k + 1
    non_edges = (k + 2) * (k + 1) // 2 - e_ladder
    # the base pair is absent, so non_edges >= 1 and p = 1 leaves no ladder
    if p <= 0.0 or p >= 1.0:
        return 0.0
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
    alpha = 0, where no (alpha, beta) satisfies them.  lambda =
    (e_H - 2)/(v_H - 2) comes from the pattern's counts, and (alpha, beta)
    refuses a pattern with lambda = 0.
    """
    _check_sizes(n, trials)
    given = (alpha is not None, beta is not None, p is not None, height is not None)
    if given not in ((True, True, False, False), (False, False, True, True)):
        raise InputError("exactly one of (alpha, beta) or (p, height) must be set")
    report: dict = {}
    if alpha is not None:
        if not alpha >= 0:  # NaN included
            raise InputError("alpha >= 0 required")
        if not beta > 0:  # NaN included
            raise InputError("beta > 0 required")
        height = max(1, round(beta * math.log(n)))
    # a ladder too large for the host is refused before it is built; then
    # either parameter pair refuses a pattern without two non-incident edges
    if (pattern.n - 2) * height > n - 2:
        raise InputError("ladder does not fit in the host")
    ladder = build_ladder(pattern, height)
    if alpha is not None:
        lam = _lambda(pattern)
        if lam is None:
            raise InputError("alpha needs lambda = (e_H - 2)/(v_H - 2) > 0")
        p = (alpha / n) ** (1.0 / lam)
        v_h = pattern.n
        denom = alpha ** (v_h - 2) - 1
        report["gamma"] = 1.0 - 1.0 / denom if denom > 0 else None
        lo = math.log(2)
        mid = 1.0 / (lam * beta)
        hi = (v_h - 2) * math.log(alpha) if alpha > 0 else None
        report["constraints_satisfied"] = hi is not None and lo < mid < hi
        report["constraint_values"] = {"log2": lo, "inv_lambda_beta": mid,
                                       "vh2_log_alpha": hi}
    formula = expected_ladder_count(n, p, ladder)
    tasks = [(n, p, mix_seed(master_seed, t), ladder) for t in range(trials)]
    counts = _map_trials(_ladder_count_trial, tasks, workers)
    import numpy as np

    counts_arr = np.asarray(counts, dtype=float)
    mean = float(counts_arr.mean())
    se = float(counts_arr.std(ddof=1) / math.sqrt(len(counts_arr))) if len(counts_arr) > 1 else 0.0
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
    """Least-squares slope of log p_hat against log n, with standard error;
    every n and p_hat must be positive (``bisect_pc`` reports p_hat = 0
    where everything percolates)."""
    if len(estimates) < 3:
        raise InputError("need at least 3 points")
    if not all(n > 0 and p > 0 for n, p in estimates):  # NaN included
        raise InputError("every n and p_hat must be positive")
    import numpy as np

    xs = np.log([float(n) for n, _ in estimates])
    ys = np.log([float(p) for _, p in estimates])
    if np.allclose(xs, xs[0]):
        raise InputError("degenerate fit: all n equal")
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
