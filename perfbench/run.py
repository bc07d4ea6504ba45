"""wsatlab benchmark: closed-loop workloads with end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pc-k4-n100 --seed 97 --seconds 34 --trace 0

With ``--trace 0`` one caller runs operations back to back (closed loop) for
``--seconds`` and the end-to-end metrics are reported.  With ``--trace 1`` a
fixed number of operations runs once untraced and once with spans around the
public library functions, and the per-layer metrics are reported.  Outputs
are checked outside the timed region in both modes.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The library is imported from ``src/`` of the checkout; the run fails with
exit code 1 and prints no result when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"

SETUP_SAMPLES = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def load_library() -> None:
    if not (SRC / "wsatlab" / "__init__.py").is_file():
        sys.exit(f"error: library sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import wsatlab

    if SRC.resolve() not in Path(wsatlab.__file__).resolve().parents:
        sys.exit(f"error: wsatlab was imported from {wsatlab.__file__}, not {SRC}")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_seconds() -> float:
    """User+sys time of this process and of its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any reaped child."""
    kb = max(resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024.0


def measure_setup(patterns) -> float:
    """Median cold set-up time over fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *patterns],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def warm_up(cls) -> None:
    """The set-up steps that ``setup_s`` times, done untimed in this process."""
    from setup_probe import set_up

    set_up(cls.patterns)


def run_op(wl, i: int):
    """Operation i, or None when it raised (the traceback goes to stderr)."""
    try:
        return wl.op(i)
    except Exception:
        traceback.print_exc()
        return None


def timed_op(wl, i: int):
    start = time.perf_counter()
    out = run_op(wl, i)
    return out, time.perf_counter() - start


def check_outputs(wl, outs: list) -> set[int]:
    """Indices of failed operations; all checks run here, outside timing."""
    failed = set()
    for i, out in enumerate(outs):
        if out is None:
            failed.add(i)
            continue
        for msg in wl.check(i, out):
            print(f"check failed: {msg}", file=sys.stderr)
            failed.add(i)
    if outs and outs[0] is not None:
        for msg in wl.final_checks(outs):
            print(f"check failed: {msg}", file=sys.stderr)
            failed.add(0)
    return failed


def report(header: str, attempted: int, failed: int,
           metrics: dict[str, tuple[float, str]]) -> None:
    """Human-readable lines, then the result object as the last line."""
    print(header)
    for k, (v, u) in metrics.items():
        print(f"{k} {v:.6g} {u}")
    print(f"fail_rate {failed / attempted:.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


# -- untraced closed loop -----------------------------------------------------


def closed_loop(wl, seconds: float):
    latencies, outs = [], []
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        out, latency = timed_op(wl, len(outs))
        outs.append(out)
        latencies.append(latency)
    elapsed = time.perf_counter() - start
    return outs, latencies, elapsed, cpu_seconds() - cpu0


def end_to_end(cls, seed: int, seconds: float):
    """(header, attempted, failed, metrics) of one closed-loop run."""
    workers = nproc() if cls.uses_pool else 1
    warm_up(cls)
    wl = cls(seed, workers)
    outs, latencies, elapsed, cpu = closed_loop(wl, seconds)
    rss = peak_rss_mb()
    failed = check_outputs(wl, outs)
    units = sum(wl.units(out) for out in outs if out is not None)
    metrics = {
        "setup_s": measure_setup(cls.patterns),
        "wall_s": statistics.median(latencies),
        "ops_per_s": units / elapsed,
        "cpu_s": cpu / len(outs),
        "peak_rss_mb": rss,
    }
    header = (f"# {cls.name} seed={seed} workers={workers} ops={len(outs)} "
              f"units={units} elapsed={elapsed:.3f}s")
    return (header, len(outs), len(failed),
            {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()})


# -- traced run ---------------------------------------------------------------


def _past_degree_rule(g, h) -> bool:
    """False when the clique degree rule of ``percolates`` rejects g."""
    if not h.is_complete() or h.n < 3:
        return True
    return all(r.bit_count() >= min(h.n - 2, g.n - 1) for r in g.rows)


def _observe_percolates(c, args, out):
    c["yes"] += bool(out)
    c["past_degree_rule"] += _past_degree_rule(args[0], args[1])


def _observe_sample(c, args, out):
    c["max_n"] = max(c["max_n"], args[0])


def _observe_close(c, args, out):
    c["rounds"] += len(out.rounds)
    c["edges_added"] += len(out.added_edges())


def trace_targets():
    from wsatlab import cli, closure, experiments, patterns, witness

    checks = ("check_aizenman_lebowitz", "check_edge_lower_bound",
              "check_component_bound", "check_case2_bound")
    return [
        (cli, "main", "cli.main", None),
        (experiments, "bisect_pc", "experiments.bisect_pc",
         lambda c, a, out: c.update(probes=len(out.probes))),
        (experiments, "percolation_curve", "experiments.percolation_curve", None),
        (experiments, "sample_gnp", "experiments.sample_gnp", _observe_sample),
        (closure, "percolates", "closure.percolates", _observe_percolates),
        (closure, "close", "closure.close", _observe_close),
        (closure, "find_completion", "closure.find_completion",
         lambda c, a, out: c.update(hits=out is not None)),
        (closure, "pattern_info", "closure.pattern_info", None),
        (closure, "closure_contains_edge", "closure.closure_contains_edge", None),
        (witness, "close_with_witnesses", "witness.close_with_witnesses", None),
        (witness, "check_witness_closures", "witness.check_witness_closures", None),
        (witness, "rea_replay", "witness.rea_replay",
         lambda c, a, out: c.update(steps=len(out.steps))),
        *((witness, name, "witness.checks", None) for name in checks),
        (patterns, "analyze", "patterns.analyze", None),
    ]


def tail_percentile(count: int) -> float:
    """Highest of the usual percentiles with at least ten calls beyond it."""
    for q in (99.99, 99.9, 99.0, 90.0):
        if count * (1 - q / 100) >= 10:
            return q
    return 50.0


def sample_peak_mb(n: int) -> float:
    from wsatlab import experiments

    tracemalloc.start()
    try:
        experiments.sample_gnp(n, 0.5, 0)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def per_layer(cls, seed: int, ops: int, span_dir: Path = SPAN_DIR):
    """(header, attempted, failed, metrics) of one traced run of ``ops``
    operations; the spans are saved under ``span_dir``."""
    import numpy as np
    from spans import Tracer

    warm_up(cls)
    # Pool workers are forked and their spans would be lost, so the traced
    # pass runs at one worker.  Each operation runs untraced, then with the
    # pool (for the parallel efficiency), then traced, so that a change in
    # machine speed during the run hits all three passes alike.
    wl = cls(seed, 1)
    pool = cls(seed, nproc()) if cls.uses_pool else None
    targets = trace_targets()
    tracer = Tracer()
    outs = []
    plain_wall = pool_wall = traced_wall = 0.0
    for i in range(ops):
        plain_wall += timed_op(wl, i)[1]
        if pool is not None:
            pool_wall += timed_op(pool, i)[1]
        tracer.install(targets)
        try:
            out, seconds = timed_op(wl, i)
        finally:
            tracer.remove()
        outs.append(out)
        traced_wall += seconds
    efficiency = plain_wall / (nproc() * pool_wall) if pool is not None else 0.0
    tracer.save(span_dir / f"spans-{cls.name}-seed{seed}.npz")
    failed = check_outputs(wl, outs)

    layer, top_level_s = tracer.summary()
    counts = tracer.counts
    m: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    for name, s in layer.items():
        put(f"{name}.calls", s["calls"], "count")
        put(f"{name}.self_s", s["self_s"], "s")
        put(f"{name}.self_share", s["self_s"] / traced_wall, "ratio")
    sg = counts["experiments.sample_gnp"]
    put("experiments.sample_gnp.peak_mb", sample_peak_mb(sg["max_n"]) if sg["max_n"] else 0.0, "MB")
    put("experiments.bisect_pc.probes", counts["experiments.bisect_pc"]["probes"], "count")
    put("experiments.parallel_efficiency", efficiency, "ratio")

    pc = layer["closure.percolates"]
    calls, dur = pc["calls"], np.sort(pc["durations"])
    q = tail_percentile(calls)
    top = max(1, -(-calls // 100))  # ceil(1%)
    pcc = counts["closure.percolates"]
    put("closure.percolates.p50_ms", 1e3 * np.median(dur) if calls else 0.0, "ms")
    put("closure.percolates.tail_ms", 1e3 * np.percentile(dur, q) if calls else 0.0, "ms")
    put("closure.percolates.tail_pct", q if calls else 0.0, "percentile")
    put("closure.percolates.slowest1pct_share", dur[-top:].sum() / dur.sum() if calls else 0.0, "ratio")
    put("closure.percolates.yes_share", pcc["yes"] / calls if calls else 0.0, "ratio")
    put("closure.percolates.past_degree_rule_share",
        pcc["past_degree_rule"] / calls if calls else 0.0, "ratio")
    cc = counts["closure.close"]
    put("closure.close.rounds", cc["rounds"], "count")
    put("closure.close.edges_added", cc["edges_added"], "count")
    fc = layer["closure.find_completion"]["calls"]
    put("closure.find_completion.hit_ratio",
        counts["closure.find_completion"]["hits"] / fc if fc else 0.0, "ratio")
    put("witness.rea_replay.steps", counts["witness.rea_replay"]["steps"], "count")
    put("trace.wall_s", traced_wall, "s")
    put("trace.uncovered_s", traced_wall - top_level_s, "s")
    put("trace.overhead_ratio", traced_wall / plain_wall, "ratio")

    header = f"# {cls.name} seed={seed} traced ops={ops} wall={traced_wall:.3f}s"
    return header, len(outs), len(failed), dict(sorted(m.items()))


def machine() -> str:
    import numpy

    return (f"# machine: nproc={nproc()} arch={platform.machine()} "
            f"python={platform.python_version()} numpy={numpy.__version__}")


def main() -> int:
    load_library()
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    cls = WORKLOADS[args.workload]
    print(machine())
    if args.trace:
        report(*per_layer(cls, args.seed, cls.trace_ops))
    else:
        report(*end_to_end(cls, args.seed, args.seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
