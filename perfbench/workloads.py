"""The benchmark's workloads.

Each workload turns the benchmark seed into a deterministic sequence of
operations.  ``op(i)`` runs operation i and returns its output;
``units(out)`` is the work it did (Monte Carlo trials or certified graphs);
``check(i, out)`` and ``final_checks(outs)`` return violation messages and
run outside the timed region.  A traced run does a fixed ``trace_ops``
operations, so that its per-layer counts repeat exactly.

Library calls go through module attributes (``experiments.sample_gnp``, not a
name imported here), so the span tracer sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

from wsatlab import cli, closure, experiments, witness
from wsatlab.graphs import Graph, bits, make_clique, make_complete_bipartite, make_double_barbell
from wsatlab.patterns import analyze

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


def relabel(g: Graph, perm: list[int]) -> Graph:
    """The graph with vertex u renamed perm[u]."""
    rows = [0] * g.n
    for u, row in enumerate(g.rows):
        rows[perm[u]] = sum(1 << perm[v] for v in bits(row))
    return Graph.from_rows(g.n, rows)


class PcSearch:
    """``wsat pc-search --n 100 --pattern K4 --tol 0.1`` in-process through
    ``cli.main``, with the pool at the caller's worker count.  Operation i
    searches with master seed ``seed + i * SEED_STRIDE``."""

    name = "pc-k4-n100"
    default_seed = 97  # the master seed of acceptance criterion 7
    patterns = ("K4",)
    uses_pool = True
    trace_ops = 4
    n = 100
    trials = 100
    SEED_STRIDE = 1_000_003
    # (probe index from the end, trial) pairs re-decided by the round engine
    DIFFERENTIAL = ((1, 0), (2, 0))

    def __init__(self, seed: int, workers: int):
        self.seed = seed
        self.workers = workers
        self.h = make_clique(4)

    def master_seed(self, i: int) -> int:
        return self.seed + i * self.SEED_STRIDE

    def op(self, i: int) -> str:
        argv = ["pc-search", "--n", str(self.n), "--pattern", "K4",
                "--trials", str(self.trials), "--tol", "0.1",
                "--seed", str(self.master_seed(i)),
                "--workers", str(self.workers), "--no-timing"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"wsat pc-search exited with {rc}")
        return buf.getvalue()

    def units(self, out: str) -> int:
        return sum(pr["trials"] for pr in json.loads(out)["result"]["probes"])

    def check(self, i: int, out: str) -> list[str]:
        res = json.loads(out)["result"]
        bad = []
        lo, hi = res["interval"]
        if not res["probes"] or not 0.0 <= lo <= res["pHat"] <= hi <= 1.0:
            bad.append(f"op {i}: estimate {res['pHat']} outside {res['interval']}")
        for pr in res["probes"]:
            if pr["trials"] != self.trials or pr["fraction"] != pr["successes"] / pr["trials"]:
                bad.append(f"op {i}: inconsistent probe {pr}")
        if self.seed == self.default_seed and i == 0:
            # the reference was written at --workers 1; the manifest echoes it
            ref = REFERENCE[self.name]["op0"].replace(
                '"workers": 1', f'"workers": {self.workers}')
            if out != ref:
                bad.append("op 0: JSON differs from the reference output")
        return bad

    def trial_graph(self, probes, idx: int, t: int):
        key = experiments.mix_seed(self.master_seed(0), (idx << 40) | t)
        return experiments.sample_gnp(self.n, probes[idx]["p"], key)

    def final_checks(self, outs: list[str]) -> list[str]:
        """Rebuild trials of op 0 from their mix_seed keys: recount the last
        probe serially, and compare a few ``percolates`` verdicts with the
        round engine's."""
        probes = json.loads(outs[0])["result"]["probes"]
        bad = []
        last = len(probes) - 1
        recount = sum(closure.percolates(self.trial_graph(probes, last, t), self.h)
                      for t in range(self.trials))
        if recount != probes[last]["successes"]:
            bad.append(f"probe {last}: {recount} successes on recount, "
                       f"{probes[last]['successes']} reported")
        for back, t in self.DIFFERENTIAL:
            idx = max(0, len(probes) - back)
            g = self.trial_graph(probes, idx, t)
            if closure.percolates(g, self.h) != closure.close(g, self.h).final.is_complete():
                bad.append(f"probe {idx} trial {t}: percolates disagrees with close")
        return bad


class Certify:
    """The acceptance-criterion-4 pipeline on G(30, n^(-1/lambda)) for K_4 and
    K_5, over a fixed corpus: the first ``CORPUS`` graphs of each pattern in
    criterion 4's stream.  Operation i certifies the whole corpus as one batch,
    each graph under a vertex relabelling drawn from (seed, i).

    The corpus is fixed because certification cost varies widely between
    G(30, p) graphs (about 0.5 coefficient of variation per graph), so fresh
    graphs on every seed would add a seed spread of about 7% to the machine's
    own.  Relabelling leaves the closure, and so the added-edge count,
    unchanged and moves the REA step count by about 10%, so every seed does
    the same work up to labels without ever repeating an input."""

    name = "certify-n30"
    default_seed = 777
    CORPUS_SEED = 777  # criterion 4 keys graph t of K_r by mix_seed(777 + r, t)
    CORPUS = 4
    patterns = ("K4", "K5")
    uses_pool = False
    trace_ops = 3
    n = 30

    def __init__(self, seed: int, workers: int):
        self.seed = seed
        self.cases = []
        for r in (4, 5):
            h = make_clique(r)
            stats = analyze(h)
            p = experiments.theory_markers(self.n, stats)["upper_order"]
            corpus = [experiments.sample_gnp(self.n, p, experiments.mix_seed(self.CORPUS_SEED + r, t))
                      for t in range(self.CORPUS)]
            self.cases.append((h, stats, corpus))

    def op(self, i: int) -> list[tuple[int, int, int]]:
        """(added edges, REA steps, violations) per graph, K_4 corpus first."""
        rng = random.Random(experiments.mix_seed(self.seed, i))
        out = []
        for h, stats, corpus in self.cases:
            for g in corpus:
                perm = list(range(self.n))
                rng.shuffle(perm)
                out.append(self.certify(relabel(g, perm), h, stats))
        return out

    @staticmethod
    def certify(g, h, stats) -> tuple[int, int, int]:
        trace, recs = witness.close_with_witnesses(g, h)
        reports = [
            witness.check_witness_closures(recs, h, trace),
            witness.check_aizenman_lebowitz(recs, trace, h),
            witness.check_edge_lower_bound(recs, stats),
        ]
        added = trace.added_edges()
        steps = 0
        for target in added:
            rea = witness.rea_replay(target, recs, trace, h)
            steps += len(rea.steps)
            reports.append(witness.check_component_bound(rea, stats))
            reports.append(witness.check_case2_bound(rea, recs[target], stats))
        return len(added), steps, sum(len(rep.violations) for rep in reports)

    def units(self, out) -> int:
        return len(out)

    def check(self, i: int, out) -> list[str]:
        """No violations; added-edge counts equal the reference's on every
        seed, and REA step counts too for op 0 of the default seed."""
        bad = [f"op {i} graph {j}: {v} violations" for j, (_, _, v) in enumerate(out) if v]
        ref = REFERENCE[self.name]
        if [a for a, _, _ in out] != ref["added"]:
            bad.append(f"op {i}: added edges {[a for a, _, _ in out]} != reference {ref['added']}")
        if self.seed == self.default_seed and i == 0 and [s for _, s, _ in out] != ref["op0_steps"]:
            bad.append(f"op 0: REA steps {[s for _, s, _ in out]} != reference {ref['op0_steps']}")
        return bad

    def final_checks(self, outs) -> list[str]:
        return []


class GeneralPatterns:
    """``percolation_curve`` at workers=1 for K_{3,3} at n=30 and DD_4 at
    n=16, on a grid around n^(-1/lambda).  Operation i runs both curves
    with master seed ``seed + i * SEED_STRIDE``."""

    name = "general-patterns"
    default_seed = 1
    patterns = ("K3,3", "DD4")
    uses_pool = False
    trace_ops = 8
    SEED_STRIDE = 1_000_003
    GRID = (0.8, 1.0, 1.25)
    trials = 4

    def __init__(self, seed: int, workers: int):
        self.seed = seed
        self.cases = []
        for h, n in ((make_complete_bipartite(3, 3), 30), (make_double_barbell(4), 16)):
            marker = n ** (-1.0 / float(analyze(h).lam))
            self.cases.append((h, n, [m * marker for m in self.GRID]))

    def master_seed(self, i: int) -> int:
        return self.seed + i * self.SEED_STRIDE

    def op(self, i: int) -> list[list[int]]:
        """Success counts per curve point, one list per pattern."""
        return [
            [pt.successes for pt in experiments.percolation_curve(
                n, h, ps, self.trials, self.master_seed(i), workers=1)]
            for h, n, ps in self.cases
        ]

    def units(self, out) -> int:
        return sum(len(c) for c in out) * self.trials

    def check(self, i: int, out) -> list[str]:
        bad = [f"op {i}: success count out of range" for c in out for s in c
               if not 0 <= s <= self.trials]
        ref = REFERENCE[self.name]["successes"]
        if self.seed == self.default_seed and i < len(ref) and out != ref[i]:
            bad.append(f"op {i}: successes {out} != reference {ref[i]}")
        return bad

    def final_checks(self, outs) -> list[str]:
        """Differential check of ``percolates`` against the round engine on
        trial 0 of every curve point of op 0."""
        bad = []
        master = self.master_seed(0)
        for h, n, ps in self.cases:
            for pi, p in enumerate(ps):
                g = experiments.sample_gnp(n, p, experiments.mix_seed(master, pi << 32))
                if closure.percolates(g, h) != closure.close(g, h).final.is_complete():
                    bad.append(f"n={n} p={p:.4f}: percolates disagrees with close")
        return bad


WORKLOADS = {w.name: w for w in (PcSearch, Certify, GeneralPatterns)}
