"""Command-line entry point wiring all modules.

Exit codes: 0 success, 1 verification violation (a failed red-edge replay
included), 2 usage error (an ``InputError``, or a file that cannot be read
or written), 3 internal error, any other exception, whose traceback goes to
stderr, and 141 (the shell's status after SIGPIPE) when the reader closes
stdout early, with nothing on stderr.  JSON goes to stdout (CSV for curve
data); diagnostics to stderr.  Every JSON output carries a manifest
sufficient to reproduce the run bit-for-bit; pass --no-timing to omit the
wall-clock field when comparing outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from . import __version__
from .closure import close
from .experiments import bisect_pc, ladder_base_experiment, percolation_curve
from .graphs import (
    Graph,
    InputError,
    make_clique,
    make_complete_bipartite,
    make_double_barbell,
    parse_edge_list,
    parse_graph6,
    serialize_edge_list,
)
from .ladders import (
    build_ladder,
    count_induced_ladders_at,
    ladder_closure_check,
    verify_ladder_lemma,
)
from .oracle import percolation_census
from .patterns import analyze, verify_appendix_lemmas
from .witness import ReplayError, close_with_witnesses, rea_replay


def resolve_pattern(name_or_path: str) -> Graph:
    """K<r>, K<r>,<s>, DD<r>, or a readable edge-list / graph6 file."""
    m = re.fullmatch(r"K(\d+)", name_or_path)
    if m:
        return make_clique(int(m.group(1)))
    m = re.fullmatch(r"K(\d+),(\d+)", name_or_path)
    if m:
        return make_complete_bipartite(int(m.group(1)), int(m.group(2)))
    m = re.fullmatch(r"DD(\d+)", name_or_path)
    if m:
        return make_double_barbell(int(m.group(1)))
    if not Path(name_or_path).is_file():
        raise InputError(f"unknown pattern name or unreadable file: {name_or_path}")
    return load_graph(name_or_path)


def load_graph(path: str) -> Graph:
    """A graph file in edge-list or graph6 format."""
    p = Path(path)
    if not p.is_file():
        raise InputError(f"cannot read graph file: {path}")
    try:
        text = p.read_text()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not text: {exc}") from None
    try:
        return parse_edge_list(text)
    except InputError as exc:
        try:
            return parse_graph6(text)
        except InputError as exc6:
            raise InputError(
                f"{path} is neither an edge list ({exc}) nor graph6 ({exc6})"
            ) from None


def frac_str(x: Fraction | None) -> str | None:
    return None if x is None else f"{x.numerator}/{x.denominator}"


def parse_pair(text: str, n: int) -> tuple[int, int]:
    """A pair "u v" of distinct vertices of an n-vertex graph, as (min, max)."""
    try:
        u, v = (int(x) for x in text.replace(",", " ").split())
    except ValueError:
        raise InputError(f"expected 'u v', got {text!r}") from None
    if u == v or not (0 <= u < n and 0 <= v < n):
        raise InputError(f"pair {text!r} is not two distinct vertices of 0..{n - 1}")
    return (u, v) if u < v else (v, u)


def emit_json(payload: dict, args, started: float) -> None:
    manifest = {
        "subcommand": args.cmd,
        "config": {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("cmd", "func", "no_timing") and v is not None
        },
        "seed": getattr(args, "seed", None),
        "version": __version__,
    }
    if not args.no_timing:
        manifest["duration_s"] = round(time.monotonic() - started, 6)
    print(json.dumps({"manifest": manifest, "result": payload}, indent=2, sort_keys=True))


# -- subcommands ----------------------------------------------------------------


def cmd_analyze(args, started) -> int:
    h = resolve_pattern(args.pattern)
    s = analyze(h)
    emit_json(
        {
            "vH": s.v_h,
            "eH": s.e_h,
            "deltaH": s.delta_h,
            "lambda": frac_str(s.lam),
            "lambdaPrime": frac_str(s.lambda_prime),
            "lambdaStar": frac_str(s.lambda_star),
            "vStar": sorted(s.v_star),
            "xi": frac_str(s.xi),
            "xiPrime": frac_str(s.xi_prime),
            "balanced": s.balanced,
            "strictlyBalanced": s.strictly_balanced,
            "connected": s.connected,
            "degenerate": s.degenerate,
        },
        args,
        started,
    )
    return 0


def cmd_close(args, started) -> int:
    g = load_graph(args.input)
    h = resolve_pattern(args.pattern)
    trace = close(g, h)
    sys.stdout.write(serialize_edge_list(trace.final))
    if args.trace:
        rounds = [
            {
                "t": rnd.t,
                "added": [
                    {"edge": list(e), "embedding": list(emb.mapping)}
                    for e, emb in rnd.added
                ],
            }
            for rnd in trace.rounds
        ]
        Path(args.trace).write_text(
            json.dumps({"rounds": rounds, "version": __version__}, indent=2)
        )
    return 0


def cmd_percolate(args, started) -> int:
    g = load_graph(args.input)
    h = resolve_pattern(args.pattern)
    trace = close(g, h)
    ok = trace.final.is_complete()
    print(f"{'yes' if ok else 'no'} {len(trace.rounds)}")
    return 0


def cmd_witness(args, started) -> int:
    g = load_graph(args.input)
    h = resolve_pattern(args.pattern)
    target = parse_pair(args.target, g.n)
    trace, records = close_with_witnesses(g, h)
    if target not in records:
        print(f"target {target} is not in the closure", file=sys.stderr)
        return 1
    rec = records[target]
    payload = {
        "target": list(target),
        "witnessEdges": sorted(map(list, rec.edges)),
        "k": rec.k,
        "size": rec.size,
        "edgeCount": rec.edge_count,
        "ellLambda": frac_str(rec.ell_lambda),
        "ellStar": frac_str(rec.ell_star),
    }
    if args.rea:
        rea = rea_replay(target, records, trace, h)
        payload["rea"] = [
            {
                "j": s.j,
                "redEdge": list(s.red_edge),
                "copy": list(s.copy.mapping),
                "case": s.case,
                "treeStep": s.tree_step,
                "merged": [list(t) for t in s.merged_components],
            }
            for s in rea.steps
        ]
    emit_json(payload, args, started)
    return 0


def cmd_ladder(args, started) -> int:
    h = resolve_pattern(args.pattern)
    if args.action == "build":
        ladder = build_ladder(h, args.height)
        emit_json(
            {
                "n": ladder.graph.n,
                "edges": sorted(map(list, ladder.graph.edges())),
                "rungs": [list(r) for r in ladder.rungs],
                "size": ladder.size,
                "height": ladder.height,
            },
            args,
            started,
        )
        return 0
    if args.action == "verify":
        ladder = build_ladder(h, args.height)
        stats = analyze(h)
        rep = verify_ladder_lemma(ladder, stats)
        crep = ladder_closure_check(ladder, h)
        emit_json(
            {
                "lemma": {"checked": rep.checked, "violations": rep.violations,
                          "mode": rep.details.get("mode")},
                "closure": {"checked": crep.checked, "violations": crep.violations},
            },
            args,
            started,
        )
        return 0 if rep.ok and crep.ok else 1
    # the count action: argparse admits no other
    if not args.host or not args.base:
        raise InputError("ladder count needs --host and --base")
    g = load_graph(args.host)
    base = parse_pair(args.base, g.n)
    count = count_induced_ladders_at(g, base, build_ladder(h, args.height))
    emit_json({"count": count, "base": list(base)}, args, started)
    return 0


def cmd_census(args, started) -> int:
    h = resolve_pattern(args.pattern)
    res = percolation_census(args.n, h)
    emit_json(
        {
            "n": res.n,
            "pattern": args.pattern,
            "total": res.total,
            "percolating": res.percolating,
            "byEdgeCount": {str(k): list(v) for k, v in res.by_edge_count.items()},
        },
        args,
        started,
    )
    return 0


def cmd_curve(args, started) -> int:
    h = resolve_pattern(args.pattern)
    try:
        ps = [float(x) for x in args.grid.split(",") if x.strip()]
    except ValueError:
        raise InputError(f"--grid is not a list of numbers: {args.grid!r}") from None
    points = percolation_curve(args.n, h, ps, args.trials, args.seed,
                               workers=args.workers)
    if args.format == "json":
        emit_json(
            {
                "points": [
                    {
                        "n": pt.n, "p": pt.p, "trials": pt.trials,
                        "successes": pt.successes, "fraction": pt.fraction,
                        "ci_lo": pt.ci_lo, "ci_hi": pt.ci_hi,
                    }
                    for pt in points
                ]
            },
            args,
            started,
        )
    else:
        print("n,p,trials,successes,fraction,ci_lo,ci_hi")
        for pt in points:
            print(
                f"{pt.n},{pt.p:.10g},{pt.trials},{pt.successes},"
                f"{pt.fraction:.10g},{pt.ci_lo:.10g},{pt.ci_hi:.10g}"
            )
    return 0


def cmd_pc_search(args, started) -> int:
    h = resolve_pattern(args.pattern)
    est = bisect_pc(args.n, h, trials=args.trials, tolerance=args.tol,
                    master_seed=args.seed, workers=args.workers)
    emit_json(
        {
            "n": est.n,
            "pHat": est.p_hat,
            "interval": list(est.interval),
            "trialsPerProbe": est.trials_per_probe,
            "converged": est.converged,
            "probes": [
                {"p": p, "successes": s, "trials": t, "fraction": f}
                for p, s, t, f in est.probes
            ],
        },
        args,
        started,
    )
    return 0


def cmd_ladder_exp(args, started) -> int:
    h = resolve_pattern(args.pattern)
    out = ladder_base_experiment(
        args.n, h, args.trials, args.seed, p=args.p, height=args.height,
        alpha=args.alpha, beta=args.beta, workers=args.workers,
    )
    emit_json(out, args, started)
    return 0


def cmd_verify(args, started) -> int:
    # argparse admits only the appendix suite
    rep = verify_appendix_lemmas(args.vmax)
    emit_json({"checked": rep.checked, "violations": rep.violations},
              args, started)
    return 0 if rep.ok else 1


# -- dispatch ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wsat",
        description="weak-saturation / graph bootstrap percolation laboratory",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--no-timing", action="store_true",
                        help="omit wall-clock duration from JSON manifests")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add("analyze", help="pattern invariants as JSON")
    p.add_argument("--pattern", required=True)
    p.set_defaults(func=cmd_analyze)

    p = add("close", help="closure of a graph; edge list to stdout")
    p.add_argument("--input", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--trace", help="write a JSON round trace to this file")
    p.set_defaults(func=cmd_close)

    p = add("percolate", help="print yes/no and round count")
    p.add_argument("--input", required=True)
    p.add_argument("--pattern", required=True)
    p.set_defaults(func=cmd_percolate)

    p = add("witness", help="witness graph of one closure edge")
    p.add_argument("--input", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--target", required=True, help='pair "u v"')
    p.add_argument("--rea", action="store_true", help="include the red-edge replay")
    p.set_defaults(func=cmd_witness)

    p = add("ladder", help="build / verify / count ladders")
    p.add_argument("action", choices=["build", "verify", "count"])
    p.add_argument("--pattern", required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--host", help="host graph file (count)")
    p.add_argument("--base", help='base pair "u v" (count)')
    p.set_defaults(func=cmd_ladder)

    p = add("census", help="exhaustive percolation census")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pattern", required=True)
    p.set_defaults(func=cmd_census)

    p = add("curve", help="percolation probability over a p grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--grid", required=True, help="comma-separated p values")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_curve)

    p = add("pc-search", help="bisection estimate of p_c")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=0.1)
    p.add_argument("--workers", type=int)
    p.set_defaults(func=cmd_pc_search)

    p = add("ladder-exp", help="induced-ladder base frequency experiment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--p", type=float)
    p.add_argument("--height", type=int)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int)
    p.set_defaults(func=cmd_ladder_exp)

    p = add("verify", help="exhaustive verifier suites")
    p.add_argument("--suite", required=True, choices=["appendix"])
    p.add_argument("--vmax", type=int, default=5)
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.func(args, started)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return code
    except BrokenPipeError:
        # stdout to devnull, so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReplayError as exc:
        print(f"error: red-edge replay failed: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
