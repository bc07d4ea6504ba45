"""Close a graph under the K_5 rule and inspect witness structures.

Builds the height-3 K_5 ladder: 11 vertices and 25 edges, arranged so the
closure fills in one diagonal per step until the absent base pair (0, 1)
itself enters the closure. Each added edge gets a witness subgraph of size
k - 2, and the replay decomposition explains how the witness assembled.
"""

from wsatlab.graphs import make_clique
from wsatlab.ladders import build_ladder
from wsatlab.patterns import analyze
from wsatlab.witness import close_with_witnesses, rea_replay


def main():
    h = make_clique(5)
    stats = analyze(h)
    lad = build_ladder(h, 3)
    g = lad.graph
    print(f"K_5 ladder, height 3: n={g.n}, edges={g.edge_count}")
    print(f"  sparsity check: lambda * (n - 2) + 1 = "
          f"{stats.lam * (g.n - 2) + 1}")

    trace, recs = close_with_witnesses(g, h)
    added = trace.added_edges()
    print(f"closure adds {len(added)} edges over {len(trace.rounds)} rounds: "
          f"{added}")
    print(f"base pair (0, 1) reached: {(0, 1) in added}")
    print()

    base = recs[(0, 1)]
    print(f"witness for the base edge (0, 1): k={base.k}, "
          f"{base.edge_count} edges, ell={base.ell_lambda}")
    bound = stats.lambda_star * (base.k - h.n) + h.edge_count - 1
    print(f"  component edge bound: {bound} (attained: "
          f"{base.edge_count == bound})")
    print()

    target = added[-1]
    rea = rea_replay(target, recs, trace, h)
    print(f"replay for the last added edge {target}:")
    for step in rea.steps:
        kind = step.case + (" tree" if step.tree_step else "")
        print(f"  step {step.j}: red edge {step.red_edge}, {kind}, "
              f"component now {step.component_vertices} vertices / "
              f"{step.component_nonred} non-red edges")


if __name__ == "__main__":
    main()
