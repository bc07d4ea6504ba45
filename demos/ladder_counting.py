"""Compare induced-ladder counts in G(n, p) against the closed form.

A height-1 K_4 ladder rooted at a fixed base pair occupies 2 extra
vertices, 5 present edges, and 1 required non-edge, so the expected
number of ordered induced copies is (n-2)(n-3) p^5 (1-p). The Monte
Carlo mean over 500 seeded samples should land within a few standard
errors of that formula.
"""

import math

from wsatlab.graphs import make_clique
from wsatlab.ladders import build_ladder, count_induced_ladders_at
from wsatlab.experiments import expected_ladder_count, mix_seed, sample_gnp


def main():
    n, p, trials = 60, 0.1, 500
    ladder = build_ladder(make_clique(4), 1)

    counts = []
    for t in range(trials):
        g = sample_gnp(n, p, mix_seed(2024, t))
        counts.append(count_induced_ladders_at(g, (0, 1), ladder))
    mean = sum(counts) / trials
    var = sum((c - mean) ** 2 for c in counts) / (trials - 1)
    se = math.sqrt(var / trials)

    formula = expected_ladder_count(n, p, ladder)
    print(f"height-1 K_4 ladders at base (0, 1) in G({n}, {p}):")
    print(f"  Monte Carlo mean over {trials} seeds: {mean:.4f} "
          f"(stderr {se:.4f})")
    print(f"  closed-form expectation:              {formula:.4f}")
    print(f"  deviation: {abs(mean - formula) / se:.2f} standard errors")


if __name__ == "__main__":
    main()
