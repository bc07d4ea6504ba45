"""Exact rational invariants and balance classification of a pattern graph.

All densities and threshold exponents are kept as ``fractions.Fraction``
so that min/argmin sets are tie-exact; floats appear only at the
experiments boundary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .graphs import (Graph, InputError, bits, edges_within,
                     enumerate_labeled_graphs, is_connected, vertex_mask)

MAX_PROFILE_VERTICES = 12


def densest_subgraph_profile(h: Graph) -> dict[int, int]:
    """m(v) = max edges of a subgraph of h on v vertices, for v in 2..v_H.

    For a fixed vertex count the extremal subgraph is induced on the
    densest vertex subset, so an exhaustive subset scan suffices.
    """
    n = h.n
    if n > MAX_PROFILE_VERTICES:
        raise InputError(f"pattern too large for subset scan (n={n})")
    profile: dict[int, int] = {}
    for v in range(2, n + 1):
        profile[v] = max(
            edges_within(h, vertex_mask(subset))
            for subset in itertools.combinations(range(n), v)
        )
    return profile


@dataclass(frozen=True)
class PatternStats:
    v_h: int
    e_h: int
    delta_h: int
    lam: Fraction | None            # (e_H-2)/(v_H-2)
    lambda_prime: Fraction | None
    lambda_star: Fraction | None
    v_star: frozenset[int]
    xi: Fraction | None             # None when the minimizing domain is empty
    xi_prime: Fraction
    balanced: bool
    strictly_balanced: bool
    connected: bool
    degenerate: bool                # v_H <= 3 or delta_H <= 1


def is_2_balanced(g: Graph) -> bool:
    """True iff (e_F-1)/(v_F-2) is maximized at F = g (ties allowed)."""
    if g.n < 3:
        raise InputError("2-balance needs at least 3 vertices")
    profile = densest_subgraph_profile(g)
    top = Fraction(g.edge_count - 1, g.n - 2)
    return all(
        Fraction(profile[v] - 1, v - 2) <= top for v in range(3, g.n)
    )


def compute_lambda_prime(h: Graph) -> Fraction:
    """min over edges e of max over subgraphs F of h\\e of e_F/v_F."""
    if h.edge_count < 1:
        raise InputError("pattern has no edges")
    best: Fraction | None = None
    for u, v in h.edges():
        he = h.without_edge(u, v)
        profile = densest_subgraph_profile(he)
        dens = max(
            (Fraction(profile[k], k) for k in range(2, he.n + 1)),
            default=Fraction(0),
        )
        if best is None or dens < best:
            best = dens
    assert best is not None
    return best


def analyze(h: Graph) -> PatternStats:
    """All invariants of a pattern in one pass over its densest profile."""
    v_h, e_h = h.n, h.edge_count
    delta = h.min_degree()
    connected = is_connected(h)
    degenerate = v_h <= 3 or delta <= 1
    profile = densest_subgraph_profile(h) if v_h >= 2 else {}

    lam = Fraction(e_h - 2, v_h - 2) if v_h >= 3 else None

    lambda_star: Fraction | None = None
    v_star: frozenset[int] = frozenset()
    xi: Fraction | None = None
    if v_h >= 3:
        values = {
            v: Fraction(e_h - profile[v] - 1, v_h - v)
            for v in range(2, v_h)
        }
        lambda_star = min(values.values())
        v_star = frozenset(v for v, val in values.items() if val == lambda_star)
        off = [values[v] - lambda_star for v in values if v not in v_star]
        xi = min(off) if off else None
    xi_prime = min(Fraction(1), xi) if xi is not None else Fraction(0)

    # Balance per the defining inequality over proper subgraphs; spanning
    # proper subgraphs never exceed lambda, so v ranges over 3..v_H-1.
    balanced = lam is not None and all(
        Fraction(profile[v] - 1, v - 2) <= lam for v in range(3, v_h)
    )
    strictly = lam is not None and all(
        Fraction(profile[v] - 1, v - 2) < lam for v in range(3, v_h)
    )

    # these identities need m(2) = 1, i.e. at least one edge
    if e_h >= 1 and lambda_star is not None and lam is not None:
        assert lambda_star <= lam
        assert (lambda_star == lam) == balanced
        assert strictly == (v_star == frozenset({2}))
        if strictly and v_h >= 4:
            # The two definitions of xi (off the argmin set vs. relative to
            # lambda over 3 <= v_F < v_H) coincide for strictly balanced h.
            alt = min(
                Fraction(e_h - profile[v] - 1, v_h - v) - lam
                for v in range(3, v_h)
            )
            assert xi == alt

    return PatternStats(
        v_h=v_h,
        e_h=e_h,
        delta_h=delta,
        lam=lam,
        lambda_prime=compute_lambda_prime(h) if e_h >= 1 else None,
        lambda_star=lambda_star,
        v_star=v_star,
        xi=xi,
        xi_prime=xi_prime,
        balanced=balanced,
        strictly_balanced=strictly,
        connected=connected,
        degenerate=degenerate,
    )


@dataclass
class Report:
    """Outcome of one verifier: cases checked and the violations found."""

    name: str
    checked: int = 0
    violations: list[str] = field(default_factory=list)
    applicable: bool = True
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_appendix_lemmas(v_max: int) -> Report:
    """Exhaustively check, over all labeled graphs H with 4 <= v_H <= v_max
    and delta_H >= 2, that balanced(H) iff every H\\e is 2-balanced, and
    that balanced implies connected."""
    if v_max > 7:
        raise InputError("exhaustive check limited to v_max <= 7")
    checked = 0
    violations: list[str] = []
    for n in range(4, v_max + 1):
        for mask, g in enumerate(enumerate_labeled_graphs(n)):
            if g.min_degree() < 2:
                continue
            checked += 1
            stats = analyze(g)
            all_2bal = all(is_2_balanced(g.without_edge(u, v)) for u, v in g.edges())
            if stats.balanced != all_2bal:
                violations.append(
                    f"n={n} mask={mask}: balanced={stats.balanced} "
                    f"but all-2-balanced={all_2bal}"
                )
            if stats.balanced and not stats.connected:
                violations.append(f"n={n} mask={mask}: balanced but disconnected")
    return Report(name="appendix", checked=checked, violations=violations)


def relabel(g: Graph, perm: list[int]) -> Graph:
    """Image of g under the vertex permutation v -> perm[v]."""
    out = Graph(g.n)
    for u in range(g.n):
        for v in bits(g.rows[u]):
            if v > u:
                out.add_edge(perm[u], perm[v])
    return out


__all__ = [
    "PatternStats",
    "Report",
    "analyze",
    "compute_lambda_prime",
    "densest_subgraph_profile",
    "is_2_balanced",
    "relabel",
    "verify_appendix_lemmas",
]
