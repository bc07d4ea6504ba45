"""Witness graphs and their red-edge replay, with machine-checked invariants.

The closure trace drives two bookkeeping passes:

* witness construction: W_e = {e} for initial edges, and otherwise the union
  of the witnesses of the non-anchor edges of the completing copy chosen for
  e by the engine;
* red-edge replay: the dynamics are sequentialized so copies are added one
  at a time, the added edge of each copy colored red, and the evolving
  hypergraph components (copies sharing a graph edge) are tracked so the
  per-component edge bounds can be verified after every step.

Both passes read one certificate index per (trace, pattern): each added
edge's completing copy as its support and bitmasks, built on first use and
kept on the trace.

The witness-closure check closes each W_e as a graph on the host's vertex
set, since a completing copy may use vertices that no witness edge touches.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .closure import ClosureTrace, Embedding, close, closure_contains_edge
from .graphs import Graph, bits, canon_edge, vertex_mask
from .patterns import PatternStats, Report, analyze

Edge = tuple[int, int]


class ReplayError(Exception):
    """An inconsistency between trace, witnesses and replay (engine bug)."""


@dataclass
class WitnessRecord:
    target: Edge
    edges: frozenset[Edge]
    k: int                       # vertices spanned by the witness
    size: int                    # k - 2, the paper's notion of size
    edge_count: int
    ell_lambda: Fraction | None  # excess over lambda*(k-2)+1
    ell_star: Fraction | None    # excess over lambda_**(k-v_H)+e_H-1


@dataclass
class REAStep:
    j: int
    copy: Embedding
    red_edge: Edge
    # (component creation id, eps_i, delta_i) for each merged component,
    # in creation order
    merged_components: list[tuple[int, int, int]]
    case: str                    # "case1" | "case2" (new components are case2)
    tree_step: bool
    component_vertices: int      # v_C of the component after this step
    component_nonred: int        # its non-red edge count


@dataclass
class REATrace:
    target: Edge
    steps: list[REAStep]         # one per placed copy; empty for an initial edge


# -- certificate index --------------------------------------------------------


class _Certificate(NamedTuple):
    """What the witness pass and every replay need from one added edge's
    completing copy.  Bitmasks over edges use the index's edge ids."""

    emb: Embedding
    support: frozenset[Edge]    # copy edges other than the anchor image
    pending: tuple[Edge, ...]   # sorted support edges absent from the initial graph
    vertices: int               # bitmask of the copy's host vertices
    edges: int                  # bitmask of the copy edges
    open: int                   # ... of the copy edges absent from the initial graph
    bit: int                    # id bit of the added edge itself


class _CertificateIndex(NamedTuple):
    key: tuple
    certs: dict[Edge, _Certificate]   # in trace order
    edge_of: list[Edge]               # dense edge ids, in order of first use


def _build_index(trace: ClosureTrace, h: Graph, key: tuple) -> _CertificateIndex:
    initial = trace.initial
    pattern_edges = list(h.edges())
    ids: dict[Edge, int] = {}
    certs: dict[Edge, _Certificate] = {}
    for rnd in trace.rounds:
        for e, emb in rnd.added:
            copy = tuple(emb.copy_edges(pattern_edges))
            support = frozenset(
                f for f, pe in zip(copy, pattern_edges) if pe != emb.anchor
            )
            pending = tuple(sorted(f for f in support if not initial.has_edge(*f)))
            edges = open_ = 0
            for f in copy:
                bit = 1 << ids.setdefault(f, len(ids))
                edges |= bit
                if not initial.has_edge(*f):
                    open_ |= bit
            certs[e] = _Certificate(emb, support, pending,
                                    vertex_mask(emb.mapping), edges, open_,
                                    1 << ids.setdefault(e, len(ids)))
    return _CertificateIndex(key, certs, list(ids))


def _certificates(trace: ClosureTrace, h: Graph) -> _CertificateIndex:
    """The certificate index of (trace, h), memoized on the trace.

    The key holds the pattern and the number of certificates, so another
    pattern, or a trace whose rounds gained or lost certificates since, is
    indexed afresh.
    """
    key = (h.n, tuple(h.rows), sum(len(rnd.added) for rnd in trace.rounds))
    index = trace.certificate_index
    if index is None or index.key != key:
        index = trace.certificate_index = _build_index(trace, h, key)
    return index


# -- witness set algorithm ---------------------------------------------------


def close_with_witnesses(
    g: Graph, h: Graph
) -> tuple[ClosureTrace, dict[Edge, WitnessRecord]]:
    stats = analyze(h)
    trace = close(g, h)
    records = {e: _make_record(e, frozenset([e]), stats) for e in g.edges()}
    for edge, cert in _certificates(trace, h).certs.items():
        records[edge] = _make_record(
            edge, frozenset().union(*(records[f].edges for f in cert.support)), stats
        )
    return trace, records


def _make_record(target: Edge, edges: frozenset[Edge], stats: PatternStats) -> WitnessRecord:
    spanned = {v for e in edges for v in e}
    k = len(spanned)
    m = len(edges)
    ell_lambda = None
    ell_star = None
    # one Fraction each, from integer numerators over the exponent's denominator
    lam, star = stats.lam, stats.lambda_star
    if lam is not None and k >= 3:
        q = lam.denominator
        ell_lambda = Fraction((m - 1) * q - lam.numerator * (k - 2), q)
    if star is not None and k >= stats.v_h:
        q = star.denominator
        ell_star = Fraction((m - stats.e_h + 1) * q - star.numerator * (k - stats.v_h), q)
    return WitnessRecord(
        target=target,
        edges=edges,
        k=k,
        size=k - 2,
        edge_count=m,
        ell_lambda=ell_lambda,
        ell_star=ell_star,
    )


# -- red edge algorithm replay -----------------------------------------------


class _Component:
    """A hypergraph component: vertex, edge and red-edge bitmasks."""

    __slots__ = ("cid", "vertices", "edges", "red")

    def __init__(self, cid: int):
        self.cid = cid
        self.vertices = 0
        self.edges = 0
        self.red = 0


def rea_replay(
    target: Edge,
    witnesses: dict[Edge, WitnessRecord],
    trace: ClosureTrace,
    h: Graph,
) -> REATrace:
    """Sequentialize the formation of W_target, one copy per step.

    Children are expanded in lexicographic edge order; the red edge of step
    j is the dynamics-added edge whose completing copy is placed at step j.
    An initial target gives a trace with no steps; a target outside the
    closure raises ``ReplayError``.
    """
    target = canon_edge(*target)
    initial = trace.initial
    if target not in witnesses:
        raise ReplayError(f"{target} not in the closure")
    if initial.has_edge(*target):
        return REATrace(target=target, steps=[])
    index = _certificates(trace, h)
    certs = index.certs

    # dependency-respecting sequential schedule, children in lex order
    schedule: list[Edge] = []
    scheduled: set[Edge] = set()
    stack: list[tuple[Edge, bool]] = [(target, False)]
    while stack:
        edge, expanded = stack.pop()
        if edge in scheduled:
            continue
        if expanded:
            scheduled.add(edge)
            schedule.append(edge)
            continue
        stack.append((edge, True))
        for f in reversed(certs[edge].pending):
            if f not in scheduled:
                if f not in certs:
                    raise ReplayError(f"support edge {f} has no certificate")
                stack.append((f, False))

    steps: list[REAStep] = []
    comps: dict[int, _Component] = {}   # live components in creation order
    next_cid = 0
    placed = 0                          # bitmask of placed edge ids
    red_mask = 0

    for j, red in enumerate(schedule, start=1):
        cert = certs[red]
        copy_vertices = cert.vertices
        if placed & cert.bit:
            raise ReplayError(f"red edge {red} already present at step {j}")
        missing = cert.open & ~cert.bit & ~placed
        if missing:
            f = index.edge_of[(missing & -missing).bit_length() - 1]
            raise ReplayError(f"step {j}: support edge {f} unavailable")

        touched = [c for c in comps.values() if c.edges & cert.edges]
        merged_stats: list[tuple[int, int, int]] = []
        seen_vertices = 0
        for comp in touched:
            eps = (comp.vertices & copy_vertices).bit_count()
            delta = (comp.vertices & seen_vertices & ~copy_vertices).bit_count()
            if eps < 2:
                raise ReplayError(
                    f"step {j}: component {comp.cid} shares an edge but eps={eps}"
                )
            merged_stats.append((comp.cid, eps, delta))
            seen_vertices |= comp.vertices

        if len(touched) == 1 and not cert.edges & ~cert.bit & ~touched[0].edges:
            case = "case1"
            tree = False
        else:
            case = "case2"
            tree = not touched or all(
                eps == 2 and delta == 0 for _, eps, delta in merged_stats
            )

        # merge into the lowest-creation-id component (or a fresh one)
        if touched:
            root = touched[0]
            for other in touched[1:]:
                del comps[other.cid]
                root.vertices |= other.vertices
                root.edges |= other.edges
                root.red |= other.red
        else:
            root = comps[next_cid] = _Component(next_cid)
            next_cid += 1
        root.vertices |= copy_vertices
        root.edges |= cert.edges
        root.red |= cert.bit

        placed |= cert.edges
        red_mask |= cert.bit
        steps.append(
            REAStep(
                j=j,
                copy=cert.emb,
                red_edge=red,
                merged_components=merged_stats,
                case=case,
                tree_step=tree,
                component_vertices=root.vertices.bit_count(),
                component_nonred=root.edges.bit_count() - root.red.bit_count(),
            )
        )

    if len(comps) != 1:
        raise ReplayError(f"final hypergraph disconnected: {len(comps)} components")
    rebuilt = {index.edge_of[i] for i in bits(placed & ~red_mask)}
    if rebuilt != witnesses[target].edges:
        raise ReplayError("replay does not reproduce the stored witness")
    return REATrace(target=target, steps=steps)


# -- invariant checks ----------------------------------------------------------


def check_witness_closures(
    witnesses: dict[Edge, WitnessRecord], h: Graph, trace: ClosureTrace
) -> Report:
    """Every target must be re-added when its witness alone is closed.

    Each witness is closed as a graph on the ``trace.initial.n`` vertices of
    the host, not on the vertices its edges touch: a completing copy may
    place an isolated vertex of H (K_3 + K_1) on a vertex outside the
    witness, and with a vertex of degree 1 in H (K_{1,2}, the paw) the
    witness may miss an end of its target.  For delta_H >= 2 the verdict is
    the same on either vertex set, since a vertex with no witness edge is
    below the degree rule and never gains an edge.
    """
    n = trace.initial.n
    rep = Report(name="witness-closure")
    for target, rec in witnesses.items():
        rep.checked += 1
        if target in rec.edges:
            continue
        rows = [0] * n
        for a, b in rec.edges:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        if not closure_contains_edge(Graph.from_rows(n, rows), h, target):
            rep.violations.append(f"target {target}: not in closure of witness")
    return rep


def check_aizenman_lebowitz(
    witnesses: dict[Edge, WitnessRecord], trace: ClosureTrace, h: Graph
) -> Report:
    """M_1 = v_H - 2 and M_{t+1} <= v_H - 2 + (e_H - 1) M_t, for M_t the
    largest witness size of the first t rounds, and a witness size in every
    [k, e_H k] up to the largest.  A first-round witness is its copy minus
    the anchor pair; with delta_H >= 2 every copy vertex keeps an edge, so
    it spans v_H vertices.  With delta_H <= 1 a vertex may lose its only
    edge (a leaf of K_{1,2}) or have none (K_3 + K_1), and only
    M_1 <= v_H - 2 holds, so only that is checked."""
    rep = Report(name="aizenman-lebowitz")
    v_h, e_h = h.n, h.edge_count
    maxima = [0]  # M_0
    for rnd in trace.rounds:
        m_t = max(witnesses[e].size for e, _ in rnd.added)
        maxima.append(max(m_t, maxima[-1]))
    rep.checked = len(maxima) - 1
    if len(maxima) > 1 and (maxima[1] > v_h - 2 or
                            h.min_degree() >= 2 and maxima[1] != v_h - 2):
        rep.violations.append(f"M_1 = {maxima[1]} != v_H - 2 = {v_h - 2}")
    for t in range(1, len(maxima) - 1):
        if maxima[t + 1] > v_h - 2 + (e_h - 1) * maxima[t]:
            rep.violations.append(
                f"M_{t+1} = {maxima[t+1]} exceeds v_H-2+(e_H-1)M_{t}"
            )
    sizes = sorted({rec.size for rec in witnesses.values() if rec.size > 0})
    if sizes:
        top = sizes[-1]
        for k in range(1, top + 1):
            if not any(k <= s <= e_h * k for s in sizes):
                rep.violations.append(f"no witness size in [{k}, {e_h * k}]")
    rep.details["sizes"] = sizes
    return rep


def check_edge_lower_bound(
    witnesses: dict[Edge, WitnessRecord], stats: PatternStats
) -> Report:
    rep = Report(name="edge-lower-bound")
    if stats.lambda_star is None:  # v_H < 3: lambda* and its bound are undefined
        rep.applicable = False
        return rep
    hist: dict[tuple[int, Fraction], int] = {}
    for rec in witnesses.values():
        if rec.k < stats.v_h:
            continue
        rep.checked += 1
        assert rec.ell_star is not None
        if rec.ell_star < 0:
            rep.violations.append(
                f"target {rec.target}: {rec.edge_count} edges on k={rec.k} "
                f"vertices beats the lower bound by {-rec.ell_star}"
            )
        if rec.ell_lambda is not None:
            key = (rec.k, rec.ell_lambda)
            hist[key] = hist.get(key, 0) + 1
    rep.details["k_ell_histogram"] = hist
    rep.details["baseline"] = "lambda*(k-2)+1"
    return rep


def check_component_bound(rea: REATrace, stats: PatternStats) -> Report:
    rep = Report(name="component-bound")
    if stats.lambda_star is None:  # v_H < 3: lambda* and its bound are undefined
        rep.applicable = False
        return rep
    # nonred < lambda_** (v_C - v_H) + e_H - 1, times the denominator q > 0
    p, q = stats.lambda_star.numerator, stats.lambda_star.denominator
    v_h, offset = stats.v_h, (stats.e_h - 1) * q
    for step in rea.steps:
        rep.checked += 1
        if step.component_nonred * q < p * (step.component_vertices - v_h) + offset:
            bound = stats.lambda_star * (step.component_vertices - v_h) + stats.e_h - 1
            rep.violations.append(
                f"target {rea.target} step {step.j}: component has "
                f"{step.component_nonred} non-red edges < {bound}"
            )
    return rep


def check_case2_bound(
    rea: REATrace, record: WitnessRecord, stats: PatternStats
) -> Report:
    rep = Report(name="case2-bound")
    if stats.xi is None or stats.xi <= 0 or not stats.strictly_balanced:
        rep.applicable = False
        return rep
    if not rea.steps:
        return rep
    rep.checked = 1
    case2 = sum(1 for s in rea.steps if s.case == "case2")
    ell = record.ell_lambda
    assert ell is not None and ell >= 0
    bound = Fraction(record.k - 2, stats.v_h - 2) + ell / stats.xi_prime
    rep.details["case2_steps"] = case2
    rep.details["bound"] = bound
    if case2 > bound:
        rep.violations.append(
            f"target {rea.target}: {case2} Case-2 steps > bound {bound}"
        )
    return rep
