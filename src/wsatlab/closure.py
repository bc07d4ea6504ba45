"""Round-based H-bootstrap dynamics with per-edge completing-copy certificates.

``close`` is faithful to the simultaneous-round semantics: every edge added
in round t is certified by an embedding checked against G_{t-1} alone.

Two exact rules hold for every pattern H, with minimum degree delta_H.  The
degree rule: a vertex of degree below delta_H - 1 never gains an edge, since
a completing copy needs delta_H - 1 present edges at it.  The infection
rule, for delta_H >= 1: a clique of the closure with at least v_H - 1
vertices absorbs every vertex with delta_H - 1 neighbours in it.

One clique kernel (``_clique_kernel``) applies the infection rule for every
pattern: it grows each uncovered edge into a clique of the closure and
returns the union of those cliques, or None once one clique spans.  For K_3
the cliques are the components and for K_4 their union is the closure; for
other patterns it is a subgraph of the closure.  ``percolates`` and
``closure_contains_edge`` share one path past their own exits
(``_closure_holds``): the kernel; then for K_r, r >= 5, the sequential work
queue (``_clique_close_seq``) on the kernel's union; and for every other
pattern the rounds of ``close`` (``_rounds``) from that union, without
keeping them, with the kernel re-run after each round.  ``percolates``
first applies the degree rule; ``closure_contains_edge`` first answers a
present target and applies the degree rule at the target's endpoints.
``wsat percolate`` still runs ``close``, because it prints the round count.
Agreement with the round engine (confluence of the monotone automaton) and
with ``oracle.naive_close`` is enforced by differential tests, never
assumed silently.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

from .graphs import Graph, bits, canon_edge, host_pair, is_connected


@dataclass(frozen=True)
class Embedding:
    """Injective map of the pattern into the host; the anchor edge of the
    pattern lands on the (absent) host pair being completed."""

    mapping: tuple[int, ...]          # mapping[i] = host vertex of pattern vertex i
    anchor: tuple[int, int]           # pattern edge mapped onto the pair
    pair: tuple[int, int]             # host pair (u < v)

    def copy_edges(self, pattern: Graph) -> list[tuple[int, int]]:
        """Host images of all pattern edges, the anchor image included."""
        m = self.mapping
        return [canon_edge(m[a], m[b]) for a, b in pattern.edges()]


@dataclass
class RoundRecord:
    t: int
    added: list[tuple[tuple[int, int], Embedding]]


@dataclass
class ClosureTrace:
    initial: Graph
    rounds: list[RoundRecord]
    final: Graph
    # the per-pattern certificate index of ``witness``, built on first use
    certificate_index: object = field(
        default=None, init=False, compare=False, repr=False
    )

    def added_edges(self) -> list[tuple[int, int]]:
        return [e for r in self.rounds for e, _ in r.added]


# -- pattern preprocessing --------------------------------------------------


class _PatternInfo:
    """Search plans of the pattern, one per arc orbit under Aut(H).

    A plan anchors the search at an arc (a, b) of the pattern: a maps to
    the pair's lower vertex and b to its upper one.  Each edge-orbit
    representative (a, b), the least edge of its orbit, gets the plan
    (a, b), then the plan (b, a) unless some automorphism sigma of H swaps
    a and b; ``_arc_orbit_reps`` finds both with the anchored search of H
    in itself, for every pattern size.  With such a sigma the reversed plan
    is never needed: it only runs after (a, b) has failed, and a copy phi
    it finds, with b -> u and a -> v, gives the copy phi o sigma with
    a -> u and b -> v, so (a, b) would not have failed.
    """

    def __init__(self, h: Graph):
        self.graph = h
        self.n = h.n
        self.is_clique = h.is_complete() and h.n >= 2
        self.delta = h.min_degree()
        self.connected = is_connected(h)
        self.plans = _arc_orbit_reps(h)


class _SearchPlan:
    """Static vertex order, placed-neighbour lists and twin floors for one
    anchored search.

    The anchor's ends take positions 0 and 1; each further position takes
    the vertex with the most placed neighbours, then the least id.
    ``twin_floor[i]`` is the latest earlier position i' >= 2 whose vertex
    is a twin of vertex order[i] (the same neighbours apart from each
    other), or -1; the search maps position i only above the image of
    position i'.  The depth-first search returns the lexicographically
    least image vector, and that vector already has twins in ascending
    order: swapping two non-anchor twins is an automorphism of H that
    fixes the anchor, so a copy with a twin pair in descending order gives
    one that is smaller at the earlier position.
    """

    def __init__(self, h: Graph, anchor: tuple[int, int]):
        self.anchor = canon_edge(*anchor)  # the pattern edge, for reporting
        a, b = anchor
        rows = h.rows
        order = [a, b]
        pos = {a: 0, b: 1}
        placed = 1 << a | 1 << b
        # For each position: positions of already-placed neighbors.
        self.placed_nbrs = [[], [0]]
        rest = [x for x in range(h.n) if not placed >> x & 1]
        while rest:
            # most-constrained next: max placed neighbors, then min id
            best = max(rest, key=lambda x: ((rows[x] & placed).bit_count(), -x))
            self.placed_nbrs.append(sorted(pos[y] for y in bits(rows[best] & placed)))
            pos[best] = len(order)
            order.append(best)
            placed |= 1 << best
            rest.remove(best)
        self.order = order
        self.twin_floor = [-1] * len(order)
        for i, x in enumerate(order):
            for j in range(2, i):
                y = order[j]
                if rows[x] & ~(1 << y) == rows[y] & ~(1 << x):
                    self.twin_floor[i] = j


@lru_cache(maxsize=256)
def _pattern_info_by_rows(n: int, rows: tuple[int, ...]) -> _PatternInfo:
    return _PatternInfo(Graph.from_rows(n, list(rows)))


def pattern_info(h: Graph) -> _PatternInfo:
    return _pattern_info_by_rows(h.n, tuple(h.rows))


def _arc_orbit_reps(h: Graph) -> list[_SearchPlan]:
    """One search plan per arc orbit of h under Aut(h), anchored at its
    representative.

    Plan (c, d) maps onto the arc (a, b) iff some automorphism takes c to
    a and d to b, and that holds iff the anchored search finds h in itself
    with c -> a and d -> b: an injective map that keeps the edges of h maps
    its edge set onto itself.  The edges are walked in sorted order; an
    edge (a, b) that a plan kept so far maps onto is skipped, any other
    keeps the plan (a, b), then (b, a) unless plan (a, b) maps onto (b, a).
    Automorphisms keep each vertex's degree and its neighbours' sorted
    degrees, so arcs whose ends differ in that signature skip the search.
    """
    full = (1 << h.n) - 1
    sig = [sorted(h.degree(y) for y in bits(row)) for row in h.rows]

    def maps_onto(plan: _SearchPlan, arc: tuple[int, int]) -> bool:
        (c, d), (a, b) = plan.order[:2], arc
        return (sig[c], sig[d]) == (sig[a], sig[b]) and (
            _anchored_search(h, plan, arc, full) is not None
        )

    plans: list[_SearchPlan] = []
    for a, b in h.edges():
        if any(maps_onto(plan, (a, b)) for plan in plans):
            continue
        plan = _SearchPlan(h, (a, b))
        plans.append(plan)
        if not maps_onto(plan, (b, a)):
            plans.append(_SearchPlan(h, (b, a)))
    return plans


# -- anchored embedding search ----------------------------------------------


def find_completion(g: Graph, pair: tuple[int, int], h: Graph) -> Embedding | None:
    """Deterministic anchored search for a copy of h completed by ``pair``.

    Tries the plans of ``pattern_info(h)`` in order, one per arc orbit of
    each anchor-edge orbit (sorted), and host candidates in ascending
    order, returning the first embedding found: the lexicographically least
    image vector of the first plan that has one.  Two kinds of branches are
    skipped because their answer is known (see ``_PatternInfo`` and
    ``_SearchPlan``): the reversed plan of an edge whose ends some
    automorphism swaps, which cannot succeed once the plan before it has
    failed, and twins of H mapped in descending order, which that least
    vector never has.  So the result is that of the search over every
    orbit representative in both orientations without either cut.
    """
    u, v = host_pair(g, pair)
    if g.has_edge(u, v):
        raise ValueError(f"pair {pair} is already an edge")
    info = pattern_info(h)
    if info.n > g.n:
        return None
    full = (1 << g.n) - 1
    for plan in info.plans:
        m = _anchored_search(g, plan, (u, v), full)
        if m is not None:
            mapping = [0] * info.n
            for i, x in enumerate(plan.order):
                mapping[x] = m[i]
            return Embedding(mapping=tuple(mapping), anchor=plan.anchor, pair=(u, v))
    return None


def _anchored_search(
    g: Graph, plan: _SearchPlan, pair: tuple[int, int], full: int
) -> list[int] | None:
    order = plan.order
    k = len(order)
    image = [pair[0], pair[1]] + [-1] * (k - 2)
    used = 1 << pair[0] | 1 << pair[1]
    rows = g.rows
    twin_floor = plan.twin_floor

    def extend(i: int, used: int) -> bool:
        if i == k:
            return True
        cand = full
        for j in plan.placed_nbrs[i]:
            cand &= rows[image[j]]
        cand &= ~used
        if twin_floor[i] >= 0:
            # only above the image of the earlier twin
            cand &= -(2 << image[twin_floor[i]])
        while cand:
            b = cand & -cand
            w = b.bit_length() - 1
            cand ^= b
            image[i] = w
            if extend(i + 1, used | b):
                return True
        return False

    return image if extend(2, used) else None


# -- clique fast path --------------------------------------------------------


def _mask_has_clique(rows: list[int], mask: int, k: int) -> bool:
    """Does the graph restricted to ``mask`` contain a k-clique?"""
    if mask.bit_count() < k:
        return False
    if k <= 1:
        return True
    m = mask
    while m:
        b = m & -m
        w = b.bit_length() - 1
        m ^= b
        # only look for cliques whose minimum vertex is w
        if _mask_has_clique(rows, rows[w] & m, k - 1):
            return True
    return False


def _clique_close_seq(g: Graph, r: int) -> Graph:
    """Sequential work-queue closure for H = K_r.

    The final graph coincides with the round-synchronous closure by
    confluence (differentially tested).
    """
    work = g.copy()
    rows = work.rows
    pending = deque(work.non_edges())
    inq = set(pending)
    while pending:
        u, v = pending.popleft()
        inq.discard((u, v))
        if rows[u] >> v & 1:
            continue
        cn = rows[u] & rows[v]
        if not _mask_has_clique(rows, cn, r - 2):
            continue
        work.add_edge(u, v)
        # non-edge pairs whose completion could use the fresh edge (u,v),
        # as pure mask arithmetic
        m = rows[v] & ~rows[u] & ~(1 << u)
        while m:
            b = m & -m
            w = b.bit_length() - 1
            m ^= b
            e = (u, w) if u < w else (w, u)
            if e not in inq:
                pending.append(e)
                inq.add(e)
        m = rows[u] & ~rows[v] & ~(1 << v)
        while m:
            b = m & -m
            w = b.bit_length() - 1
            m ^= b
            e = (v, w) if v < w else (w, v)
            if e not in inq:
                pending.append(e)
                inq.add(e)
        m = cn
        while m:
            b = m & -m
            x = b.bit_length() - 1
            m ^= b
            mm = cn & ~rows[x] & -(2 << x)
            while mm:
                bb = mm & -mm
                y = bb.bit_length() - 1
                mm ^= bb
                if (x, y) not in inq:
                    pending.append((x, y))
                    inq.add((x, y))
    return work


def _clique_kernel(g: Graph, size: int, need: int) -> list[int] | None:
    """Rows of U, a subgraph of the H-closure of g that contains g, or None
    once one clique of the closure spans every vertex; size = v_H - 1 and
    need = delta_H - 1, for a pattern H with delta_H >= 1.

    The clique-process view of graph bootstrap percolation (Balogh,
    Bollobas and Morris, *Graph bootstrap percolation*, 2012).  Each edge of
    g that no clique covers yet grows into a clique A of U, the union of g
    and the cliques found so far, and A's edges then join U.  While
    |A| < size, the first vertex that sees all of A joins.  From |A| = size
    on, the infection rule holds: every vertex z with ``need`` neighbours N
    in A joins.  For each c in A that z misses, a copy of H maps a vertex x
    of degree delta_H to z, one neighbour of x to c, x's other neighbours to
    N and the rest of H into A minus N and c, which has room since
    |A| >= v_H - 1; every edge of that copy but zc lies in the closure, so
    zc does too, and A plus z is a clique of the closure.  With need = 0
    (delta_H = 1) every vertex joins, so the kernel spans as soon as a
    clique reaches size vertices; for H = K_2 (size 1) one vertex is such a
    clique.  With delta_H = 0 the rule fails (x has no neighbour to map to
    c) and no kernel runs.  For K_r the rule at |A| = r - 2 admits exactly
    the vertices that see all of A, so the two rules agree there.

    For K_3 every A is a component.  For K_4 U is the closure: a clique at
    its fixed point stays there when a later clique A' grows, since a
    vertex of A' seeing a second vertex d of the earlier clique would have
    pulled d into A', which holds the shared vertex too.  So at the end no
    vertex sees two vertices of any clique, and U holds no K_4 minus an
    edge with that edge missing.  For other patterns the cliques found
    depend on which vertices join below |A| = size, and U may miss closure
    edges.
    """
    if size <= 1:
        return None
    n = g.n
    full = (1 << n) - 1
    union = list(g.rows)
    covered = [0] * n
    levels = range(need - 1, 0, -1)
    for u in range(n):
        higher = full ^ ((2 << u) - 1)
        while m := g.rows[u] & higher & ~covered[u]:
            v = (m & -m).bit_length() - 1
            a = 1 << u | 1 << v
            common = union[u] & union[v]
            while a.bit_count() < size and (c := common & ~a):
                b = c & -c
                a |= b
                common &= union[b.bit_length() - 1]
            if a.bit_count() >= size:
                if not need:
                    return None
                # more[k]: vertices with more than k neighbours in a
                more = [0] * need
                new = a
                while new:
                    a |= new
                    for x in bits(new):
                        row = union[x]
                        for k in levels:
                            more[k] |= more[k - 1] & row
                        more[0] |= row
                    new = more[-1] & ~a
            if a == full:
                return None
            for x in bits(a):
                union[x] |= a ^ 1 << x
                covered[x] |= a
    return union


# -- the round engine ---------------------------------------------------------


def close(g: Graph, h: Graph) -> ClosureTrace:
    """H-bootstrap closure with simultaneous-round semantics.

    Every edge of round t is certified (by an Embedding) against G_{t-1};
    the run terminates when a round adds nothing.
    """
    work = g.copy()
    rounds = [
        RoundRecord(t=t, added=added)
        for t, added in enumerate(_rounds(work, pattern_info(h)), 1)
    ]
    return ClosureTrace(initial=g.copy(), rounds=rounds, final=work)


def _rounds(
    work: Graph, info: _PatternInfo
) -> Iterator[list[tuple[tuple[int, int], Embedding]]]:
    """The rounds of ``close``, run in place on ``work``.

    Each round tests its candidate pairs against the graph of the round
    before, then commits them all; the generator yields the certified edges
    of each committed round, with ``work`` already holding them.
    """
    if info.n < 2:
        raise ValueError("pattern needs at least 2 vertices")
    h = info.graph
    candidates = list(work.non_edges())
    while candidates:
        added: list[tuple[tuple[int, int], Embedding]] = []
        for pair in candidates:
            emb = find_completion(work, pair, h)
            if emb is not None:
                added.append((pair, emb))
        if not added:
            return
        for pair, _ in added:
            work.add_edge(*pair)
        yield added
        candidates = _next_candidates(work, info, [p for p, _ in added])


def _next_candidates(
    work: Graph, info: _PatternInfo, new_edges: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Pairs worth re-testing after a round commit.

    A new copy through a pair must contain a fresh edge, whose endpoints lie
    within v_H - 1 hops (along copy edges, all present now) of one of the
    pair's endpoints; so only pairs touching the dilated ball around fresh
    edges can newly complete.  Disconnected patterns fall back to a full
    re-scan.
    """
    if not info.connected:
        return list(work.non_edges())
    ball = 0
    for u, v in new_edges:
        ball |= 1 << u | 1 << v
    for _ in range(info.n - 1):
        grown = ball
        for w in bits(ball):
            grown |= work.rows[w]
        if grown == ball:
            break
        ball = grown
    return [
        (u, v)
        for u, v in work.non_edges()
        if (1 << u | 1 << v) & ball
    ]


def _closure_holds(
    g: Graph, info: _PatternInfo, target: tuple[int, int] | None
) -> bool:
    """Does the closure of g hold the absent pair ``target``, or, for target
    None, is it complete?

    The clique kernel (``_clique_kernel``) runs first when delta_H >= 1.
    It answers yes once a clique spans or its union U holds the target (or
    is complete); it spans at once for K_2, and for K_3 and K_4 U is the
    closure, so that settles them.
    K_r, r >= 5, then closes U by the work queue (``_clique_close_seq``).
    Every other pattern runs the rounds of ``close`` (``_rounds``) from U,
    without keeping them, and re-runs the kernel after each round.
    """
    full = (1 << g.n) - 1

    def holds(rows: list[int] | None) -> bool:
        if rows is None:
            return True
        if target is None:
            return all(row | 1 << x == full for x, row in enumerate(rows))
        return bool(rows[target[0]] >> target[1] & 1)

    def kernel(work: Graph) -> list[int] | None:
        if info.delta < 1:
            return work.rows
        return _clique_kernel(work, info.n - 1, info.delta - 1)

    rows = kernel(g)
    if holds(rows):
        return True
    if info.is_clique:
        return info.n > 4 and holds(
            _clique_close_seq(Graph.from_rows(g.n, rows), info.n).rows
        )
    work = Graph.from_rows(g.n, rows)
    for _ in _rounds(work, info):
        if holds(kernel(work)):
            return True
    return False


def percolates(g: Graph, h: Graph) -> bool:
    """True iff the closure of g under h-bootstrap is complete.

    Every pattern first takes the degree rule: a vertex of degree below
    delta_H - 1 that misses an edge can never gain one (a completing copy
    would need delta_H - 1 present edges at it), which refutes percolation.
    Past it, every pattern takes the shared path of
    ``closure_contains_edge`` (``_closure_holds``): the clique kernel, which
    spans at once for K_2 and gives the components for K_3 and the closure
    for K_4, then the work queue for K_r, r >= 5, or the rounds of
    ``close`` for the rest.
    """
    info = pattern_info(h)
    need = min(info.delta - 1, g.n - 1)
    if min(map(int.bit_count, g.rows)) < need:
        return False
    return _closure_holds(g, info, None)


def closure_contains_edge(g: Graph, h: Graph, target: tuple[int, int]) -> bool:
    """Does ``target`` end up in the closure of g?

    A present target is in it.  An endpoint of degree below delta_H - 1
    refutes it (the degree rule of ``percolates``).  Otherwise the shared
    path of ``percolates`` (``_closure_holds``) decides: the clique kernel,
    then the work queue for K_r, r >= 5, or the rounds of ``close`` for
    other patterns, stopped once the target is present.
    """
    u, v = target = host_pair(g, target)
    if g.has_edge(u, v):
        return True
    info = pattern_info(h)
    if min(g.degree(u), g.degree(v)) < info.delta - 1:
        return False
    return _closure_holds(g, info, target)
