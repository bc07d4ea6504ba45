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
``closure_contains_edge`` check their input and share one path
(``_closure_holds``): the degree rule, over every vertex or at the target's
ends; the kernel; then for K_r, r >= 5, the sequential work queue
(``_clique_close_seq``) on the kernel's union, with its pending pairs in
one bitmask per vertex, about n^2/8 bytes; and for every other pattern the
rounds of ``close`` (``_rounds``) from that union, without keeping them,
with the kernel re-run after each round.  ``wsat percolate`` still
runs ``close``, because it prints the round count.  Agreement with the
round engine (confluence of the monotone automaton) and with
``oracle.naive_close`` is enforced by differential tests, never assumed
silently.

Each round tests every non-edge of the graph, with no candidate filter,
by ``find_completion``, the anchored search for a copy of H that the pair
completes.  (A filter to pairs near the last round's edges was exact, but
it skipped no search on the bench workloads, and where it skipped some,
below the percolation threshold, it saved no time.)  The search runs one
plan per arc orbit of H (``_SearchPlan``), and each plan compiles once, on
its first search, into Python functions of nested ``while`` loops, one
loop per pattern vertex past the anchor, over bitmask candidates.  CPython
3.10 to 3.12 allow at most 20 nested loops in a function, so a plan of
more than 22 vertices is split into functions of at most 20 loops each,
the innermost loop of one calling the next.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

from .graphs import Graph, InputError, bits, canon_edge, host_pair


@dataclass(frozen=True)
class Embedding:
    """Injective map of the pattern into the host; the anchor edge of the
    pattern lands on the (absent) host pair being completed."""

    mapping: tuple[int, ...]          # mapping[i] = host vertex of pattern vertex i
    anchor: tuple[int, int]           # pattern edge mapped onto the pair
    pair: tuple[int, int]             # host pair (u < v)

    def copy_edges(
        self, pattern_edges: Iterable[tuple[int, int]]
    ) -> list[tuple[int, int]]:
        """Host images of ``pattern_edges``, in their order; given all edges
        of the pattern, the anchor image is among them.  A caller that
        copies many embeddings lists the pattern's edges once."""
        m = self.mapping
        return [canon_edge(m[a], m[b]) for a, b in pattern_edges]


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
        self.plans = _arc_orbit_reps(h)


# CPython 3.10 to 3.12 refuse a function with more than 20 statically
# nested blocks, so a compiled search nests at most this many loops.
_MAX_LOOPS = 20


class _SearchPlan:
    """Static vertex order, placed-neighbour lists and twin floors for one
    anchored search, and the search compiled from them.

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

    ``search(rows, u, v, full)`` runs the plan on the host with adjacency
    rows ``rows`` and vertex mask ``full``, with the anchor on (u, v), and
    returns that vector, position by position, or None.  It is generated
    from the plan's integers alone (``_search_source``) and compiled on the
    plan's first search, so a plan that no search runs is never compiled:
    one ``while`` loop per position i >= 2, nested in order, over the
    candidate mask ``rows[x_j] & ... & ~used`` for the positions j of the
    placed neighbours, cut by ``& -(2 << x_t)`` at the twin floor t, lowest
    candidate first.  The loops are split into functions of at most
    ``_MAX_LOOPS`` levels, the innermost loop of one calling the next.
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

    def search(self, rows: list[int], u: int, v: int, full: int) -> list[int] | None:
        """Compiles the plan's search on its first call; the compiled
        function then replaces this method on the instance."""
        a, b = self.order[:2]
        source = _search_source(self.placed_nbrs, self.twin_floor)
        namespace: dict = {}
        exec(compile(source, f"<search plan {a}->{b}>", "exec"), namespace)
        self.search = namespace["_p2"]
        return self.search(rows, u, v, full)


def _search_source(placed_nbrs: list[list[int]], twin_floor: list[int]) -> str:
    """Python source of the nested-loop search of a plan (see
    ``_SearchPlan``).  ``_p2(rows, x0, x1, full)`` maps positions 2 to 21;
    each further function ``_p<s>(rows, full, u<s-1>, x0, ..., x<s-1>)``
    takes the next ``_MAX_LOOPS`` positions from s on.  ``x<i>`` is the
    image of position i, ``u<i>`` the mask of the images up to i and
    ``c<i>`` the candidates left at i."""
    k = len(placed_nbrs)
    xs = [f"x{i}" for i in range(k)]
    lines = []
    for s in range(2, k, _MAX_LOOPS) or [2]:
        e = min(s + _MAX_LOOPS, k)
        if s == 2:
            lines.append("def _p2(rows, x0, x1, full):")
            if k > 2:
                lines.append("    u1 = 1 << x0 | 1 << x1")
        else:
            lines.append(f"def _p{s}(rows, full, u{s - 1}, {', '.join(xs[:s])}):")
        pad = "    "
        for i in range(s, e):
            terms = [f"rows[x{j}]" for j in placed_nbrs[i]] or ["full"]
            terms.append(f"~u{i - 1}")
            if twin_floor[i] >= 0:
                terms.append(f"-(2 << x{twin_floor[i]})")
            lines += [
                f"{pad}c{i} = {' & '.join(terms)}",
                f"{pad}while c{i}:",
                f"{pad}    b{i} = c{i} & -c{i}",
                f"{pad}    x{i} = b{i}.bit_length() - 1",
                f"{pad}    c{i} ^= b{i}",
            ]
            pad += "    "
            if i < k - 1:
                lines.append(f"{pad}u{i} = u{i - 1} | b{i}")
        if e == k:
            lines.append(f"{pad}return [{', '.join(xs)}]")
        else:
            lines += [
                f"{pad}m = _p{e}(rows, full, u{e - 1}, {', '.join(xs[:e])})",
                f"{pad}if m:",
                f"{pad}    return m",
            ]
        if e > s:
            lines.append("    return None")
    return "\n".join(lines) + "\n"


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
            plan.search(h.rows, a, b, full) is not None
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
        m = plan.search(g.rows, u, v, full)
        if m is not None:
            mapping = [0] * info.n
            for i, x in enumerate(plan.order):
                mapping[x] = m[i]
            return Embedding(mapping=tuple(mapping), anchor=plan.anchor, pair=(u, v))
    return None


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

    Bit y of ``todo[x]`` means the pair xy waits for its test, so the
    queue needs about n^2/8 bytes.  Every non-edge starts at its lower end;
    the lowest vertex with work tests its pairs in ascending order, and
    skips a pair that is already an edge, as it can wait at both ends.
    Adding uv pushes uw for w in N(v) - N[u], vw likewise, and the
    non-edges inside N(u) & N(v) at their lower ends.  The final graph is
    the round-synchronous closure by confluence (differentially tested).
    """
    work = g.copy()
    rows = work.rows
    full = (1 << work.n) - 1
    todo = [full & ~row & -(2 << x) for x, row in enumerate(rows)]
    busy = full
    while busy:
        b = busy & -busy
        u = b.bit_length() - 1
        busy ^= b
        m, todo[u] = todo[u], 0
        while m:
            bv = m & -m
            m ^= bv
            todo[u] &= ~bv
            if rows[u] & bv:
                continue
            v = bv.bit_length() - 1
            cn = rows[u] & rows[v]
            if not _mask_has_clique(rows, cn, r - 2):
                continue
            work.add_edge(u, v)
            todo[u] |= rows[v] & ~rows[u] & ~b
            todo[v] |= rows[u] & ~rows[v] & ~bv
            busy |= b | bv | cn
            c = cn
            while c:
                bx = c & -c
                x = bx.bit_length() - 1
                c ^= bx
                todo[x] |= cn & ~rows[x] & -(2 << x)
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

    Each round tests every non-edge against the graph of the round before,
    then commits the ones that complete a copy; the generator yields the
    certified edges of each committed round, with ``work`` already holding
    them, and stops after the first round that adds nothing.
    """
    if info.n < 2:
        raise InputError("pattern needs at least 2 vertices")
    h = info.graph
    while True:
        added: list[tuple[tuple[int, int], Embedding]] = []
        for pair in work.non_edges():
            emb = find_completion(work, pair, h)
            if emb is not None:
                added.append((pair, emb))
        if not added:
            return
        for pair, _ in added:
            work.add_edge(*pair)
        yield added


def _closure_holds(
    g: Graph, info: _PatternInfo, target: tuple[int, int] | None
) -> bool:
    """Does the closure of g hold the absent pair ``target``, or, for target
    None, is it complete?

    The degree rule comes first: a vertex of degree below
    min(delta_H - 1, n - 1) that misses an edge never gains one, since a
    completing copy needs delta_H - 1 present edges at it.  It looks at
    every vertex for target None and at the target's two ends otherwise,
    and refutes the closure when one of them is that sparse.
    The clique kernel (``_clique_kernel``) runs next when delta_H >= 1.
    It answers yes once a clique spans or its union U holds the target (or
    is complete); it spans at once for K_2, and for K_3 and K_4 U is the
    closure, so that settles them.
    K_r, r >= 5, then closes U by the work queue (``_clique_close_seq``).
    Every other pattern runs the rounds of ``close`` (``_rounds``) from U,
    without keeping them, and re-runs the kernel after each round.
    """
    ends = g.rows if target is None else [g.rows[x] for x in target]
    if min(map(int.bit_count, ends)) < min(info.delta - 1, g.n - 1):
        return False
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

    Every pattern takes the path it shares with ``closure_contains_edge``
    (``_closure_holds``): the degree rule over every vertex, then the
    clique kernel, which spans at once for K_2 and gives the components for
    K_3 and the closure for K_4, then the work queue for K_r, r >= 5, or
    the rounds of ``close`` for the rest.
    """
    return _closure_holds(g, pattern_info(h), None)


def closure_contains_edge(g: Graph, h: Graph, target: tuple[int, int]) -> bool:
    """Does ``target`` end up in the closure of g?

    A present target is in it.  Otherwise the path shared with
    ``percolates`` (``_closure_holds``) decides: the degree rule at the
    target's ends, the clique kernel, then the work queue for K_r, r >= 5,
    or the rounds of ``close`` for other patterns, stopped once the target
    is present.
    """
    u, v = target = host_pair(g, target)
    if g.has_edge(u, v):
        return True
    return _closure_holds(g, pattern_info(h), target)
