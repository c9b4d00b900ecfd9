"""Subgraph similarity search — the conclusion's "bounds adaption" extension.

The paper closes by observing that SEGOS "with bounds adaption … also can
support the sub-graph matching problems" by "providing appropriate
aggregation functions for the TA or CA search".  This module carries that
out for range queries under the **subgraph edit distance**
``λ_sub(q, g) = min_{s ⊆ g} λ(q, s)``
(see :mod:`repro.graphs.subgraph_distance`).

Adapted star distance.  Editing the star of a kept query vertex into the
corresponding sub-star of ``g`` costs at least

    sub_sed(s_q, s_g) = T(r_q, r_g) + max(0, |L_q| − ψ)

(unmatched query leaves must be deleted or relabelled; g-side surplus
leaves are free).  It under-estimates the plain SED against any sub-star
of ``s_g`` because a subgraph's leaf multiset is contained in ``s_g``'s.

Adapted mapping distance.  With rows ``S(q)`` and columns ``S(g)``
(ε-padded at ``λ(s_q, ε)`` only when ``|g| < |q|``), the Hungarian optimum
``µ_sub(q, g)`` satisfies

    µ_sub(q, g) ≤ µ(q, s) ≤ δ' · λ(q, s)        for every s ⊆ g,

the first step because each entry of the sub-matrix under-prices the
corresponding entry of ``M(S(q), S(s))`` and unused columns absorb ε
assignments at ``sub_sed ≤ 1 + |L_q| ≤ λ(s_q, ε)``; the second step is
Zeng et al.'s Lemma 2 amortisation.  Hence

    L_sub(q, g) = µ_sub(q, g) / δ'  ≤  λ_sub(q, g),

a sound filter, property-tested against the exact A* in the test suite.

Adapted TA aggregation.  ``sub_sed`` ignores g-side size, so the top-k
sub-star search needs only the label lists (no size split): with last-seen
frequencies ``χ̄`` the threshold is ``ω = max(0, |L_q| − t(χ̄))``.

The graph stage mirrors the CA idea with the aggregation function
``ζ_sub(q, g) = Σ_j min-sub_sed seen`` and the same δ'-normalised halting
argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import heapq

from ..graphs.model import Graph, normalization_factor
from ..graphs.star import Star, StarKey, decompose, multiset_intersection_size
from ..graphs.subgraph_distance import subgraph_within
from ..matching.hungarian import hungarian
from .engine import SegosIndex
from .merge import merge_groups
from .plan import (
    ExecutionContext,
    QueryPlan,
    QueryResult,
    Stage,
    execute_plan,
    make_context,
)


def sub_star_distance(query: Star, other: Star) -> int:
    """``sub_sed``: cost of editing *query* into a sub-star of *other*."""
    t = 0 if query.root == other.root else 1
    psi = multiset_intersection_size(query.leaves, other.leaves)
    return t + max(0, query.leaf_size - psi)


def sub_mapping_distance(query: Graph, target: Graph) -> float:
    """``µ_sub(q, g)``: Hungarian over the sub-star cost matrix."""
    q_stars = decompose(query)
    g_stars = decompose(target)
    size = max(len(q_stars), len(g_stars))
    matrix: List[List[float]] = []
    for i in range(size):
        row: List[float] = []
        for j in range(size):
            if i < len(q_stars) and j < len(g_stars):
                row.append(float(sub_star_distance(q_stars[i], g_stars[j])))
            elif i < len(q_stars):  # ε column: delete the query star
                row.append(float(1 + 2 * q_stars[i].leaf_size))
            else:  # ε row: surplus g stars are free in subgraph semantics
                row.append(0.0)
        matrix.append(row)
    total, _ = hungarian(matrix)
    return total


def sub_lower_bound(query: Graph, target: Graph, *, database_max: int = 0) -> float:
    """``L_sub = µ_sub / δ' ≤ λ_sub`` (the adapted Lemma 2)."""
    delta = normalization_factor(query, target, database_max=database_max)
    return sub_mapping_distance(query, target) / delta


@dataclass
class SubgraphQueryResult(QueryResult):
    """Result of a subgraph-similarity range query.

    Identical shape to every other :class:`~repro.core.plan.QueryResult`
    (candidates, matches, stats, elapsed, verified, trace) — the subgraph
    mode differs only in the distance it filters under.
    """


class SubgraphSearch:
    """Index-assisted range queries under the subgraph edit distance.

    Wraps an existing :class:`~repro.core.engine.SegosIndex` — the same
    two-level index serves both distance functions; only the aggregation
    functions change, exactly as the paper's conclusion suggests.

    Examples
    --------
    >>> from repro.graphs.model import Graph
    >>> engine = SegosIndex()
    >>> engine.add("tri", Graph(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)]))
    >>> SubgraphSearch(engine).range_query(
    ...     Graph(["a", "b"], [(0, 1)]), tau=0, verify="exact").matches
    {'tri'}
    """

    def __init__(self, engine: SegosIndex, *, k: int = 50) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.engine = engine
        self.k = k

    # ------------------------------------------------------------------
    def top_k_sub_stars(self, query: Star, k: Optional[int] = None) -> List[Tuple[int, int]]:
        """TA search under ``sub_sed`` using only the label lists.

        Returns ``(sid, sub_sed)`` ascending.  Sorted access runs over the
        full (un-split) frequency-descending label lists; the halting
        threshold is ``ω = max(0, |L_q| − t(χ̄))`` — with the root term
        dropped, a floor for every unseen star.
        """
        k = k or self.k
        index = self.engine.index
        catalog = index.catalog
        leaf_counts = sorted(query.leaf_counter().items())
        heap: List[Tuple[int, int]] = []  # max-heap via negation

        def offer(sid: int) -> None:
            sed = sub_star_distance(query, catalog.star(sid))
            item = (-sed, -sid)
            if len(heap) < k:
                heapq.heappush(heap, item)
            elif item > heap[0]:
                heapq.heapreplace(heap, item)

        seen: Set[int] = set()
        if not leaf_counts:
            # A leafless query star matches any star at cost T ∈ {0, 1}:
            # scan the catalog for a root match, else take anything.
            for sid in index.catalog.live_sids():
                if sid not in seen:
                    seen.add(sid)
                    offer(sid)
                    if len(heap) == k and -heap[0][0] == 0:
                        break
        else:
            streams = []
            for label, _count in leaf_counts:
                low, high = index.lower.split_label_list(label, 10**9)
                streams.append(merge_groups(low + high))
            last_freq = [0.0] * len(streams)
            exhausted = [False] * len(streams)
            while not all(exhausted):
                for j, stream in enumerate(streams):
                    if exhausted[j]:
                        continue
                    entry = next(stream, None)
                    if entry is None:
                        exhausted[j] = True
                        last_freq[j] = 0.0
                        continue
                    last_freq[j] = float(entry.freq)
                    if entry.sid not in seen:
                        seen.add(entry.sid)
                        offer(entry.sid)
                t_chi = sum(
                    min(float(count), last_freq[j])
                    for j, (_, count) in enumerate(leaf_counts)
                )
                omega = max(0.0, query.leaf_size - t_chi)
                if len(heap) == k and omega >= -heap[0][0]:
                    break
            else:
                # Lists exhausted: stars sharing no query leaf label are
                # still viable at sub_sed = T + |L_q|; include the best
                # root-matching ones if the heap is not full or could improve.
                bound = query.leaf_size  # with matching root
                if len(heap) < k or bound < -heap[0][0]:
                    for sid in index.catalog.live_sids():
                        if sid not in seen:
                            seen.add(sid)
                            offer(sid)
        return sorted(((-s, -d) for d, s in heap), key=lambda p: (p[1], p[0]))

    # ------------------------------------------------------------------
    def plan(self) -> QueryPlan:
        """The adapted-bounds plan, executed by the shared staged executor.

        Same three-stage shape as every other query mode — only the
        aggregation functions differ, exactly as the paper's conclusion
        suggests.  The TA stage hands its ζ_sub accumulators to the CA
        stage through the stage objects (a plan is built per query).
        """
        ta = _SubTAStage(self)
        return QueryPlan(
            stages=(ta, _SubCAStage(self, ta), _SubVerifyStage()),
            description="sub-ta -> sub-ca -> verify",
        )

    def range_query(
        self, query: Graph, *, tau: float, verify: str = "none"
    ) -> SubgraphQueryResult:
        """All graphs ``g`` with ``λ_sub(query, g) ≤ tau`` (sound filter).

        ``verify="exact"`` confirms candidates with the A* subgraph edit
        distance so ``matches`` is the exact answer set.
        """
        ctx = make_context(
            self.engine,
            query,
            tau,
            config=self.engine.config,
            verify=verify,
            mode="subsearch",
        )
        ctx = execute_plan(self.plan(), ctx)
        return SubgraphQueryResult(
            candidates=ctx.candidates,
            matches=ctx.matches,
            stats=ctx.stats,
            elapsed=ctx.elapsed,
            verified=ctx.verified,
            trace=ctx.trace,
        )


class _SubTAStage(Stage):
    """Adapted TA: top-k sub-star searches + ζ_sub accumulator construction.

    ζ_sub(q, g) ≤ µ_sub(q, g) by the same argument as Theorem 2's ζ bound
    (list floors stand in for stars beyond the top-k).
    """

    name = "ta"

    def __init__(self, search: "SubgraphSearch") -> None:
        self.search = search
        self.zeta: Dict[object, Dict[int, float]] = {}
        self.floors: List[float] = []

    def run(self, ctx: ExecutionContext) -> ExecutionContext:
        ctx.query_stars = decompose(ctx.query)
        index = ctx.engine.index
        topk_cache: Dict[StarKey, List[Tuple[int, int]]] = ctx.topk_cache
        for j, star in enumerate(ctx.query_stars):
            entries = topk_cache.get(star.key)
            if entries is None:
                entries = self.search.top_k_sub_stars(star)
                topk_cache[star.key] = entries
                ctx.stats.ta_searches += 1
            kth = (
                float(entries[-1][1])
                if len(entries) >= self.search.k
                else float("inf")
            )
            self.floors.append(min(kth, float(1 + 2 * star.leaf_size)))
            for sid, sed in entries:
                for posting in index.upper.postings(sid):
                    per_graph = self.zeta.setdefault(posting.gid, {})
                    best = per_graph.get(j)
                    if best is None or sed < best:
                        per_graph[j] = float(sed)
        return ctx


class _SubCAStage(Stage):
    """Adapted CA: ζ_sub screening plus the full-µ_sub tightening pass."""

    name = "ca"

    def __init__(self, search: "SubgraphSearch", ta: _SubTAStage) -> None:
        self.search = search
        self.ta = ta

    def run(self, ctx: ExecutionContext) -> ExecutionContext:
        index = ctx.engine.index
        delta_prime = normalization_factor(
            ctx.query, database_max=index.database_max_degree()
        )
        threshold = ctx.tau * delta_prime
        m = len(ctx.query_stars)
        floors = self.ta.floors
        unseen_floor = sum(floors)
        candidates: List[object] = []
        for gid in index.gids():
            per_graph = self.ta.zeta.get(gid)
            if per_graph is None:
                score = unseen_floor
            else:
                # Row j of the optimal µ_sub alignment may use a non-top-k
                # star (≥ kth) or an ε column (= λ(s_j, ε)), so each seen
                # value is additionally capped by the list floor.
                score = sum(
                    min(per_graph.get(j, float("inf")), floors[j])
                    for j in range(m)
                )
            if score > threshold:
                ctx.stats.count_prune("zeta_sub")
                continue
            # Tighten with the full µ_sub (one Hungarian, C-Star style).
            ctx.stats.graphs_accessed += 1
            ctx.stats.full_mapping_computations += 1
            graph = ctx.engine.graph(gid)
            if sub_mapping_distance(ctx.query, graph) / normalization_factor(
                ctx.query, graph
            ) > ctx.tau:
                ctx.stats.count_prune("l_sub")
                continue
            candidates.append(gid)
        ctx.candidates = candidates
        ctx.stats.candidates = len(candidates)
        return ctx


class _SubVerifyStage(Stage):
    """Exact confirmation via the A* subgraph edit distance."""

    name = "verify"

    def run(self, ctx: ExecutionContext) -> ExecutionContext:
        matches: Set[object] = set()
        ctx.verified = ctx.verify == "exact"
        if ctx.verified:
            for gid in ctx.candidates:
                if subgraph_within(ctx.query, ctx.engine.graph(gid), int(ctx.tau)):
                    matches.add(gid)
        ctx.matches = matches
        ctx.stats.confirmed_matches = len(matches)
        return ctx
