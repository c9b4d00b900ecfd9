"""CA-based range query (Algorithm 3, Sections V-C/V-D) plus the DC stage.

The scan walks the per-query-star graph score lists round-robin, keeping per
seen graph the accumulator of :mod:`repro.core.bounds`.  Every ``h``
accesses it runs the bound chain over the unresolved seen graphs:

1. ``ζ(q, g) > τ·δ_g``      → prune (constant time);
2. ``L_µ(q, g) > τ·δ_g``    → prune (constant time);
3. ``U_µ(q, g) ≤ τ·δ_g``    → candidate (constant time);
4. ``µ(S(q), S'(g)) > τ·δ_g`` → prune (dynamic Hungarian over the stars
   seen so far — Theorem 1);
5. finalize the full ``µ`` → prune on ``L_m > τ`` (Lemma 2), confirm on
   ``U_m ≤ τ`` (Lemma 3), otherwise keep as a candidate for verification.

The two size sides are scanned independently because their lists are only
SED-monotone within a side.  A side stops when its threshold
``ω = Σ_j χ̄_j`` exceeds ``τ·δ'`` (all still-unseen graphs of that side are
then safely filtered — Appendix C case 1) or when its lists are exhausted;
in the latter case, if the final ω does not clear the threshold, the
remaining unseen graphs are processed linearly, exactly the C-Star
degradation the paper describes (Appendix C case 2 and Section VI-E).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..graphs.model import Graph, normalization_factor
from ..graphs.star import Star, StarKey, decompose, star_at
from ..matching.mapping import DynamicMappingDistance, edit_cost_under_mapping
from .bounds import SeenGraph, settle_by_full_bounds
from .graph_lists import QueryStarLists
from .index import TwoLevelIndex
from .stats import QueryStats

#: Default checkpoint period (the paper's default h; Table II).
DEFAULT_H = 1000
#: Run the Theorem-1 partial check only once this share of a graph's stars
#: has been revealed (Section V-E's 50 % rule).
DEFAULT_PARTIAL_FRACTION = 0.5


@dataclass
class CAResult:
    """Outcome of the CA + DC stages for one range query."""

    candidates: List[object]
    confirmed: Set[object] = field(default_factory=set)
    stats: QueryStats = field(default_factory=QueryStats)


class _SideScan:
    """Round-robin cursor over one size side of the graph score lists."""

    def __init__(self, lists: Sequence[QueryStarLists], small: bool) -> None:
        self.small = small
        self.entries = [ql.small if small else ql.large for ql in lists]
        self.positions = [0] * len(lists)
        self.last_sed = [0.0] * len(lists)
        self.halted = False  # stopped via the ω threshold
        self._floors = [
            ql.exhausted_small_bound() if small else ql.exhausted_large_bound()
            for ql in lists
        ]

    def exhausted(self, j: int) -> bool:
        return self.positions[j] >= len(self.entries[j])

    def done(self) -> bool:
        return self.halted or all(
            self.exhausted(j) for j in range(len(self.entries))
        )

    def list_bound(self, j: int) -> float:
        """Current SED floor of list j for graphs unseen in it."""
        if self.exhausted(j):
            return self._floors[j]
        return self.last_sed[j]

    def omega(self) -> float:
        """The halting threshold ``ω = Σ_j χ̄_j`` for this side."""
        return sum(self.list_bound(j) for j in range(len(self.entries)))


class _GraphResolver:
    """Runs the bound chain for seen graphs; owns the dynamic solvers (DC)."""

    def __init__(
        self,
        query: Graph,
        query_stars: Sequence[Star],
        graphs: Mapping[object, Graph],
        index: TwoLevelIndex,
        tau: float,
        partial_fraction: float,
        stats: QueryStats,
        disabled_bounds: frozenset = frozenset(),
        assignment_backend: Optional[str] = None,
    ) -> None:
        self.query = query
        self.query_stars = list(query_stars)
        self.graphs = graphs
        self.index = index
        self.tau = tau
        self.partial_fraction = partial_fraction
        self.stats = stats
        # One-shot solves (C-Star step, Lemma 2/3 finalisation) go through
        # the pluggable registry; incremental reveals stay on the stateful
        # pure solver, which is the only backend with column updates.
        self.assignment_backend = assignment_backend
        # Ablation switch (benchmarks only): names from
        # {"zeta", "l_mu", "u_mu", "partial_mu"} skip that bound.
        self.disabled_bounds = disabled_bounds
        self.query_max_degree = query.max_degree()
        self.epsilons = [1 + 2 * s.leaf_size for s in self.query_stars]
        self._dyn: Dict[object, DynamicMappingDistance] = {}
        self._revealed: Dict[object, Dict[int, int]] = {}

    def _threshold(self, sg: SeenGraph) -> float:
        delta = max(4, max(self.query_max_degree, sg.max_degree) + 1)
        return self.tau * delta

    def _solver_for(self, sg: SeenGraph) -> DynamicMappingDistance:
        dyn = self._dyn.get(sg.gid)
        if dyn is None:
            dyn = DynamicMappingDistance(self.query_stars, sg.order)
            self._dyn[sg.gid] = dyn
            self._revealed[sg.gid] = {}
            self.stats.graphs_accessed += 1
        return dyn

    def _reveal_seen(self, sg: SeenGraph, dyn: DynamicMappingDistance) -> None:
        revealed = self._revealed[sg.gid]
        catalog = self.index.catalog
        for sid, freq in sg.star_freq.items():
            have = revealed.get(sid, 0)
            if have < freq:
                star = catalog.star(sid)
                for _ in range(freq - have):
                    dyn.reveal(star)
                revealed[sid] = freq

    def resolve(
        self,
        sg: SeenGraph,
        side_bounds: Sequence[float],
        forced: bool,
        *,
        aggregation_only: bool = False,
    ) -> None:
        """Apply the bound chain; sets ``sg.resolution`` when decided.

        With ``aggregation_only`` the chain stops after the constant-time
        bounds (steps 1–3): the pipelined variant runs those in its CA stage
        and defers the Hungarian work (steps 4–5) to the DC stage.
        """
        threshold = self._threshold(sg)
        if "zeta" not in self.disabled_bounds and sg.zeta() > threshold:
            sg.resolution, sg.pruned_by = "pruned", "zeta"
            self.stats.count_prune("zeta")
            return
        if (
            "l_mu" not in self.disabled_bounds
            and sg.aggregation_lower_bound(side_bounds, self.epsilons) > threshold
        ):
            sg.resolution, sg.pruned_by = "pruned", "l_mu"
            self.stats.count_prune("l_mu")
            return
        if (
            "u_mu" not in self.disabled_bounds
            and sg.aggregation_upper_bound(self.query.order, self.query_max_degree)
            <= threshold
        ):
            sg.resolution = "candidate"
            self.stats.resolved_by_aggregation += 1
            return
        if aggregation_only:
            return
        revealed_fraction = sum(sg.star_freq.values()) / max(1, sg.order)
        if not forced and revealed_fraction < self.partial_fraction:
            return  # too little seen for a useful partial check; wait
        if "partial_mu" in self.disabled_bounds and not forced:
            return
        if (forced and sg.gid not in self._dyn) or (
            forced and "partial_mu" in self.disabled_bounds
        ):
            # No partial solver was ever warranted for this graph: a single
            # from-scratch Hungarian (the C-Star step) is cheaper than
            # pricing the matrix one column at a time.
            self._resolve_one_shot(sg)
            return
        dyn = self._solver_for(sg)
        self._reveal_seen(sg, dyn)
        if dyn.current() > threshold:
            sg.resolution, sg.pruned_by = "pruned", "partial_mu"
            self.stats.count_prune("partial_mu")
            return
        if not forced:
            return
        # DC stage: complete the matrix, finalize µ and apply Lemmas 2–3.
        graph = self.graphs[sg.gid]
        full_counts = self.index.graph_star_counts(sg.gid)
        revealed = self._revealed[sg.gid]
        catalog = self.index.catalog
        for sid, count in full_counts.items():
            have = revealed.get(sid, 0)
            if have < count:
                star = catalog.star(sid)
                for _ in range(count - have):
                    dyn.reveal(star)
                revealed[sid] = count
        mu = dyn.finalize()
        self.stats.full_mapping_computations += 1
        delta = max(4, max(self.query_max_degree, sg.max_degree) + 1)
        if mu / delta > self.tau:
            sg.resolution, sg.pruned_by = "pruned", "l_m"
            self.stats.count_prune("l_m")
            return
        upper = self._upper_bound_from_alignment(dyn, graph)
        sg.resolution = "match" if upper <= self.tau else "candidate"

    def _resolve_one_shot(self, sg: SeenGraph) -> None:
        """Terminal Lemma 2/3 filtering via a single assignment solve."""
        self.stats.graphs_accessed += 1
        sg.resolution, _ = settle_by_full_bounds(
            self.query,
            self.graphs[sg.gid],
            self.tau,
            backend=self.assignment_backend,
            stats=self.stats,
        )
        if sg.resolution == "pruned":
            sg.pruned_by = "l_m"

    def _upper_bound_from_alignment(
        self, dyn: DynamicMappingDistance, graph: Graph
    ) -> int:
        """Lemma 3's ``U_m`` from the solver's final star alignment.

        A star of the data graph may be shared by several vertices; any
        consistent choice of representative vertex yields a valid mapping
        ``P`` and hence a valid upper bound ``C(q, g, P)``.
        """
        query_vertices = list(self.query.vertices())
        vertex_pool: Dict[StarKey, List[int]] = {}
        for v in graph.vertices():
            vertex_pool.setdefault(star_at(graph, v).key, []).append(v)
        mapping: Dict[int, Optional[int]] = {}
        for row, (left, right) in enumerate(dyn.star_alignment()):
            if left is None:
                continue  # ε row: an insertion, handled by edit cost
            v1 = query_vertices[row]
            if right is None:
                mapping[v1] = None
                continue
            pool = vertex_pool.get(right.key)
            mapping[v1] = pool.pop() if pool else None
        return edit_cost_under_mapping(self.query, graph, mapping)


def ca_range_query(
    index: TwoLevelIndex,
    graphs: Mapping[object, Graph],
    query: Graph,
    tau: float,
    lists: Sequence[QueryStarLists],
    *,
    h: int = DEFAULT_H,
    partial_fraction: float = DEFAULT_PARTIAL_FRACTION,
    stats: Optional[QueryStats] = None,
    disabled_bounds: frozenset = frozenset(),
    assignment_backend: Optional[str] = None,
    excluded: frozenset = frozenset(),
) -> CAResult:
    """Run the CA scan + DC resolution over pre-built graph score lists.

    ``graphs`` must cover every indexed gid (the engine guarantees this).
    Returns the candidate set — guaranteed to contain every graph with
    ``λ(q, g) ≤ τ`` — plus the subset already confirmed by upper bounds.

    ``disabled_bounds`` (ablation benches only) skips named checks of the
    bound chain; soundness is unaffected because only pruning/accepting
    shortcuts are removed, never the terminal Lemma 2/3 filtering.

    ``excluded`` gids were already proven non-answers by an earlier filter
    tier (the embedding pre-filter): the scan never accumulates state for
    them and the unseen partition skips them.  The cursor walk and the
    ``accesses % h`` checkpoint cadence are unchanged, so every other
    graph sees the exact same bound evaluations as an unfiltered run.
    """
    if tau < 0:
        raise ValueError("tau must be non-negative")
    if h < 1:
        raise ValueError("h must be >= 1")
    stats = stats if stats is not None else QueryStats()
    query_stars = [ql.star for ql in lists]
    resolver = _GraphResolver(
        query,
        query_stars,
        graphs,
        index,
        tau,
        partial_fraction,
        stats,
        disabled_bounds=disabled_bounds,
        assignment_backend=assignment_backend,
    )
    delta_prime = normalization_factor(
        query, database_max=index.database_max_degree()
    )
    global_threshold = tau * delta_prime

    sides = {
        "small": _SideScan(lists, small=True),
        "large": _SideScan(lists, small=False),
    }
    seen: Dict[object, SeenGraph] = {}
    unresolved: Set[object] = set()
    accesses = 0

    def checkpoint(forced: bool) -> None:
        for gid in list(unresolved):
            sg = seen[gid]
            side = sides["small" if sg.small_side else "large"]
            side_bounds = [side.list_bound(j) for j in range(len(lists))]
            resolver.resolve(sg, side_bounds, forced)
            if sg.resolution is not None:
                unresolved.discard(gid)

    while any(not side.done() for side in sides.values()):
        for side in sides.values():
            if side.done():
                continue
            for j in range(len(lists)):
                if side.exhausted(j):
                    continue
                entry = side.entries[j][side.positions[j]]
                side.positions[j] += 1
                side.last_sed[j] = float(entry.sed)
                stats.list_entries_scanned += 1
                accesses += 1
                sg = seen.get(entry.gid)
                if sg is None and entry.gid not in excluded:
                    meta = index.meta(entry.gid)
                    sg = SeenGraph(
                        gid=entry.gid,
                        order=meta.order,
                        max_degree=meta.max_degree,
                        small_side=side.small,
                    )
                    seen[entry.gid] = sg
                    unresolved.add(entry.gid)
                if sg is not None:
                    sg.observe(j, entry.sid, entry.sed, entry.freq)
                if accesses % h == 0:
                    checkpoint(forced=False)
            if side.omega() > global_threshold:
                side.halted = True

    checkpoint(forced=True)

    # Account for graphs never seen in any list (Appendix C).
    query_order = query.order
    unseen_small: List[object] = []
    unseen_large: List[object] = []
    for gid in index.gids():
        if gid in seen or gid in excluded:
            continue
        if index.meta(gid).order <= query_order:
            unseen_small.append(gid)
        else:
            unseen_large.append(gid)

    candidates: List[object] = []
    confirmed: Set[object] = set()
    for gid, sg in seen.items():
        if sg.resolution == "candidate":
            candidates.append(gid)
        elif sg.resolution == "match":
            candidates.append(gid)
            confirmed.add(gid)

    for side_name, unseen_gids in (("small", unseen_small), ("large", unseen_large)):
        side = sides[side_name]
        if not unseen_gids:
            continue
        if side.omega() > global_threshold:
            # Halting argument: every unseen graph on this side has
            # µ ≥ ω > τ·δ', hence L_m > τ.
            stats.filtered_unseen += len(unseen_gids)
            stats.pruned_by["omega"] = stats.pruned_by.get("omega", 0) + len(
                unseen_gids
            )
            continue
        # Lists exhausted without clearing the threshold: degrade to the
        # C-Star linear scan for the leftover graphs.
        for gid in unseen_gids:
            stats.linear_fallback += 1
            stats.graphs_accessed += 1
            verdict, _ = settle_by_full_bounds(
                query, graphs[gid], tau, backend=assignment_backend, stats=stats
            )
            if verdict == "pruned":
                continue
            candidates.append(gid)
            if verdict == "match":
                confirmed.add(gid)

    stats.candidates = len(candidates)
    stats.confirmed_matches = len(confirmed)
    return CAResult(candidates=candidates, confirmed=confirmed, stats=stats)
