"""Query statistics shared by SEGOS and the baselines.

The paper's evaluation reports, besides wall-clock time:

* **access number** — how many graphs had a mapping distance computed
  (Figure 12); this is the metric SEGOS's CA stage minimises;
* **candidate size** — how many graphs survive filtering and would be sent
  to exact-GED verification (Figures 15–18);
* **TA overhead** — sorted accesses spent in the top-k sub-unit stage
  (Figure 20).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from ..resilience.telemetry import DegradationEvent


@dataclass
class WallClock:
    """The one wall-time helper every query path reports ``elapsed`` from.

    ``range_query``, ``batch_range_query`` and the pipelined engine all time
    themselves through this class so their numbers are comparable — same
    clock (``perf_counter``), same start/read discipline.
    """

    started: float

    @classmethod
    def start(cls) -> "WallClock":
        return cls(time.perf_counter())

    def elapsed(self) -> float:
        """Seconds since :meth:`start` (monotonic)."""
        return time.perf_counter() - self.started


@dataclass
class QueryStats:
    """Counters filled in by one range-query execution."""

    #: graphs whose (partial or full) mapping distance was computed
    graphs_accessed: int = 0
    #: graphs for which the full µ was computed (superset counter above)
    full_mapping_computations: int = 0
    #: graphs resolved purely by constant-time aggregation bounds
    resolved_by_aggregation: int = 0
    #: graphs pruned per bound name (zeta / l_mu / partial_mu / l_m / omega /
    #: never_seen, ...)
    pruned_by: Dict[str, int] = field(default_factory=dict)
    #: entries scanned across all CA graph lists
    list_entries_scanned: int = 0
    #: sorted accesses performed by the TA top-k sub-unit searches
    ta_accesses: int = 0
    #: distinct TA searches executed (duplicate query stars share one)
    ta_searches: int = 0
    #: graphs that reached the candidate set (including confirmed matches)
    candidates: int = 0
    #: candidates confirmed as matches by an upper bound (no GED needed)
    confirmed_matches: int = 0
    #: graphs never seen in any list and filtered by the halting argument
    filtered_unseen: int = 0
    #: graphs processed by the linear fallback (lists exhausted, no halt)
    linear_fallback: int = 0
    #: top-k backend → number of searches it answered (``ta`` / ``scan``)
    topk_backends: Dict[str, int] = field(default_factory=dict)
    #: rows scored by vectorized full scans (the scan-side twin of
    #: ``ta_accesses``; zero when every search ran on the TA backend)
    topk_scan_width: int = 0
    #: verification-stage candidates settled by L_m/U_m bounds alone
    settled_by_bounds: int = 0
    #: verification-stage A* GED runs actually dispatched
    astar_runs: int = 0
    #: A* states expanded across this query's GED runs (search effort)
    astar_expansions: int = 0
    #: filter tier name → bound-tightness counters: ``evaluated`` (pairs the
    #: tier scored), ``bound_sum`` (Σ of its lower bounds — tightness in
    #: aggregate) and ``bound_max`` (its tightest single claim); filled by
    #: the ``embed``/``anchor`` tier stages, merged by +/+/max
    tier_bounds: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: candidates settled as matches by the anchor tier's upper bound —
    #: exact answers that never paid for an A* run
    anchor_settled: int = 0
    #: stage name → wall-clock seconds, captured uniformly by the plan
    #: executor (``ta``/``ca``/``verify`` on the serial path, ``ta+ca``/
    #: ``verify`` on the pipelined path — the threaded stages overlap, so
    #: they are timed as one fused stage)
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: degradation telemetry: every pool failure, injected fault or
    #: fallback recorded while answering this query (see
    #: :mod:`repro.resilience`); silent degradation is a bug
    degradations: List[DegradationEvent] = field(default_factory=list)

    def count_prune(self, bound: str, count: int = 1) -> None:
        self.pruned_by[bound] = self.pruned_by.get(bound, 0) + count

    def count_topk_backend(self, backend: str, scan_width: int = 0) -> None:
        """Record one top-k search answered by *backend*."""
        self.topk_backends[backend] = self.topk_backends.get(backend, 0) + 1
        self.topk_scan_width += scan_width

    def record_tier_bound(self, tier: str, bound: float) -> None:
        """Fold one lower-bound evaluation into *tier*'s tightness counters."""
        self.fold_tier_bounds(tier, 1, bound, bound)

    def fold_tier_bounds(
        self, tier: str, evaluated: float, bound_sum: float, bound_max: float
    ) -> None:
        """Fold *evaluated* bounds (their sum and max) into *tier*'s counters."""
        entry = self.tier_bounds.setdefault(
            tier, {"evaluated": 0.0, "bound_sum": 0.0, "bound_max": 0.0}
        )
        entry["evaluated"] += evaluated
        entry["bound_sum"] += bound_sum
        if bound_max > entry["bound_max"]:
            entry["bound_max"] = bound_max

    def summary(self) -> str:
        """One-line human-readable account of where the filtering work went.

        Example: ``accessed 12 graphs (9 full µ) | pruned: l_mu=30 omega=55 |
        candidates: 3 (1 confirmed)``.
        """
        pruned = " ".join(
            f"{name}={count}" for name, count in sorted(self.pruned_by.items())
        )
        parts = [
            f"accessed {self.graphs_accessed} graphs "
            f"({self.full_mapping_computations} full µ)",
            f"pruned: {pruned or 'nothing'}",
            f"candidates: {self.candidates} ({self.confirmed_matches} confirmed)",
        ]
        if self.linear_fallback:
            parts.append(f"linear fallback: {self.linear_fallback}")
        if self.topk_backends:
            chosen = " ".join(
                f"{name}={count}" for name, count in sorted(self.topk_backends.items())
            )
            parts.append(f"top-k backends: {chosen}")
        if self.tier_bounds:
            tiers = " ".join(
                f"{name}={int(entry['evaluated'])}@{entry['bound_max']:g}"
                for name, entry in sorted(self.tier_bounds.items())
            )
            parts.append(f"tiers (evaluated@max bound): {tiers}")
        if self.anchor_settled:
            parts.append(f"anchor settled: {self.anchor_settled}")
        if self.astar_runs or self.settled_by_bounds:
            detail = (
                f"verify: {self.astar_runs} A* runs, "
                f"{self.settled_by_bounds} settled by bounds"
            )
            if self.astar_expansions:
                detail += f", {self.astar_expansions} states expanded"
            parts.append(detail)
        if self.stage_seconds:
            timed = " ".join(
                f"{name}={seconds * 1000:.1f}ms"
                for name, seconds in self.stage_seconds.items()
            )
            parts.append(f"stages: {timed}")
        if self.degradations:
            parts.append(f"degraded: {len(self.degradations)} event(s)")
        return " | ".join(parts)

    def merge(self, other: "QueryStats") -> None:
        """Accumulate another run's counters into this one (for averaging)."""
        self.graphs_accessed += other.graphs_accessed
        self.full_mapping_computations += other.full_mapping_computations
        self.resolved_by_aggregation += other.resolved_by_aggregation
        self.list_entries_scanned += other.list_entries_scanned
        self.ta_accesses += other.ta_accesses
        self.ta_searches += other.ta_searches
        self.candidates += other.candidates
        self.confirmed_matches += other.confirmed_matches
        self.filtered_unseen += other.filtered_unseen
        self.linear_fallback += other.linear_fallback
        self.topk_scan_width += other.topk_scan_width
        self.settled_by_bounds += other.settled_by_bounds
        self.astar_runs += other.astar_runs
        self.astar_expansions += other.astar_expansions
        self.anchor_settled += other.anchor_settled
        for tier, entry in other.tier_bounds.items():
            self.fold_tier_bounds(
                tier, entry["evaluated"], entry["bound_sum"], entry["bound_max"]
            )
        for key, value in other.pruned_by.items():
            self.pruned_by[key] = self.pruned_by.get(key, 0) + value
        for key, value in other.topk_backends.items():
            self.topk_backends[key] = self.topk_backends.get(key, 0) + value
        for key, value in other.stage_seconds.items():
            self.stage_seconds[key] = self.stage_seconds.get(key, 0.0) + value
        self.degradations.extend(other.degradations)

    @classmethod
    def merged(cls, runs: Iterable["QueryStats"]) -> "QueryStats":
        """Fold many per-query stats into one aggregate (batch reporting)."""
        total = cls()
        for run in runs:
            total.merge(run)
        return total
