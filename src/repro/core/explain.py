"""Query explanation: a structured trace of the TA → CA → DC stages.

`explain_range_query` runs a range query while recording what each stage
did — per query star: the TA search's effort and result spread; globally:
how each size side ended (threshold halt vs exhaustion), what pruned every
rejected graph, and which bound admitted every candidate.  The result
renders to a compact text report, the moral equivalent of a database
``EXPLAIN ANALYZE`` for SEGOS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..graphs.model import Graph
from ..graphs.star import Star, decompose
from .engine import SegosIndex
from .stats import QueryStats


@dataclass(frozen=True)
class StarTrace:
    """Top-k-stage account for one distinct query star."""

    signature: str
    occurrences: int
    accesses: int
    returned: int
    best_sed: Optional[int]
    kth_sed: float
    exhaustive: bool
    #: backend that answered this search (``ta`` or ``scan``)
    backend: str = "ta"
    #: rows scored when the vectorized scan answered (0 under TA)
    scan_width: int = 0


@dataclass
class QueryExplanation:
    """Everything `explain_range_query` gathered."""

    query_order: int
    query_stars: int
    distinct_stars: int
    tau: float
    k: int
    h: int
    #: the configured filter-tier chain the plan was built from
    filter_tiers: tuple = ()
    star_traces: List[StarTrace] = field(default_factory=list)
    stats: QueryStats = field(default_factory=QueryStats)
    candidates: List[object] = field(default_factory=list)
    confirmed: List[object] = field(default_factory=list)
    elapsed: float = 0.0

    def render(self) -> str:
        """Multi-line text report."""
        lines = [
            f"range query: |q|={self.query_order}, τ={self.tau}, "
            f"k={self.k}, h={self.h}",
        ]
        if self.filter_tiers:
            lines.append("tier chain: " + " -> ".join(self.filter_tiers))
        for name, entry in sorted(self.stats.tier_bounds.items()):
            pruned = self.stats.pruned_by.get(name, 0)
            evaluated = int(entry["evaluated"])
            mean = entry["bound_sum"] / evaluated if evaluated else 0.0
            line = (
                f"{name} tier: {evaluated} bounds evaluated "
                f"(mean {mean:.2f}, max {entry['bound_max']:g}), "
                f"{pruned} pruned"
            )
            if name == "anchor" and self.stats.anchor_settled:
                line += f", {self.stats.anchor_settled} settled as matches"
            lines.append(line)
        lines.append(
            f"TA stage: {self.distinct_stars} distinct stars "
            f"({self.query_stars} occurrences), "
            f"{self.stats.ta_accesses} sorted accesses"
            + (
                f", {self.stats.topk_scan_width} rows vector-scanned"
                if self.stats.topk_scan_width
                else ""
            )
        )
        for trace in self.star_traces:
            spread = (
                f"SED {trace.best_sed}..{trace.kth_sed:g}"
                if trace.best_sed is not None
                else "no results"
            )
            mode = "exhaustive" if trace.exhaustive else "halted"
            effort = (
                f"{trace.accesses} accesses"
                if trace.backend == "ta"
                else f"scanned {trace.scan_width} rows"
            )
            lines.append(
                f"  {trace.signature}  ×{trace.occurrences}: "
                f"{trace.returned} stars ({spread}), "
                f"{effort}, {mode} [{trace.backend}]"
            )
        lines.append(
            f"CA stage: {self.stats.list_entries_scanned} list entries scanned, "
            f"{self.stats.filtered_unseen} unseen graphs cleared by ω, "
            f"{self.stats.linear_fallback} via linear fallback"
        )
        lines.append("DC stage: " + self.stats.summary())
        for event in self.stats.degradations:
            lines.append(f"resilience: {event.summary()}")
        lines.append(
            f"result: {len(self.candidates)} candidates "
            f"({len(self.confirmed)} confirmed) in {self.elapsed * 1000:.1f} ms"
        )
        return "\n".join(lines)


def explain_range_query(
    engine: SegosIndex,
    query: Graph,
    *,
    tau: float,
    k: Optional[int] = None,
    h: Optional[int] = None,
) -> QueryExplanation:
    """Execute a range query, returning its full :class:`QueryExplanation`.

    Functionally identical to :meth:`SegosIndex.range_query` with
    ``verify="none"`` — the query runs through the same staged executor —
    with the star-level traces read back from the session's top-k cache
    afterwards.
    """
    session = engine.session(k=k, h=h)
    result = session.range_query(query, tau=tau)

    query_stars = decompose(query)
    # Star equality and hashing go by ``Star.key``, never the display
    # signature, so colliding signatures stay two stars here.
    occurrences: Dict[Star, int] = {}
    for star in query_stars:
        occurrences[star] = occurrences.get(star, 0) + 1
    cache = session.topk_cache
    traces = []
    for star, count in occurrences.items():
        topk = cache.get(star.key)
        if topk is None:
            continue
        traces.append(
            StarTrace(
                signature=star.signature,
                occurrences=count,
                accesses=topk.accesses,
                returned=len(topk.entries),
                best_sed=topk.entries[0][1] if topk.entries else None,
                kth_sed=topk.kth_sed,
                exhaustive=topk.exhaustive,
                backend=topk.backend,
                scan_width=topk.scan_width,
            )
        )
    return QueryExplanation(
        query_order=query.order,
        query_stars=len(query_stars),
        distinct_stars=len(cache),
        tau=tau,
        k=session.config.k,
        h=session.config.h,
        filter_tiers=session.config.filter_tiers,
        star_traces=traces,
        stats=result.stats,
        candidates=list(result.candidates),
        confirmed=sorted(map(str, result.matches)),
        elapsed=result.elapsed,
    )
