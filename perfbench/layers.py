"""The traced pass: one range query composed layer by layer, with spans.

The untraced pass calls ``SegosIndex.range_query`` and sees one number per
query.  This module answers the same query by calling each layer's public
function in the order the engine's plan does (embed → decompose → top-k →
graph lists → CA → anchor → verify, following ``config.filter_tiers``) and
wraps every call in a span recorded here, in the benchmark's own code.  The
engine is reached through ``engine.index``, ``engine.config`` and the public
graph accessors only.

Spans stay in memory (:class:`SpanRecorder`) and are written as JSON lines
when the run ends.  Counters the layers already return (``TopKResult``,
``QueryStats``, ``VerificationReport``) are summed into one ``Counter``.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from collections.abc import Mapping
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.core.ca_search import ca_range_query
from repro.core.graph_lists import build_query_star_lists
from repro.core.stats import QueryStats
from repro.core.ta_search import top_k_stars
from repro.core.tiers import AnchorTier
from repro.core.verify import verify_candidates
from repro.graphs.star import decompose

#: Layer spans whose durations add up to the composed query time.
LAYERS = ("embed", "decompose", "topk", "lists", "ca", "anchor", "verify")

#: CA prune counters reported one by one (``QueryStats.pruned_by`` keys).
CA_BOUNDS = ("zeta", "l_mu", "partial_mu", "l_m", "omega")


class _Span:
    __slots__ = ("name", "trace_id", "span_id", "parent", "start", "end", "attrs")

    def __init__(self, name, trace_id, span_id, parent, attrs) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent = parent
        self.start = time.perf_counter()
        self.end: Optional[float] = None
        self.attrs = attrs


class SpanRecorder:
    """In-memory span list: name, start, end, parent, shared trace id.

    It also satisfies the tracer protocol ``verify_candidates`` accepts
    (``enabled`` plus ``span(name, **attrs)`` yielding an object with an
    ``attrs`` dict), so each A* run shows up as a child of the verify span
    together with its verdict.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: List[_Span] = []
        self._stack: List[_Span] = []
        self.trace_id: object = None

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[_Span]:
        parent = self._stack[-1].span_id if self._stack else None
        record = _Span(name, self.trace_id, len(self.spans), parent, attrs)
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def busy(self, name: str, trace_ids=None) -> float:
        """Summed duration of every finished span called *name*."""
        return sum(
            s.end - s.start
            for s in self.spans
            if s.name == name
            and s.end is not None
            and (trace_ids is None or s.trace_id in trace_ids)
        )

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(
                    json.dumps(
                        {
                            "trace": str(s.trace_id),
                            "id": s.span_id,
                            "parent": s.parent,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "attrs": {k: str(v) for k, v in s.attrs.items()},
                        }
                    )
                    + "\n"
                )


class GraphView(Mapping):
    """Read-only gid → graph mapping over ``engine.gids()``/``engine.graph()``."""

    def __init__(self, engine) -> None:
        self._engine = engine

    def __getitem__(self, gid):
        return self._engine.graph(gid)

    def __iter__(self):
        return iter(self._engine.gids())

    def __len__(self) -> int:
        return len(self._engine)

    def __contains__(self, gid) -> bool:
        return gid in self._engine


def composed_range_query(
    engine,
    graphs: GraphView,
    query,
    tau: float,
    *,
    recorder: SpanRecorder,
    counters: Counter,
    trace_id: object,
) -> set:
    """Answer ``{g : λ(query, g) ≤ tau}`` layer by layer; returns the matches.

    Work counts are added to *counters*.
    """
    config = engine.config
    tiers = config.filter_tiers
    cache: Dict[str, object] = {}
    c = counters
    index = engine.index
    recorder.trace_id = trace_id
    with recorder.span("query", tau=tau):
        excluded = frozenset()
        if "embed" in tiers:
            with recorder.span("embed"):
                embeddings = engine.embeddings()
                bounds = embeddings.lower_bounds(query)
                excluded = frozenset(
                    gid for gid, bound in zip(embeddings.gids, bounds)
                    if float(bound) > tau
                )
            c["embed.pruned"] += len(excluded)

        with recorder.span("decompose"):
            stars = decompose(query)
        distinct = {}
        for star in stars:
            distinct.setdefault(star.signature, star)
        for signature, star in distinct.items():
            with recorder.span("topk"):
                result = top_k_stars(index, star, config.k, backend=config.topk_backend)
            cache[signature] = result
            c["topk.searches"] += 1
            c["topk.sorted_accesses"] += result.accesses
            c["topk.scan_rows"] += result.scan_width

        with recorder.span("lists"):
            lists = [
                build_query_star_lists(index, star, query.order, cache[star.signature])
                for star in stars
            ]
        c["lists.entries"] += sum(len(ql.small) + len(ql.large) for ql in lists)

        stats = QueryStats()
        with recorder.span("ca"):
            ca = ca_range_query(
                index,
                graphs,
                query,
                tau,
                lists,
                h=config.h,
                partial_fraction=config.partial_fraction,
                stats=stats,
                assignment_backend=config.assignment_backend,
                excluded=excluded,
            )
        c["ca.graphs_accessed"] += stats.graphs_accessed
        c["ca.full_mu"] += stats.full_mapping_computations
        c["ca.entries_scanned"] += stats.list_entries_scanned
        c["ca.candidates"] += stats.candidates
        for bound in CA_BOUNDS:
            c[f"ca.pruned.{bound}"] += stats.pruned_by.get(bound, 0)
        candidates = list(ca.candidates)
        confirmed = set(ca.confirmed)

        if "anchor" in tiers and candidates:
            with recorder.span("anchor"):
                tier = AnchorTier(config.assignment_backend)
                survivors = []
                for gid in candidates:
                    if gid in confirmed:
                        survivors.append(gid)
                        continue
                    lower, upper = tier.bounds(query, graphs[gid])
                    if lower > tau:
                        c["anchor.pruned"] += 1
                        continue
                    survivors.append(gid)
                    if upper <= tau:
                        confirmed.add(gid)
                        c["anchor.settled"] += 1
                candidates = survivors

        with recorder.span("verify") as verify_span:
            report = verify_candidates(
                graphs,
                query,
                candidates,
                int(tau),
                already_confirmed=confirmed,
                budget_per_candidate=config.verify_budget,
                deadline=config.verify_deadline,
                workers=config.verify_workers,
                assignment_backend=config.assignment_backend,
                tracer=recorder,
            )
        c["verify.astar_runs"] += report.astar_runs
        c["verify.astar_expansions"] += report.astar_expansions
        c["verify.settled_by_bounds"] += report.settled_by_bounds
        c["verify.astar_matches"] += sum(
            1
            for s in recorder.spans[verify_span.span_id + 1:]
            if s.name == "verify.astar" and s.attrs.get("verdict") == "match"
        )
        c["ca.matches"] += len(report.matches & set(ca.candidates))
    return set(report.matches)
