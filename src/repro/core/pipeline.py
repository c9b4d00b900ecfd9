"""SEGOS-Pipeline: the three-stage threaded query processor (Section V-E).

The paper pipelines query processing into TA → CA → DC:

* the **TA thread** streams, per query star, the graph score lists built
  from that star's top-k sub-units (``k`` is *fixed*, default 20 — the
  pipeline removes the k_s tuning knob);
* the **CA thread** integrates lists as they arrive, round-robin scans the
  available ones, applies only the constant-time aggregation bounds, and
  forwards graphs to the DC stage — eagerly once more than half of a
  graph's sub-units have been seen (the 50 % rule), and finally every graph
  still unresolved when scanning ends.  Once the CA threshold halts a size
  side there is no need for further TA results, so the CA thread signals the
  TA thread to stop early;
* **DC workers** (two, as in the paper's implementation) run the Hungarian
  work: the Theorem-1 partial check and, when forced, the finalised µ with
  the Lemma 2/3 bounds.  Graphs are partitioned across workers by id so
  each graph's checks stay ordered.

The ``h`` checkpoint parameter disappears: the CA thread checks its cheap
bounds every round, and the expensive work is entirely demand-driven.

CPython's GIL means the speed-up here comes from overlapping waiting and
from the early-halt signal rather than true parallelism; the architecture —
and the access-number behaviour of Figure 21 — is faithfully reproduced.

Execution-wise the pipeline is one *fused* plan stage: the three threads
overlap in time, so they are timed as a single ``"ta+ca"`` entry in
``QueryStats.stage_seconds``, followed by the same :class:`VerifyStage`
every other query mode uses.  Plans run through
:func:`repro.core.plan.execute_plan`, so wall-clock, per-stage timing and
SED-cache accounting are identical to the serial engine's.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..graphs.model import Graph, normalization_factor
from ..graphs.star import decompose
from .bounds import SeenGraph, settle_by_full_bounds
from .ca_search import _GraphResolver
from .engine import QueryResult, SegosIndex
from .graph_lists import build_query_star_lists
from .plan import (
    AnchorStage,
    EmbedStage,
    ExecutionContext,
    QueryPlan,
    Stage,
    VerifyStage,
)
from .tiers import resolve_tier_chain
from .stats import QueryStats
from .ta_search import top_k_stars

#: The pipeline fixes the TA k to a small constant (Section V-E).
PIPELINE_K = 20

_SENTINEL = object()


@dataclass
class _DCItem:
    gid: object
    snapshot: SeenGraph
    side_bounds: List[float]
    forced: bool


class PipelinedFilterStage(Stage):
    """The fused threaded TA → CA → DC filter as one plan stage.

    The three threads overlap, so the paper's per-thread costs cannot be
    separated on a wall clock; the executor times the whole fused stage
    under the ``"ta+ca"`` key instead.
    """

    name = "ta+ca"

    def run(self, ctx: ExecutionContext) -> ExecutionContext:
        run = _PipelineRun(ctx)
        candidates, confirmed, _stats = run.execute()
        ctx.candidates = candidates
        ctx.confirmed = set(confirmed)
        ctx.matches = set(confirmed)
        return ctx


class PipelinedSegos:
    """Pipelined three-stage range queries over an existing SEGOS index.

    Examples
    --------
    >>> from repro.graphs.model import Graph
    >>> engine = SegosIndex()
    >>> engine.add("g", Graph(["a", "b"], [(0, 1)]))
    >>> PipelinedSegos(engine).range_query(Graph(["a", "b"], [(0, 1)]), tau=0).candidates
    ['g']
    """

    def __init__(self, engine: SegosIndex, *, k: int = PIPELINE_K) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.engine = engine
        self.k = k

    def plan(self) -> QueryPlan:
        """The pipelined plan: fused threaded filter, then shared verify.

        The engine's tier chain composes around the fused stage: an
        enabled ``embed`` tier runs its vectorized pre-filter before the
        threads start (the fused CA loop skips excluded graphs), and an
        enabled ``anchor`` tier screens the surviving candidates before
        verification — same stage objects as the serial plan.
        """
        tiers = resolve_tier_chain(self.engine.config.filter_tiers)
        stages: List[Stage] = []
        names: List[str] = []
        if "embed" in tiers:
            stages.append(EmbedStage())
            names.append("embed")
        stages.append(PipelinedFilterStage())
        names.append("ta+ca (threaded)")
        if "anchor" in tiers:
            stages.append(AnchorStage())
            names.append("anchor")
        stages.append(VerifyStage())
        names.append("verify")
        return QueryPlan(
            stages=tuple(stages), description=" -> ".join(names)
        )

    # ------------------------------------------------------------------
    def range_query(
        self,
        query: Graph,
        *,
        tau: float,
        verify: str = "none",
        verify_workers: Optional[int] = None,
        verify_budget: Optional[int] = None,
        verify_deadline: Optional[float] = None,
        trace: Optional[bool] = None,
    ) -> QueryResult:
        """Pipelined equivalent of :meth:`SegosIndex.range_query`.

        Everything but the query graph is keyword-only.  Exact
        verification runs through the scheduler of
        :mod:`repro.core.verify` — bounds-first, most-promising candidates
        first, each A* capped by ``verify_budget`` so one pathological pair
        cannot hang a pipelined query, and optionally fanned out over
        ``verify_workers`` processes.  A candidate left undecided stays in
        ``candidates`` but not ``matches``, and ``verified`` turns False.
        All keywords are per-call
        :class:`~repro.config.EngineConfig` overrides on top of the
        wrapped engine's resolved config.
        """
        session = self.engine.session(
            k=self.k,
            verify_workers=verify_workers,
            verify_budget=verify_budget,
            verify_deadline=verify_deadline,
            trace=trace,
        )
        return self._run(session, query, tau, verify=verify)

    def _run(self, session, query: Graph, tau: float, *, verify: str) -> QueryResult:
        ctx = session.context(query, tau, verify=verify)
        return session.execute(self.plan(), ctx).to_result()

    def batch_range_query(
        self,
        queries: Sequence[Graph],
        *,
        tau: float,
        verify: str = "none",
        workers: Optional[int] = None,
        verify_workers: Optional[int] = None,
        trace: Optional[bool] = None,
    ) -> List[QueryResult]:
        """Pipelined equivalent of :meth:`SegosIndex.batch_range_query`.

        Runs through the wrapped engine's batch body, so the same rules
        hold: with ``workers > 1`` (default: the engine's resolved
        ``batch_workers`` knob) query chunks run in worker processes that
        attach the engine's on-disk index, each executing the full
        three-stage pipeline per query; an engine with no current
        :meth:`~SegosIndex.disk_handle` runs the batch serially in-process
        through one session, so queries share their TA top-k searches.
        Answers are identical either way.  ``verify_workers`` parallelises
        exact verification per query on the serial path only.
        """
        return self.engine._batch(
            queries,
            _pipelined_chunk,
            {"tau": tau, "k": self.k, "verify": verify},
            workers=workers,
            verify_workers=verify_workers,
            trace=trace,
        )


def _pipelined_chunk(
    engine: SegosIndex, options: Dict[str, object], queries: Sequence[Graph]
) -> List[QueryResult]:
    """One pipelined batch chunk on *engine* (pool task, serial and salvage).

    One session serves the chunk, so its queries share TA top-k searches.
    """
    pipe = PipelinedSegos(engine, k=options["k"])
    session = engine.session(k=pipe.k, verify_workers=options["verify_workers"])
    return [
        pipe._run(session, query, options["tau"], verify=options["verify"])
        for query in queries
    ]


class _PipelineRun:
    """State of one pipelined query execution (one fused plan stage)."""

    def __init__(self, ctx: ExecutionContext) -> None:
        self.engine = ctx.engine
        self.index = ctx.engine.index
        self.query = ctx.query
        self.tau = ctx.tau
        self.config = ctx.config
        self.k = ctx.config.k
        self.query_stars = decompose(ctx.query)
        self.m = len(self.query_stars)
        self.stats = ctx.stats
        #: spans opened on the TA/DC threads have no ambient stack of
        #: their own, so they attach under the fused stage span explicitly
        self.tracer = ctx.tracer
        self.span_parent = ctx.tracer.current_context()
        #: session-shared star key → TopKResult cache (only the TA thread
        #: writes during a run; batch queries run sequentially, so reuse
        #: across queries is race-free)
        self.topk_cache = ctx.topk_cache
        #: gids the embedding pre-filter tier proved non-answers; the CA
        #: loop never accumulates state for them
        self.excluded = ctx.embed_excluded
        self.ta_queue: "queue.Queue" = queue.Queue()
        self.dc_queues: List["queue.Queue"] = [queue.Queue(), queue.Queue()]
        self.result_queue: "queue.Queue" = queue.Queue()
        self.stop_ta = threading.Event()
        self.global_threshold = ctx.tau * normalization_factor(
            ctx.query, database_max=self.index.database_max_degree()
        )

    # ------------------------------------------------------------------
    # Stage 1: TA
    # ------------------------------------------------------------------
    def _ta_stage(self) -> None:
        try:
            with self.tracer.span(
                "pipeline.ta", parent=self.span_parent, stars=self.m
            ):
                for j, star in enumerate(self.query_stars):
                    if self.stop_ta.is_set():
                        break
                    result = self.topk_cache.get(star.key)
                    if result is None:
                        result = top_k_stars(
                            self.index, star, self.k, backend=self.config.topk_backend
                        )
                        self.topk_cache[star.key] = result
                        self.stats.ta_searches += 1
                        self.stats.ta_accesses += result.accesses
                        self.stats.count_topk_backend(
                            result.backend, result.scan_width
                        )
                    lists = build_query_star_lists(
                        self.index, star, self.query.order, result
                    )
                    self.ta_queue.put((j, lists))
        finally:
            self.ta_queue.put(_SENTINEL)

    # ------------------------------------------------------------------
    # Stage 3: DC workers
    # ------------------------------------------------------------------
    def _dc_stage(self, worker: int, resolver: _GraphResolver) -> None:
        dc_queue = self.dc_queues[worker]
        with self.tracer.span(
            "pipeline.dc", parent=self.span_parent, worker=worker
        ):
            while True:
                item = dc_queue.get()
                if item is _SENTINEL:
                    return
                assert isinstance(item, _DCItem)
                resolver.resolve(item.snapshot, item.side_bounds, item.forced)
                self.result_queue.put(
                    (item.gid, item.snapshot.resolution, item.forced)
                )

    # ------------------------------------------------------------------
    # Stage 2 + orchestration
    # ------------------------------------------------------------------
    def execute(self) -> Tuple[List[object], Set[object], QueryStats]:
        resolvers = [
            _GraphResolver(
                self.query,
                self.query_stars,
                self.engine._graphs,
                self.index,
                self.tau,
                partial_fraction=0.5,
                stats=QueryStats(),
                assignment_backend=self.config.assignment_backend,
            )
            for _ in range(2)
        ]
        ta_thread = threading.Thread(target=self._ta_stage, name="segos-ta")
        dc_threads = [
            threading.Thread(
                target=self._dc_stage, args=(i, resolvers[i]), name=f"segos-dc{i}"
            )
            for i in range(2)
        ]
        ta_thread.start()
        for t in dc_threads:
            t.start()

        with self.tracer.span("pipeline.ca"):
            seen, unresolved, sides = self._ca_stage()

        # Final forced pass: everything still unresolved goes to DC.
        pending = 0
        for gid in unresolved:
            sg = seen[gid]
            side = sides[0 if sg.small_side else 1]
            self._submit_dc(sg, side, forced=True)
            pending += 1
        for dc_queue in self.dc_queues:
            dc_queue.put(_SENTINEL)

        # Drain results (both the eager partial ones and the forced ones).
        resolutions: Dict[object, Optional[str]] = {}
        forced_done = 0
        while forced_done < pending:
            gid, resolution, forced = self.result_queue.get()
            if forced:
                forced_done += 1
                resolutions[gid] = resolution
            elif resolution == "pruned":
                resolutions.setdefault(gid, resolution)
        ta_thread.join()
        for t in dc_threads:
            t.join()
        while not self.result_queue.empty():
            gid, resolution, forced = self.result_queue.get_nowait()
            if forced or resolution == "pruned":
                resolutions[gid] = resolution

        candidates: List[object] = []
        confirmed: Set[object] = set()
        for gid, sg in seen.items():
            resolution = sg.resolution or resolutions.get(gid)
            if resolution == "candidate":
                candidates.append(gid)
            elif resolution == "match":
                candidates.append(gid)
                confirmed.add(gid)

        self._handle_unseen(seen, sides, candidates, confirmed)

        for resolver in resolvers:
            self.stats.merge(resolver.stats)
        self.stats.candidates = len(candidates)
        self.stats.confirmed_matches = len(confirmed)
        return candidates, confirmed, self.stats

    def _submit_dc(self, sg: SeenGraph, side: "_PipeSide", forced: bool) -> None:
        snapshot = SeenGraph(
            gid=sg.gid,
            order=sg.order,
            max_degree=sg.max_degree,
            small_side=sg.small_side,
            chi=dict(sg.chi),
            star_freq=dict(sg.star_freq),
            seen_pairs=list(sg.seen_pairs),
        )
        worker = hash(sg.gid) % 2
        self.dc_queues[worker].put(
            _DCItem(
                gid=sg.gid,
                snapshot=snapshot,
                side_bounds=[side.list_bound(j) for j in range(self.m)],
                forced=forced,
            )
        )

    def _ca_stage(
        self,
    ) -> Tuple[Dict[object, SeenGraph], Set[object], List["_PipeSide"]]:
        sides = [_PipeSide(self.m, small=True), _PipeSide(self.m, small=False)]
        seen: Dict[object, SeenGraph] = {}
        unresolved: Set[object] = set()
        sent_partial: Set[object] = set()
        aggregation_resolver = _GraphResolver(
            self.query,
            self.query_stars,
            self.engine._graphs,
            self.index,
            self.tau,
            partial_fraction=0.5,
            stats=self.stats,
            assignment_backend=self.config.assignment_backend,
        )
        ta_finished = False
        while True:
            # Integrate every TA result currently available.
            while True:
                try:
                    item = self.ta_queue.get_nowait()
                except queue.Empty:
                    break
                if item is _SENTINEL:
                    ta_finished = True
                    break
                j, lists = item
                sides[0].attach(j, lists.small, lists.exhausted_small_bound())
                sides[1].attach(j, lists.large, lists.exhausted_large_bound())

            both_done = all(side.done(ta_finished) for side in sides)
            if both_done:
                if ta_finished:
                    break
                if all(side.halted for side in sides):
                    self.stop_ta.set()
                    # Drain the TA queue so the TA thread can exit cleanly.
                    while True:
                        item = self.ta_queue.get()
                        if item is _SENTINEL:
                            break
                    break
                time.sleep(0.0005)  # waiting for more lists
                continue

            progressed = False
            for side in sides:
                if side.done(ta_finished):
                    continue
                for j in range(self.m):
                    entry = side.next_entry(j)
                    if entry is None:
                        continue
                    progressed = True
                    self.stats.list_entries_scanned += 1
                    sg = seen.get(entry.gid)
                    if sg is None and entry.gid not in self.excluded:
                        meta = self.index.meta(entry.gid)
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
                if side.omega() > self.global_threshold:
                    side.halted = True
            if not progressed and not ta_finished:
                time.sleep(0.0005)
                continue

            # Cheap checkpoint every round: aggregation bounds only, plus
            # eager DC submission past the 50 % revealed mark.
            for gid in list(unresolved):
                sg = seen[gid]
                side = sides[0 if sg.small_side else 1]
                side_bounds = [side.list_bound(j) for j in range(self.m)]
                aggregation_resolver.resolve(
                    sg, side_bounds, forced=False, aggregation_only=True
                )
                if sg.resolution is not None:
                    unresolved.discard(gid)
                    continue
                revealed = sum(sg.star_freq.values()) / max(1, sg.order)
                if revealed > 0.5 and gid not in sent_partial:
                    sent_partial.add(gid)
                    self._submit_dc(sg, side, forced=False)
        # Integrate eager DC prunes that already came back.
        while not self.result_queue.empty():
            try:
                gid, resolution, forced = self.result_queue.get_nowait()
            except queue.Empty:
                break
            if resolution == "pruned" and gid in unresolved:
                seen[gid].resolution = "pruned"
                unresolved.discard(gid)
            elif forced:  # pragma: no cover - defensive; forced come later
                self.result_queue.put((gid, resolution, forced))
                break
        return seen, unresolved, sides

    def _handle_unseen(
        self,
        seen: Dict[object, SeenGraph],
        sides: List["_PipeSide"],
        candidates: List[object],
        confirmed: Set[object],
    ) -> None:
        """Appendix C treatment of graphs never surfaced by any list."""
        query_order = self.query.order
        for side_index, side in enumerate(sides):
            small = side_index == 0
            unseen = [
                gid
                for gid in self.index.gids()
                if gid not in seen
                and gid not in self.excluded
                and (self.index.meta(gid).order <= query_order) == small
            ]
            if not unseen:
                continue
            if side.halted or side.omega() > self.global_threshold:
                self.stats.filtered_unseen += len(unseen)
                self.stats.pruned_by["omega"] = (
                    self.stats.pruned_by.get("omega", 0) + len(unseen)
                )
                continue
            for gid in unseen:
                self.stats.linear_fallback += 1
                self.stats.graphs_accessed += 1
                verdict, _ = settle_by_full_bounds(
                    self.query,
                    self.engine.graph(gid),
                    self.tau,
                    backend=self.config.assignment_backend,
                    stats=self.stats,
                )
                if verdict == "pruned":
                    continue
                candidates.append(gid)
                if verdict == "match":
                    confirmed.add(gid)


class _PipeSide:
    """One size side of the CA scan with lists arriving over time."""

    def __init__(self, m: int, small: bool) -> None:
        self.small = small
        self.entries: List[Optional[List]] = [None] * m
        self.positions = [0] * m
        self.last_sed = [0.0] * m
        self.floors = [0.0] * m
        self.halted = False

    def attach(self, j: int, entries: List, floor: float) -> None:
        """Register list *j* once its TA result arrives.

        ``floor`` is the exhausted-list SED bound (kth/ε floor) used once
        every entry has been consumed.
        """
        self.entries[j] = entries
        self.floors[j] = floor

    def exhausted(self, j: int) -> bool:
        entries = self.entries[j]
        return entries is not None and self.positions[j] >= len(entries)

    def list_bound(self, j: int) -> float:
        if self.entries[j] is None:
            return 0.0  # nothing known yet: the only sound floor is zero
        if self.exhausted(j):
            return self.floors[j]
        return self.last_sed[j]

    def omega(self) -> float:
        return sum(self.list_bound(j) for j in range(len(self.entries)))

    def next_entry(self, j: int):
        entries = self.entries[j]
        if entries is None or self.positions[j] >= len(entries):
            return None
        entry = entries[self.positions[j]]
        self.positions[j] += 1
        self.last_sed[j] = float(entry.sed)
        return entry

    def done(self, ta_finished: bool) -> bool:
        if self.halted:
            return True
        if not ta_finished and any(e is None for e in self.entries):
            return False
        return all(
            self.entries[j] is None or self.exhausted(j)
            for j in range(len(self.entries))
        )
