"""The SEGOS engine: public facade over index, TA, CA and DC stages.

:class:`SegosIndex` is the class downstream users interact with: build it
over a graph database, mutate graphs in place through the seven update kinds
of Section IV-C, and ask GED range queries.

Range-query semantics mirror the paper's filter-and-verify contract:

* ``range_query(q, tau=tau)`` returns a :class:`QueryResult` whose
  ``candidates`` are guaranteed to be a superset of the true answer set
  ``{g : λ(q, g) ≤ τ}`` and whose ``matches`` are the candidates already
  *confirmed* by an upper bound (no exact GED needed);
* ``verify="exact"`` additionally runs the A* GED over the unconfirmed
  candidates so ``matches`` becomes the exact answer set — practical only
  for small graphs, exactly as in the paper, where verification cost is the
  reason filtering power matters.

Since the staged-executor refactor, every query mode is a thin front-end
over :mod:`repro.core.plan`: the engine resolves its tuning knobs once into
a frozen :class:`repro.config.EngineConfig` (environment < constructor <
per-call precedence) and delegates execution to the one TA → CA → verify
plan.  Cache-sharing across related queries goes through the public
:meth:`SegosIndex.session` API.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

from ..config import EngineConfig
from ..errors import GraphAlreadyIndexed, GraphNotIndexed
from ..graphs.model import Graph
from ..graphs.star import Star, decompose, star_at
from ..obs.metrics import GLOBAL_METRICS, record_query_metrics
from ..obs.trace import Trace
from ..perf.parallel import chunk_evenly, effective_workers, fan_out
from ..resilience.faults import FaultPlan
from .index import ChangeSet, GraphMeta, TwoLevelIndex
from .plan import QueryResult, QuerySession, traced_scope
from .stats import QueryStats
from .ta_search import TopKResult, top_k_stars

#: Default k for the TA stage (Table II's default).
DEFAULT_K = 100

__all__ = ["DEFAULT_K", "QueryResult", "SegosIndex"]


class SegosIndex:
    """A SEGOS-indexed graph database supporting GED range queries.

    Tuning knobs resolve once, at construction, into a frozen
    :class:`~repro.config.EngineConfig`: ``REPRO_*`` environment variables
    provide defaults, explicit constructor kwargs override them, and
    per-call kwargs (``range_query(k=..., verify_workers=...)``) override
    both.  A fully-resolved ``config`` object may also be passed directly.

    Examples
    --------
    >>> from repro.graphs.model import Graph
    >>> db = SegosIndex()
    >>> db.add("g1", Graph(["a", "b", "c"], [(0, 1), (1, 2)]))
    >>> db.add("g2", Graph(["a", "b", "d"], [(0, 1), (1, 2)]))
    >>> result = db.range_query(Graph(["a", "b", "c"], [(0, 1), (1, 2)]), tau=1)
    >>> sorted(result.candidates)
    ['g1', 'g2']
    """

    def __init__(
        self,
        graphs: Optional[Mapping[object, Graph]] = None,
        *,
        k: Optional[int] = None,
        h: Optional[int] = None,
        partial_fraction: Optional[float] = None,
        backend: str = "memory",
        sqlite_path: str = ":memory:",
        assignment_backend: Optional[str] = None,
        topk_backend: Optional[str] = None,
        batch_workers: Optional[int] = None,
        verify_workers: Optional[int] = None,
        verify_budget: Optional[int] = None,
        verify_deadline: Optional[float] = None,
        task_timeout: Optional[float] = None,
        fault_plan: Optional[str] = None,
        trace: Optional[bool] = None,
        trace_path: Optional[str] = None,
        metrics: Optional[bool] = None,
        index_path: Optional[str] = None,
        fsync_policy: Optional[str] = None,
        delta_compact: Optional[float] = None,
        filter_tiers: Optional[object] = None,
        config: Optional[EngineConfig] = None,
    ) -> None:
        base = config if config is not None else EngineConfig.from_env()
        self.config = base.override(
            k=k,
            h=h,
            partial_fraction=partial_fraction,
            assignment_backend=assignment_backend,
            topk_backend=topk_backend,
            batch_workers=batch_workers,
            verify_workers=verify_workers,
            verify_budget=verify_budget,
            verify_deadline=verify_deadline,
            task_timeout=task_timeout,
            fault_plan=fault_plan,
            trace=trace,
            trace_path=trace_path,
            metrics=metrics,
            index_path=index_path,
            fsync_policy=fsync_policy,
            delta_compact=delta_compact,
            filter_tiers=filter_tiers,
        )
        if backend == "memory":
            self.index = TwoLevelIndex()
        elif backend == "sqlite":
            # Section IV-C's relational-database option: both inverted
            # levels live in B-tree-backed SQLite tables.
            from .sqlite_index import SqliteTwoLevelIndex

            self.index = SqliteTwoLevelIndex(sqlite_path)
        else:
            raise ValueError(f"unknown backend {backend!r} (memory or sqlite)")
        self.backend = backend
        self._graphs: Dict[object, Graph] = {}
        # Persistence bookkeeping (see repro.core.persistence): the journal
        # records (op, gid) per mutation since the last save/load sync so
        # save_index can append a small delta segment instead of rewriting
        # the whole sidecar; _disk_source is the DiskHandle of the on-disk
        # index this engine was loaded from / last saved to, which pool
        # workers attach by while it is still valid.
        self._disk_source = None
        self._persist_journal: List = []
        self._journal_overflow = False
        # The embed tier's snapshot (see embeddings()) and the gids added,
        # removed or updated since it was taken.
        self._embeddings = None
        self._graph_changes = ChangeSet(self.index.generation)
        if graphs:
            for gid, graph in graphs.items():
                self.add(gid, graph)

    # ------------------------------------------------------------------
    # Resolved-knob accessors (read-only views over the frozen config)
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        return self.config.k

    @property
    def h(self) -> int:
        return self.config.h

    @property
    def partial_fraction(self) -> float:
        return self.config.partial_fraction

    @property
    def assignment_backend(self) -> Optional[str]:
        return self.config.assignment_backend

    @property
    def topk_backend(self) -> Optional[str]:
        return self.config.topk_backend

    @property
    def filter_tiers(self) -> tuple:
        return self.config.filter_tiers

    # ------------------------------------------------------------------
    # Database accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._graphs)

    def __contains__(self, gid: object) -> bool:
        return gid in self._graphs

    def gids(self) -> Iterable[object]:
        return self._graphs.keys()

    def graph(self, gid: object) -> Graph:
        """Return the indexed graph for *gid* (the live object; do not
        mutate it directly — use the update methods so the index follows)."""
        try:
            return self._graphs[gid]
        except KeyError:
            raise GraphNotIndexed(gid) from None

    # ------------------------------------------------------------------
    # Update kinds 1–2: whole graphs
    # ------------------------------------------------------------------
    def add(self, gid: object, graph: Graph) -> None:
        """Insert a graph (decompose into stars, update both levels)."""
        if gid in self._graphs:
            raise GraphAlreadyIndexed(gid)
        if graph.order == 0:
            raise ValueError("cannot index an empty graph")
        if self.backend == "sqlite" and not isinstance(gid, str):
            raise TypeError(
                f"the sqlite backend stores gids as TEXT; got {type(gid).__name__} "
                f"(use string ids)"
            )
        stored = graph.copy()
        self._record_change(gid)
        self.index.add_graph(gid, stored, decompose(stored))
        self._graphs[gid] = stored
        self._record_persist_op("add", gid)

    def remove(self, gid: object) -> None:
        """Delete a graph from the index."""
        self._record_change(gid)
        self.index.remove_graph(gid)
        del self._graphs[gid]
        self._record_persist_op("remove", gid)

    def _record_change(self, gid: object) -> None:
        """Note *gid* for the next :meth:`embeddings` patch.

        Mutators call this before they touch the index or the graph, so a
        mutation that fails half way still has its graph re-embedded.  The
        record never names more ids than the engine holds graphs: when it
        reaches that size it is swapped for one that matches no snapshot,
        and the next :meth:`embeddings` builds afresh.
        """
        ids = self._graph_changes.ids
        ids.add(gid)
        if len(ids) >= len(self._graphs):
            self._graph_changes = ChangeSet(-1)

    # ------------------------------------------------------------------
    # Update kinds 3–7: in-place mutations (Section IV-C)
    # ------------------------------------------------------------------
    def _affected_stars(self, graph: Graph, vertices: Iterable[int]) -> List[Star]:
        return [star_at(graph, v) for v in vertices if graph.has_vertex(v)]

    def _apply_mutation(self, gid: object, touched: Sequence[int], mutate) -> None:
        """Swap the stars of *touched* vertices around a mutation callback."""
        graph = self.graph(gid)
        self._record_change(gid)
        before = self._affected_stars(graph, touched)
        mutate(graph)
        after = self._affected_stars(graph, touched)
        self.index.apply_star_delta(
            gid, before, after, GraphMeta(graph.order, graph.max_degree())
        )
        self._record_persist_op("update", gid)

    def add_edge(self, gid: object, u: int, v: int) -> None:
        """Insert an edge: refreshes the two endpoint stars."""
        self._apply_mutation(gid, (u, v), lambda g: g.add_edge(u, v))

    def remove_edge(self, gid: object, u: int, v: int) -> None:
        """Delete an edge: refreshes the two endpoint stars."""
        self._apply_mutation(gid, (u, v), lambda g: g.remove_edge(u, v))

    def add_vertex(self, gid: object, vertex: int, label: str) -> None:
        """Insert an isolated vertex: adds exactly one star."""
        self._apply_mutation(gid, (vertex,), lambda g: g.add_vertex(vertex, label))

    def remove_vertex(self, gid: object, vertex: int) -> None:
        """Delete a vertex (and incident edges): refreshes it + neighbours."""
        graph = self.graph(gid)
        touched = [vertex, *graph.neighbors(vertex)]
        self._apply_mutation(gid, touched, lambda g: g.remove_vertex(vertex))

    def relabel_vertex(self, gid: object, vertex: int, label: str) -> None:
        """Relabel a vertex: refreshes its star and all neighbour stars."""
        graph = self.graph(gid)
        touched = [vertex, *graph.neighbors(vertex)]
        self._apply_mutation(gid, touched, lambda g: g.relabel_vertex(vertex, label))

    # ------------------------------------------------------------------
    # Queries — thin front-ends over the staged executor
    # ------------------------------------------------------------------
    def session(self, **overrides) -> QuerySession:
        """Open a :class:`~repro.core.plan.QuerySession` on this engine.

        Related queries issued through one session share their TA top-k
        searches (the Figure-11 stream optimisation); ``overrides`` are
        :class:`~repro.config.EngineConfig` fields pinned for the whole
        session.  This is the public API joins, kNN rings and batches build
        on.
        """
        return QuerySession(self, config=self.config.override(**overrides))

    def embeddings(self, stats: Optional[QueryStats] = None):
        """The per-graph embedding vectors of the ``embed`` filter tier.

        Cached on the engine and keyed by the index generation counter.
        After mutations the cached snapshot is patched: only the gids
        added, removed or updated since it was taken are re-embedded
        (:meth:`~repro.perf.columnar.GraphEmbeddings.patched`).  Mapped
        engines start from the ``.segosx`` embedding sections, zero-copy,
        and patch those too, so a reopen that replays a delta re-embeds
        only the replayed graphs.  A stale sidecar written before those
        sections existed degrades **loudly** — a
        :class:`~repro.resilience.telemetry.DegradationEvent` lands in
        *stats* — to a build from the graph store.
        """
        from ..perf.columnar import GraphEmbeddings

        generation = self.index.generation
        # Record first, snapshot second (see columnar_snapshot).
        changes = self._graph_changes
        cached = self._embeddings
        if cached is None:
            cached = self._sidecar_embeddings(stats)
        if cached is not None and cached.generation == generation:
            self._embeddings = cached
            return cached
        if cached is not None and cached.generation == changes.base:
            embeddings = cached.patched(self._graphs, changes.ids, generation)
        else:
            embeddings = GraphEmbeddings.build(
                list(self._graphs.items()), generation
            )
        self._embeddings = embeddings
        self._graph_changes = ChangeSet(generation)
        return embeddings

    def _sidecar_embeddings(self, stats: Optional[QueryStats]):
        """The mapped sidecar's embeddings at its base generation, if any."""
        disk = getattr(self.index, "_disk", None)
        if disk is None:
            return None
        if disk.has_embeddings():
            return disk.embeddings(disk.header.base_generation)
        if stats is not None:
            from ..resilience.telemetry import DegradationEvent

            stats.degradations.append(
                DegradationEvent(
                    point="embeddings.sidecar",
                    stage="embed",
                    cause="sidecar predates embedding sections",
                    fallback="recompute",
                )
            )
        return None

    def top_k_sub_units(self, star: Star, k: Optional[int] = None) -> TopKResult:
        """TA stage on its own: the k most SED-similar database stars."""
        return top_k_stars(
            self.index, star, k or self.config.k, backend=self.config.topk_backend
        )

    def range_query(
        self,
        query: Graph,
        *,
        tau: float,
        k: Optional[int] = None,
        h: Optional[int] = None,
        verify: str = "none",
        partial_fraction: Optional[float] = None,
        verify_workers: Optional[int] = None,
        verify_budget: Optional[int] = None,
        verify_deadline: Optional[float] = None,
        filter_tiers: Optional[object] = None,
        trace: Optional[bool] = None,
    ) -> QueryResult:
        """Answer ``{g : λ(query, g) ≤ tau}`` with filter(-and-verify).

        Everything but the query graph is keyword-only.  ``verify``:

        * ``"none"`` — return candidates + upper-bound-confirmed matches;
        * ``"exact"`` — additionally run A* GED on unconfirmed candidates so
          ``matches`` is the exact answer set.

        Exact verification is scheduled through
        :func:`repro.core.verify.verify_candidates`: most-promising
        candidates first, optionally fanned out over ``verify_workers``
        processes.  ``verify_budget`` caps each A* run's expanded states
        and ``verify_deadline`` (seconds) stops scheduling new runs;
        candidates left undecided by either stay in ``candidates`` but not
        ``matches``, and ``verified`` turns False.  ``trace=True`` records
        a span tree for this call (``result.trace``).  Every keyword is a
        per-call :class:`~repro.config.EngineConfig` override.
        """
        return self.session().range_query(
            query,
            tau=tau,
            verify=verify,
            k=k,
            h=h,
            partial_fraction=partial_fraction,
            verify_workers=verify_workers,
            verify_budget=verify_budget,
            verify_deadline=verify_deadline,
            filter_tiers=filter_tiers,
            trace=trace,
        )

    def batch_range_query(
        self,
        queries: Sequence[Graph],
        *,
        tau: float,
        k: Optional[int] = None,
        h: Optional[int] = None,
        verify: str = "none",
        workers: Optional[int] = None,
        verify_workers: Optional[int] = None,
        trace: Optional[bool] = None,
    ) -> List[QueryResult]:
        """Answer a batch of range queries with a shared TA cache.

        Figure 11 feeds query *streams* through the pipeline; the top-k
        sub-unit results depend only on the star (not on the query graph),
        so queries in a batch reuse each other's TA searches.  On workloads
        with overlapping star vocabularies this removes most TA work after
        the first few queries.

        ``workers`` (default: the engine's resolved ``batch_workers`` knob)
        above 1 fans query chunks out over the supervised worker pool
        (:func:`repro.perf.parallel.fan_out`), whose workers attach this
        engine's on-disk index by :meth:`disk_handle`.  An engine with no
        current handle (built in memory, the sqlite backend, mutated since
        its last save) runs serially with identical answers; broken pools
        are re-spawned with completed chunks salvaged.  Every degradation
        is recorded in the first result's ``stats.degradations`` — loud,
        not silent.  ``verify_workers`` parallelises exact verification
        *within* each query; when the batch itself runs in worker
        processes the per-query verification stays serial (one pool, not
        pools of pools).

        On traced runs (``trace=True``, the engine's ``trace`` knob, or an
        ambient :func:`~repro.obs.trace.trace_query`) the whole batch —
        including worker-process spans shipped home by the pool — lands in
        one span tree, shared by every result's ``trace`` handle.
        """
        return self._batch(
            queries,
            _engine_chunk,
            {"tau": tau, "k": k, "h": h, "verify": verify},
            workers=workers,
            verify_workers=verify_workers,
            trace=trace,
        )

    def _batch(
        self,
        queries: Sequence[Graph],
        chunk_task,
        options: Dict[str, object],
        *,
        workers: Optional[int],
        verify_workers: Optional[int],
        trace: Optional[bool],
    ) -> List[QueryResult]:
        """The batch body shared with :class:`~repro.core.pipeline.PipelinedSegos`.

        ``chunk_task(engine, options, queries)`` is a module-level function
        answering one chunk serially; it runs in-process for a serial batch
        and for salvaged chunks, and in the pool's workers otherwise.
        """
        if options["verify"] not in ("none", "exact"):
            raise ValueError(f"unknown verify mode {options['verify']!r}")
        config = self.config.override(batch_workers=workers, trace=trace)
        # Worker counts *defaulted* from the environment or engine config
        # are capped by the machine (serial on a 1-core box — pool dispatch
        # with zero parallelism is pure loss); an explicit per-call
        # ``workers=`` is honoured verbatim.
        pool_workers = config.batch_workers
        if workers is None:
            pool_workers = effective_workers(pool_workers)
        with traced_scope(
            config, "batch", queries=len(queries), tau=options["tau"]
        ) as tracer:
            outcome = None
            if pool_workers > 1 and len(queries) > 1:
                # verify_workers pinned to 1: the batch already owns the
                # process fan-out, so chunks never nest a verify pool.
                options = dict(options, verify_workers=1)
                chunks = chunk_evenly(queries, pool_workers)
                outcome = fan_out(
                    self.disk_handle(),
                    chunk_task,
                    options,
                    chunks,
                    stage="batch",
                    workers=pool_workers,
                    task_timeout=config.task_timeout,
                    faults=FaultPlan.parse(config.fault_plan),
                    tracer=tracer,
                )
            if outcome is None or outcome.workers_used == 0:
                # No pool ran: the whole batch is one serial chunk.
                options = dict(options, verify_workers=verify_workers)
                results = chunk_task(self, options, queries)
            else:
                results = []
                for index, chunk in enumerate(chunks):
                    if index in outcome.results:
                        chunk_results = outcome.results[index]
                        if config.metrics:
                            # Worker-process registries die with the
                            # worker; fold their stats into ours here.
                            for result in chunk_results:
                                record_query_metrics(
                                    GLOBAL_METRICS, result.stats, result.elapsed
                                )
                    elif tracer.enabled:
                        # Per-chunk salvage: only the unfinished remainder
                        # runs serially; completed chunks are reused.
                        with tracer.span(
                            "salvage.chunk", chunk=index, queries=len(chunk)
                        ):
                            chunk_results = chunk_task(self, options, chunk)
                    else:
                        chunk_results = chunk_task(self, options, chunk)
                    results.extend(chunk_results)
            if outcome is not None and outcome.events and results:
                results[0].stats.degradations.extend(outcome.events)
        if tracer.enabled:
            shared = Trace(tracer.snapshot(), tracer.trace_id)
            for result in results:
                result.trace = shared
        return results

    def _serial_batch_range_query(
        self,
        queries: Sequence[Graph],
        tau: float,
        *,
        k: Optional[int] = None,
        h: Optional[int] = None,
        verify: str = "none",
        verify_workers: Optional[int] = None,
    ) -> List[QueryResult]:
        """In-process batch execution (also the per-chunk pool task).

        One :class:`~repro.core.plan.QuerySession` serves the whole batch,
        so the TA cache is shared across queries.
        """
        if verify not in ("none", "exact"):
            raise ValueError(f"unknown verify mode {verify!r}")
        session = self.session(k=k, h=h, verify_workers=verify_workers)
        return [
            session.range_query(query, tau=tau, verify=verify) for query in queries
        ]

    # ------------------------------------------------------------------
    # Persistence bookkeeping (driven by repro.core.persistence)
    # ------------------------------------------------------------------
    #: Journal entries kept before giving up on delta tracking.  A save
    #: after overflow simply rewrites the sidecar in full, so the cap only
    #: bounds memory for engines that mutate forever without saving.
    _JOURNAL_CAP = 100_000

    def _record_persist_op(self, op: str, gid: object) -> None:
        if self._journal_overflow:
            return
        self._persist_journal.append((op, gid))
        if len(self._persist_journal) > self._JOURNAL_CAP:
            self._persist_journal.clear()
            self._journal_overflow = True

    def disk_handle(self):
        """The on-disk index handle, if one exists and is still current.

        Returns the :class:`~repro.perf.diskcat.DiskHandle` recorded at the
        last ``load_index``/``save_index`` sync **only while the engine has
        not mutated since** (the index generation still equals the handle's
        ``local_generation``).  Pool workers attach the engine by this
        tiny ``(path, generation)`` ticket; ``None`` means "no valid disk
        twin" and the pool stages run serially.
        """
        handle = self._disk_source
        if handle is None:
            return None
        if self.index.generation != handle.local_generation:
            return None
        return handle

    def _sync_disk_source(self, handle) -> None:
        """Record that disk and memory agree as of now (journal resets)."""
        self._disk_source = handle
        self._persist_journal = []
        self._journal_overflow = False

    def _attach_mapped_storage(self, index, graphs, handle) -> None:
        """Swap in mmap-backed index + graph store (load_index fast path)."""
        self.index = index
        self._graphs = graphs
        self._embeddings = None
        self._graph_changes = ChangeSet(index.generation)
        self._sync_disk_source(handle)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def index_size(self) -> int:
        """Total postings across both index levels (Figure 13's metric)."""
        return self.index.size_estimate()

    def distinct_star_count(self) -> int:
        """Number of distinct sub-units currently indexed."""
        return len(self.index.catalog)

    def check_consistency(self) -> None:
        """Validate internal index invariants (raises on corruption)."""
        self.index.check_consistency()
        for gid, graph in self._graphs.items():
            from collections import Counter

            expect = Counter(
                self.index.catalog.sid(star) for star in decompose(graph)
            )
            if None in expect:
                raise AssertionError(f"graph {gid!r} has an uncatalogued star")
            if expect != self.index.graph_star_counts(gid):
                raise AssertionError(f"star multiset mismatch for graph {gid!r}")


def _engine_chunk(
    engine: SegosIndex, options: Dict[str, object], queries: Sequence[Graph]
) -> List[QueryResult]:
    """One batch chunk on *engine* (pool task, serial batch and salvage)."""
    return engine._serial_batch_range_query(queries, **options)
