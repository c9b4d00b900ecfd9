"""The staged query executor: one TA → CA → verify path for every query mode.

The paper's pipeline is a single conceptual dataflow — top-k sub-unit
search (Algorithm 2) → CA graph pruning (Algorithm 3) → exact verification
— but it used to be executed through five divergent code paths (plain
range queries, batches, the pipelined scheduler, kNN rings and similarity
joins), each hand-threading its own counters, wall clocks and cache
snapshots.  This module makes the dataflow explicit:

* a :class:`Stage` is a composable unit with a uniform
  ``run(ctx) -> ctx`` contract (:class:`TAStage`, :class:`CAStage`,
  :class:`VerifyStage`, and the pipelined fused stage in
  :mod:`repro.core.pipeline`);
* a :class:`QueryPlan` is an ordered tuple of stages;
* :func:`execute_plan` runs a plan over an :class:`ExecutionContext`,
  capturing per-stage wall clock into ``QueryStats.stage_seconds``
  automatically — no stage does its own timing;
* a :class:`QuerySession` owns the state *shared across related queries*
  (the top-k sub-unit cache plus a resolved :class:`EngineConfig`) and is
  the public API batches, joins and kNN rings build on.

Every front-end — ``SegosIndex.range_query``, ``batch_range_query``,
``PipelinedSegos``, ``knn_query``, ``similarity_join``,
``SubgraphSearch`` — builds a plan and hands it to this one executor.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from ..config import EngineConfig
from ..graphs.model import Graph
from ..graphs.star import Star, StarKey, decompose
from ..obs.metrics import GLOBAL_METRICS, record_query_metrics
from ..obs.trace import NULL_TRACER, Trace, Tracer, activate, current_tracer
from .ca_search import ca_range_query
from .graph_lists import QueryStarLists, build_all_lists
from .stats import QueryStats, WallClock
from .ta_search import TopKResult
from .tiers import anchor_bounds, resolve_tier_chain
from .verify import verify_candidates

if TYPE_CHECKING:  # pragma: no cover - typing only (engine imports us)
    from .engine import SegosIndex


@dataclass
class QueryResult:
    """Everything a range query produces.

    Attributes
    ----------
    candidates:
        gids passing every filter; superset of the true answers.
    matches:
        gids *known* to satisfy ``λ(q, g) ≤ τ`` (upper-bound confirmed,
        plus exact verification when requested).
    stats:
        filtering counters (see :class:`repro.core.stats.QueryStats`),
        including the executor's per-stage ``stage_seconds``.
    elapsed:
        wall-clock seconds spent inside the executor.
    verified:
        True when ``matches`` is exactly the answer set.
    trace:
        span-tree handle for traced executions (see
        :mod:`repro.obs.trace`); ``None`` when tracing was off.
    """

    candidates: List[object]
    matches: Set[object]
    stats: QueryStats
    elapsed: float
    verified: bool
    trace: Optional[Trace] = None


@dataclass
class ExecutionContext:
    """Mutable state threaded through the stages of one query execution.

    Stages read their knobs exclusively from ``config`` (already resolved:
    env < engine < per-call) and communicate through the fields below —
    ``lists`` flows TA → CA, ``candidates``/``confirmed`` flow CA → verify.
    """

    engine: "SegosIndex"
    query: Graph
    tau: float
    config: EngineConfig
    verify: str = "none"
    #: metrics label for this execution's mode (range / subsearch / ...)
    mode: str = "range"
    #: the tracer carried through every stage (NULL_TRACER when off)
    tracer: object = NULL_TRACER
    #: True when this context created its tracer (and so owns exporting
    #: to ``config.trace_path``); False under an ambient ``trace_query``
    #: or a worker-side tracer, whose owner exports instead
    owns_tracer: bool = False
    #: span-tree handle filled in by the executor on traced runs
    trace: Optional[Trace] = None
    #: star key → TopKResult, shared across queries via a QuerySession
    topk_cache: Dict[StarKey, TopKResult] = field(default_factory=dict)
    stats: QueryStats = field(default_factory=QueryStats)
    # --- stage outputs -------------------------------------------------
    query_stars: List[Star] = field(default_factory=list)
    #: gids proven non-answers by the embedding pre-filter tier; the CA
    #: scan (serial and pipelined alike) never accumulates state for them
    embed_excluded: frozenset = frozenset()
    lists: List[QueryStarLists] = field(default_factory=list)
    candidates: List[object] = field(default_factory=list)
    confirmed: Set[object] = field(default_factory=set)
    matches: Set[object] = field(default_factory=set)
    verified: bool = False
    elapsed: float = 0.0

    def to_result(self) -> QueryResult:
        """Package the context's outcome as the public result object."""
        return QueryResult(
            candidates=self.candidates,
            matches=self.matches,
            stats=self.stats,
            elapsed=self.elapsed,
            verified=self.verified,
            trace=self.trace,
        )


def resolve_tracer(config: EngineConfig) -> Tuple[object, bool]:
    """The tracer an execution should carry, and whether it owns it.

    Precedence: an ambient tracer (``with trace_query():`` around the
    call, or the worker-side tracer installed by the supervised pool)
    joins the existing trace; otherwise ``config.trace`` starts a fresh
    one; otherwise the shared null tracer rides along for free.
    """
    ambient = current_tracer()
    if ambient is not None:
        return ambient, False
    if config.trace:
        return Tracer(), True
    return NULL_TRACER, False


@contextmanager
def traced_scope(config: EngineConfig, name: str, **attrs) -> Iterator[object]:
    """One trace around a multi-query operation (batch, join, kNN rings).

    Resolves a tracer exactly like a single execution would, installs it
    as ambient (so every nested :func:`execute_plan` joins it instead of
    starting its own), opens one *name* span over the whole block, and —
    for owned tracers — appends the finished spans to ``config.trace_path``
    on exit.  With tracing off this yields :data:`NULL_TRACER` at the cost
    of one function call.
    """
    tracer, owns_tracer = resolve_tracer(config)
    if not tracer.enabled:
        yield tracer
        return
    with activate(tracer):
        with tracer.span(name, **attrs):
            yield tracer
    if owns_tracer and config.trace_path:
        from ..obs.export import write_spans_jsonl

        write_spans_jsonl(tracer.drain_unexported(), config.trace_path)


def make_context(
    engine: "SegosIndex",
    query: Graph,
    tau: float,
    *,
    config: EngineConfig,
    verify: str = "none",
    mode: str = "range",
    topk_cache: Optional[Dict[StarKey, TopKResult]] = None,
) -> ExecutionContext:
    """Validate the public query arguments and assemble a fresh context."""
    if query.order == 0:
        raise ValueError("query graph must not be empty")
    if tau < 0:
        raise ValueError("tau must be non-negative")
    if verify not in ("none", "exact"):
        raise ValueError(f"unknown verify mode {verify!r}")
    tracer, owns_tracer = resolve_tracer(config)
    return ExecutionContext(
        engine=engine,
        query=query,
        tau=tau,
        config=config,
        verify=verify,
        mode=mode,
        tracer=tracer,
        owns_tracer=owns_tracer,
        topk_cache=topk_cache if topk_cache is not None else {},
    )


class Stage:
    """One composable step of a query plan.

    Subclasses set ``name`` (the key under which the executor records the
    stage's wall clock in ``QueryStats.stage_seconds``) and implement
    :meth:`run`, mutating and returning the context.
    """

    name = "stage"

    def run(self, ctx: ExecutionContext) -> ExecutionContext:
        raise NotImplementedError


class TAStage(Stage):
    """Top-k sub-unit search (Algorithm 2) + graph score-list construction.

    Decomposes the query into stars and builds, per star occurrence, the
    two size-side graph lists — memoising top-k searches by star key in
    the context's (possibly session-shared) cache.
    """

    name = "ta"

    def run(self, ctx: ExecutionContext) -> ExecutionContext:
        ctx.query_stars = decompose(ctx.query)
        ta_results: List[TopKResult] = []
        ctx.lists = build_all_lists(
            ctx.engine.index,
            ctx.query_stars,
            ctx.query.order,
            ctx.config.k,
            topk_cache=ctx.topk_cache,
            ta_results=ta_results,
            backend=ctx.config.topk_backend,
        )
        ctx.stats.ta_searches = len(ta_results)
        ctx.stats.ta_accesses = sum(r.accesses for r in ta_results)
        for result in ta_results:
            ctx.stats.count_topk_backend(result.backend, result.scan_width)
        return ctx


class EmbedStage(Stage):
    """The embedding pre-filter tier: one vectorized sweep before TA.

    Scores the admissible label/degree bound of every database graph
    against the query (:meth:`repro.perf.columnar.GraphEmbeddings.lower_bounds`)
    and marks graphs whose bound already exceeds τ·1 — provable
    non-answers, since the bound never exceeds the exact GED — as
    excluded.  The CA scan then skips their state entirely while walking
    the same cursor/checkpoint cadence, so every surviving graph sees the
    exact same bound evaluations as an unfiltered run.
    """

    name = "embed"

    def run(self, ctx: ExecutionContext) -> ExecutionContext:
        embeddings = ctx.engine.embeddings(stats=ctx.stats)
        bounds = embeddings.lower_bounds(ctx.query)
        if not embeddings.n_graphs:
            ctx.embed_excluded = frozenset()
            return ctx
        gids, tau = embeddings.gids, ctx.tau
        excluded = [gids[i] for i in (bounds > tau).nonzero()[0].tolist()]
        ctx.stats.fold_tier_bounds(
            "embed", embeddings.n_graphs, float(bounds.sum()), float(bounds.max())
        )
        if excluded:
            ctx.stats.count_prune("embed", len(excluded))
        ctx.embed_excluded = frozenset(excluded)
        return ctx


class AnchorStage(Stage):
    """The anchored assignment tier between CA and exact verification.

    One linear-assignment solve per unconfirmed candidate yields a lower
    bound (prunes candidates the aggregation bounds let through) *and*
    anchors a vertex mapping whose edit cost is an upper bound (settles
    candidates as matches without paying for an A* run —
    ``stats.anchor_settled`` counts those).
    """

    name = "anchor"

    def run(self, ctx: ExecutionContext) -> ExecutionContext:
        if not ctx.candidates:
            return ctx
        backend = ctx.config.assignment_backend
        survivors: List[object] = []
        for gid in ctx.candidates:
            if gid in ctx.confirmed:
                survivors.append(gid)
                continue
            lower, upper = anchor_bounds(
                ctx.query, ctx.engine._graphs[gid], backend=backend
            )
            ctx.stats.record_tier_bound("anchor", float(lower))
            if lower > ctx.tau:
                ctx.stats.count_prune("anchor")
                continue
            survivors.append(gid)
            if upper <= ctx.tau:
                ctx.confirmed.add(gid)
                ctx.matches.add(gid)
                ctx.stats.anchor_settled += 1
        ctx.candidates = survivors
        ctx.stats.candidates = len(survivors)
        ctx.stats.confirmed_matches = len(ctx.confirmed)
        return ctx


class CAStage(Stage):
    """CA round-robin scan + DC bound chain (Algorithm 3, Sections V-C/D)."""

    name = "ca"

    def __init__(self, disabled_bounds: frozenset = frozenset()) -> None:
        self.disabled_bounds = disabled_bounds

    def run(self, ctx: ExecutionContext) -> ExecutionContext:
        result = ca_range_query(
            ctx.engine.index,
            ctx.engine._graphs,
            ctx.query,
            ctx.tau,
            ctx.lists,
            h=ctx.config.h,
            partial_fraction=ctx.config.partial_fraction,
            stats=ctx.stats,
            disabled_bounds=self.disabled_bounds,
            assignment_backend=ctx.config.assignment_backend,
            excluded=ctx.embed_excluded,
        )
        ctx.candidates = result.candidates
        ctx.confirmed = set(result.confirmed)
        ctx.matches = set(result.confirmed)
        return ctx


class VerifyStage(Stage):
    """Exact verification via the scheduled verifier (bounds first, budgeted
    A* in ascending-``L_m`` order, optional process fan-out and deadline).

    A no-op when the context asks for ``verify="none"`` — the stage is part
    of every plan so the two modes share one code path, and its recorded
    wall clock is ~0 in filter-only runs.
    """

    name = "verify"

    def run(self, ctx: ExecutionContext) -> ExecutionContext:
        if ctx.verify != "exact":
            ctx.verified = False
            return ctx
        report = verify_candidates(
            ctx.engine._graphs,
            ctx.query,
            ctx.candidates,
            int(ctx.tau),
            already_confirmed=ctx.matches,
            budget_per_candidate=ctx.config.verify_budget,
            deadline=ctx.config.verify_deadline,
            workers=ctx.config.verify_workers,
            assignment_backend=ctx.config.assignment_backend,
            task_timeout=ctx.config.task_timeout,
            fault_plan=ctx.config.fault_plan,
            tracer=ctx.tracer,
            # Pool workers attach the engine's on-disk index by this handle;
            # without one (in memory, mutated since the last save, or a
            # duck-typed stand-in) the A* runs stay serial.
            disk_handle=getattr(ctx.engine, "disk_handle", lambda: None)(),
        )
        ctx.matches = set(report.matches)
        ctx.stats.settled_by_bounds = report.settled_by_bounds
        ctx.stats.astar_runs = report.astar_runs
        ctx.stats.astar_expansions = report.astar_expansions
        ctx.stats.degradations.extend(report.degradations)
        ctx.verified = report.decided()
        return ctx


@dataclass(frozen=True)
class QueryPlan:
    """An ordered, immutable sequence of stages plus a human-readable label."""

    stages: Tuple[Stage, ...]
    description: str = ""

    @classmethod
    def from_tiers(
        cls,
        config: EngineConfig,
        *,
        disabled_bounds: frozenset = frozenset(),
    ) -> "QueryPlan":
        """The serial plan for ``config.filter_tiers`` — one stage per tier.

        ``("ta", "ca", "verify")`` is the paper's chain; ``embed`` and
        ``anchor`` insert their stages in chain order.
        """
        tiers = resolve_tier_chain(config.filter_tiers)
        builders = {
            "embed": EmbedStage,
            "ta": TAStage,
            "ca": lambda: CAStage(disabled_bounds),
            "anchor": AnchorStage,
            "verify": VerifyStage,
        }
        return cls(
            stages=tuple(builders[name]() for name in tiers),
            description=" -> ".join(tiers),
        )


def execute_plan(plan: QueryPlan, ctx: ExecutionContext) -> ExecutionContext:
    """Run *plan*'s stages in order over *ctx* — the one executor.

    Uniform bookkeeping lives here and nowhere else: per-stage wall clock
    (``stats.stage_seconds``), total elapsed time — and, on traced runs,
    the ``query`` → stage span tree plus the JSONL export to
    ``config.trace_path`` (owned tracers only, so shared ambient traces
    are not exported piecemeal by every nested query).  Metrics recording
    happens *after* the stats stop changing, so traced and untraced runs
    report identical counters.
    """
    tracer = ctx.tracer
    clock = WallClock.start()
    with tracer.span(
        "query", plan=plan.description, tau=ctx.tau, verify=ctx.verify
    ):
        for stage in plan.stages:
            started = time.perf_counter()
            with tracer.span(stage.name):
                ctx = stage.run(ctx)
            seconds = time.perf_counter() - started
            ctx.stats.stage_seconds[stage.name] = (
                ctx.stats.stage_seconds.get(stage.name, 0.0) + seconds
            )
    ctx.elapsed = clock.elapsed()
    if tracer.enabled:
        ctx.trace = tracer.to_trace()
        if ctx.owns_tracer and ctx.config.trace_path:
            from ..obs.export import write_spans_jsonl

            write_spans_jsonl(tracer.drain_unexported(), ctx.config.trace_path)
    if ctx.config.metrics:
        record_query_metrics(
            GLOBAL_METRICS, ctx.stats, ctx.elapsed, mode=ctx.mode
        )
    return ctx


class QuerySession:
    """Shared execution state for a group of related queries.

    A session pins one resolved :class:`EngineConfig` and one top-k
    sub-unit cache, so successive queries reuse each other's TA searches —
    the optimisation behind batch queries (Figure 11's streams), similarity
    joins (stars repeat heavily inside one corpus) and kNN ring expansion
    (top-k results do not depend on τ).  Sessions are the *public* route to
    cache-sharing; no caller needs the engine's internals any more.

    Examples
    --------
    >>> from repro.graphs.model import Graph
    >>> engine_graphs = {"g": Graph(["a", "b"], [(0, 1)])}
    >>> from repro.core.engine import SegosIndex
    >>> session = SegosIndex(engine_graphs).session()
    >>> session.range_query(Graph(["a", "b"], [(0, 1)]), tau=0).candidates
    ['g']
    >>> session.range_query(Graph(["a", "b"], [(0, 1)]), tau=1).stats.ta_searches
    0
    """

    def __init__(
        self, engine: "SegosIndex", *, config: Optional[EngineConfig] = None
    ) -> None:
        self.engine = engine
        self.config = config if config is not None else engine.config
        self.topk_cache: Dict[StarKey, TopKResult] = {}

    def plan(
        self,
        *,
        disabled_bounds: frozenset = frozenset(),
        config: Optional[EngineConfig] = None,
    ) -> QueryPlan:
        """The plan this session would execute (introspection/extension)."""
        return QueryPlan.from_tiers(
            config if config is not None else self.config,
            disabled_bounds=disabled_bounds,
        )

    def context(
        self, query: Graph, tau: float, *, verify: str = "none", **overrides
    ) -> ExecutionContext:
        """Build a context bound to this session's cache and config."""
        return make_context(
            self.engine,
            query,
            tau,
            config=self.config.override(**overrides),
            verify=verify,
            topk_cache=self.topk_cache,
        )

    def execute(
        self, plan: QueryPlan, ctx: ExecutionContext
    ) -> ExecutionContext:
        """Run *plan* over *ctx* through the shared executor."""
        return execute_plan(plan, ctx)

    def range_query(
        self, query: Graph, *, tau: float, verify: str = "none", **overrides
    ) -> QueryResult:
        """One range query through the staged executor.

        Everything but the query graph is keyword-only.  ``overrides`` are
        per-call :class:`EngineConfig` fields (``k``, ``h``,
        ``partial_fraction``, ``verify_workers``, ``verify_budget``,
        ``verify_deadline``, ``trace``, ...) — the innermost layer of the
        precedence chain.
        """
        config = self.config.override(**overrides)
        ctx = self.context(query, tau, verify=verify, **overrides)
        return self.execute(self.plan(config=config), ctx).to_result()
