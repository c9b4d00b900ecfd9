"""Process-parallel batch range queries (supervised worker pool).

The batch API of :meth:`repro.core.engine.SegosIndex.batch_range_query` is
embarrassingly parallel across queries: each range query only reads the
index.  CPython's GIL rules out thread-level speed-ups for this pure-Python
CPU-bound work, so the parallel path ships the engine to worker *processes*
once (via an executor initializer) and fans contiguous query chunks out to
them, preserving input order in the results.

Robustness contract (all supervised by :mod:`repro.resilience.pool`):

* engines that cannot be pickled (e.g. the sqlite backend holds a live
  connection) are detected up front and the caller falls back to the
  serial path — same answers, with the cause recorded as a
  :class:`~repro.resilience.telemetry.DegradationEvent` instead of being
  swallowed (a non-pickling-related error from a genuine bug propagates);
* a broken pool (worker killed, fork unavailable) is killed and
  re-spawned with bounded exponential-backoff retries; completed chunk
  results are **salvaged** — only the failed remainder is re-queued, or
  run serially in-process once the circuit breaker opens;
* hung workers are bounded by ``task_timeout`` (the worker is terminated,
  the task retried);
* genuine query errors (empty query graph, negative τ) propagate exactly
  as they would serially;
* every degradation is observable in ``QueryStats.degradations``.

Each chunk runs the engine's serial batch internally, so the shared-TA-cache
optimisation still applies within a chunk; per-query :class:`QueryStats`
come back intact and can be folded with
:meth:`repro.core.stats.QueryStats.merged`.

Worker count precedence: explicit ``workers=`` argument, then the
``REPRO_BATCH_WORKERS`` environment variable, then serial.
"""

from __future__ import annotations

import os
import pickle
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..config import ENV_BATCH_WORKERS, EngineConfig, env_int
from ..errors import StaleSidecarError
from ..obs.metrics import GLOBAL_METRICS, record_query_metrics
from ..obs.trace import NULL_TRACER, activate
from ..resilience.faults import FaultPlan
from ..resilience.pool import PoolTask, ResiliencePolicy, run_supervised
from ..resilience.telemetry import DegradationEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from ..core.engine import QueryResult, SegosIndex
    from ..graphs.model import Graph

#: Environment variable supplying the default worker count (1 = serial).
#: Alias of :data:`repro.config.ENV_BATCH_WORKERS`.
ENV_WORKERS = ENV_BATCH_WORKERS

#: Exceptions that mean "this object cannot travel to a worker process".
#: Anything else raised while pickling is a genuine bug and propagates.
PICKLE_ERRORS = (pickle.PicklingError, TypeError, AttributeError, NotImplementedError)


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve the worker count from argument / environment / serial."""
    if workers is None:
        workers = env_int(ENV_WORKERS, 1)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return workers


def effective_workers(requested: int) -> int:
    """Cap a *defaulted* worker count by what the machine can parallelise.

    Process pools only pay off with real cores to run on: on a 1-core box
    every pool worker time-slices the same CPU and the dispatch overhead is
    pure loss, so a defaulted count falls through to serial there.  On
    multi-core machines the count is capped at ``cpu_count``.

    This gate applies only to worker counts *defaulted* from the
    environment or engine config — an explicit per-call ``workers=`` is
    honoured verbatim, so tests and operators can force a pool anywhere.
    """
    cpu = os.cpu_count() or 1
    if cpu <= 1:
        return 1
    return max(1, min(requested, cpu))


def chunk_evenly(items: Sequence[Any], parts: int) -> List[List[Any]]:
    """Split *items* into ≤ *parts* contiguous, near-equal, non-empty chunks."""
    parts = min(parts, len(items))
    if parts <= 0:
        return []
    base, extra = divmod(len(items), parts)
    chunks: List[List[Any]] = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        chunks.append(list(items[start : start + size]))
        start += size
    return chunks


# The engine travels to each worker exactly once, through the executor
# initializer, and is cached as a per-process global.
_WORKER_ENGINE: Optional["SegosIndex"] = None


def _init_worker(engine_blob: bytes) -> None:
    global _WORKER_ENGINE
    _WORKER_ENGINE = pickle.loads(engine_blob)


def _init_worker_disk(handle) -> None:
    """Attach the worker's engine from the on-disk index (zero pickling).

    The worker memory-maps the same sidecar the parent holds, sharing its
    pages, and proves it reconstructed the *same* state: the deterministic
    replay generation and the source hash must both match the handle.  Any
    mismatch (an out-of-band writer, a deleted sidecar forcing a rebuild)
    raises — the supervised pool turns that into a retry and ultimately a
    serial salvage in the parent, never a silent divergence.
    """
    global _WORKER_ENGINE
    from ..core.persistence import load_index  # lazy: core.engine imports us

    engine = load_index(handle.graph_path, index_path=handle.index_path, mmap=True)
    attached = engine.disk_handle()
    if (
        attached is None
        or attached.disk_generation != handle.disk_generation
        or attached.source_sha != handle.source_sha
    ):
        raise StaleSidecarError(
            "worker attached a different state than the parent engine",
            path=handle.index_path,
            expected_generation=handle.disk_generation,
            found_generation=None if attached is None else attached.disk_generation,
            expected_sha=handle.source_sha,
            found_sha=None if attached is None else attached.source_sha,
        )
    _WORKER_ENGINE = engine


def _run_chunk(
    queries: List["Graph"], tau: float, kwargs: Dict[str, Any]
) -> List["QueryResult"]:
    assert _WORKER_ENGINE is not None, "worker initializer did not run"
    return _WORKER_ENGINE._serial_batch_range_query(queries, tau, **kwargs)


def _engine_config(engine) -> EngineConfig:
    """The resolved config of a batch front-end (engine or pipeline)."""
    config = getattr(engine, "config", None)
    if config is None:
        config = engine.engine.config  # PipelinedSegos wraps an engine
    return config


def parallel_batch_range_query(
    engine: "SegosIndex",
    queries: Sequence["Graph"],
    tau: float,
    *,
    workers: int,
    k: Optional[int] = None,
    h: Optional[int] = None,
    verify: str = "none",
    tracer=None,
) -> Tuple[Optional[List["QueryResult"]], List[DegradationEvent]]:
    """Fan a batch of range queries out over *workers* processes.

    Returns ``(results, degradations)``.  ``results`` is in input order;
    chunks the supervised pool could not finish (circuit breaker open) are
    salvaged by running only that remainder serially in-process.
    ``results`` is ``None`` only when process-parallel execution was
    impossible from the start (unpicklable engine) and the caller should
    run the whole batch serially — the cause is in ``degradations`` either
    way, for the caller to attach to its stats.

    An enabled *tracer* flows into the supervised pool (worker-side spans
    stitch into the caller's tree) and wraps salvage re-runs, and each
    worker-computed chunk's stats are folded into the parent's metrics
    registry — worker-process registries are discarded with the process.
    """
    config = _engine_config(engine)
    faults = FaultPlan.parse(config.fault_plan)
    policy = ResiliencePolicy.from_config(config)
    tracer = tracer if tracer is not None else NULL_TRACER
    events: List[DegradationEvent] = []

    def _note_event(event: DegradationEvent) -> None:
        if tracer.enabled:
            event.span_id = tracer.event(
                f"degradation:{event.point}",
                stage=event.stage,
                cause=event.cause,
                injected=event.injected,
                fallback=event.fallback,
            )
        events.append(event)

    # Transport selection: an engine whose on-disk index twin is still
    # current ships workers a tiny (path, generation) handle — they attach
    # the mapped sidecar and share its pages.  Everything else (engines
    # built in memory, mutated since the last save, non-string gids) takes
    # the legacy pickle-the-engine road.
    handle = None
    disk_handle = getattr(engine, "disk_handle", None)
    if disk_handle is not None:
        handle = disk_handle()
    if handle is not None:
        transport = "disk"
        initializer = _init_worker_disk
        initargs: Tuple[Any, ...] = (handle,)
    else:
        injected = faults.fire("pickle.engine", stage="batch")
        if injected is not None:
            _note_event(
                DegradationEvent(
                    point="pickle.engine",
                    stage="batch",
                    cause="injected fault: pickle.engine",
                    injected=True,
                    lost=len(queries),
                    fallback="serial",
                )
            )
            return None, events
        try:
            engine_blob = pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)
        except PICKLE_ERRORS as exc:  # e.g. sqlite backend: connections don't pickle
            _note_event(
                DegradationEvent(
                    point="pickle.engine",
                    stage="batch",
                    cause=repr(exc),
                    lost=len(queries),
                    fallback="serial",
                )
            )
            return None, events
        transport = "pickle"
        initializer = _init_worker
        initargs = (engine_blob,)

    chunks = chunk_evenly(queries, workers)
    # verify_workers pinned to 1: the batch already owns the process fan-out,
    # and the verify-worker knob is inherited by workers — without the pin
    # each chunk would nest a second pool per query.
    kwargs = {"k": k, "h": h, "verify": verify, "verify_workers": 1}
    tasks = [
        PoolTask(index, _run_chunk, (chunk, tau, kwargs))
        for index, chunk in enumerate(chunks)
    ]
    outcome = run_supervised(
        tasks,
        workers=len(chunks),
        policy=policy,
        initializer=initializer,
        initargs=initargs,
        faults=faults,
        stage="batch",
        tracer=tracer,
        transport=transport,
    )
    events.extend(outcome.events)

    results: List["QueryResult"] = []
    for index, chunk in enumerate(chunks):
        if index in outcome.results:
            chunk_results = outcome.results[index]
            if config.metrics:
                # Worker-process registries die with the worker; fold the
                # finished per-query stats into the parent's registry here.
                for result in chunk_results:
                    record_query_metrics(
                        GLOBAL_METRICS, result.stats, result.elapsed
                    )
            results.extend(chunk_results)
        elif tracer.enabled:
            # Per-chunk salvage: only the unfinished remainder runs
            # serially; every completed chunk's results are reused.
            with activate(tracer):
                with tracer.span("salvage.chunk", chunk=index, queries=len(chunk)):
                    results.extend(
                        engine._serial_batch_range_query(chunk, tau, **kwargs)
                    )
        else:
            results.extend(engine._serial_batch_range_query(chunk, tau, **kwargs))
    return results, events

