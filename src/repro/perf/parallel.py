"""Process fan-out over the on-disk index (the one supervised worker pool).

Two stages fan out over worker *processes* — CPython's GIL rules out
thread-level speed-ups for this pure-Python CPU-bound work: batch range
queries (contiguous query chunks, see
:meth:`repro.core.engine.SegosIndex.batch_range_query`) and exact
verification (one A* run per candidate, see
:func:`repro.core.verify.verify_candidates`).  Both go through
:func:`fan_out`, which ships no engine and no graphs: each worker attaches
the engine from its :class:`~repro.perf.diskcat.DiskHandle` by
memory-mapping the saved index, and proves it reconstructed the parent's
state.  Only the small per-call context (batch options, or the prepared
query with τ and budget) is pickled, once, and travels through the
executor initializer; each task then carries just its item.

Robustness contract (all supervised by :mod:`repro.resilience.pool`):

* an engine with no current handle — built in memory, the sqlite backend,
  or mutated since its last save/load — runs serially with the same
  answers, and the fallback is recorded as a
  :class:`~repro.resilience.telemetry.DegradationEvent`, never silent;
* a broken pool (worker killed, fork unavailable, stale sidecar) is
  killed after its one round; completed task results are **salvaged** and
  only the unfinished remainder is handed back to the caller to run
  in-process;
* hung workers are bounded by ``task_timeout``;
* every degradation is observable in ``QueryStats.degradations``.
"""

from __future__ import annotations

import os
import pickle
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence

from ..errors import StaleSidecarError
from ..obs.trace import NULL_TRACER
from ..resilience.faults import FaultPlan
from ..resilience.pool import PoolOutcome, PoolTask, run_supervised
from ..resilience.telemetry import DegradationEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from ..core.engine import SegosIndex
    from .diskcat import DiskHandle

#: Exceptions that mean "this context cannot travel to a worker process".
#: Anything else raised while pickling is a genuine bug and propagates.
PICKLE_ERRORS = (pickle.PicklingError, TypeError, AttributeError, NotImplementedError)


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


# Per-process worker state, set once by the executor initializer.
_WORKER_ENGINE: Optional["SegosIndex"] = None
_WORKER_CONTEXT: Any = None


def _attach_worker(handle: "DiskHandle", context_blob: bytes) -> None:
    """Attach the worker's engine from the on-disk index (zero pickling).

    The worker memory-maps the same sidecar the parent holds, sharing its
    pages, and proves it reconstructed the *same* state: the deterministic
    replay generation and the source hash must both match the handle.  Any
    mismatch (an out-of-band writer, a deleted sidecar forcing a rebuild)
    raises — the supervised pool turns that into a serial salvage in the
    parent, never a silent divergence.
    """
    global _WORKER_ENGINE, _WORKER_CONTEXT
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
    _WORKER_CONTEXT = pickle.loads(context_blob)


def _run_task(fn: Callable[[Any, Any, Any], Any], item: Any) -> Any:
    assert _WORKER_ENGINE is not None, "worker initializer did not run"
    return fn(_WORKER_ENGINE, _WORKER_CONTEXT, item)


def fan_out(
    handle: Optional["DiskHandle"],
    fn: Callable[[Any, Any, Any], Any],
    context: Any,
    items: Sequence[Any],
    *,
    stage: str,
    workers: int,
    task_timeout: Optional[float] = None,
    faults: FaultPlan,
    tracer=NULL_TRACER,
    deadline: Optional[float] = None,
    started: Optional[float] = None,
) -> PoolOutcome:
    """Run ``fn(engine, context, item)`` for each of *items* on worker processes.

    *fn* must be a module-level function; *engine* is the worker's engine,
    attached from *handle*.  The outcome's ``results`` map item index →
    return value; any index missing from it is the caller's to run
    in-process (the pool failed) or to give up on (deadline blown).
    *task_timeout* bounds each task (see
    :func:`~repro.resilience.pool.run_supervised`).

    When the pool cannot start — no *handle*, or the context fails to
    pickle (the ``pickle.engine`` fault point fires here) — the outcome
    has no results, ``workers_used == 0`` and one serial-fallback
    :class:`DegradationEvent`.
    """

    def _serial(point: str, cause: str, injected: bool = False) -> PoolOutcome:
        event = DegradationEvent(
            point=point,
            stage=stage,
            cause=cause,
            injected=injected,
            lost=len(items),
            fallback="serial",
        )
        if tracer.enabled:
            event.span_id = tracer.event(
                f"degradation:{point}",
                stage=stage,
                cause=cause,
                injected=injected,
                fallback="serial",
            )
        return PoolOutcome(unfinished=list(range(len(items))), events=[event])

    if handle is None:
        return _serial(
            "disk.handle",
            "no current DiskHandle: the engine was not loaded from or saved "
            "to disk, or was mutated since",
        )
    if faults.fire("pickle.engine", stage=stage) is not None:
        return _serial("pickle.engine", "injected fault: pickle.engine", True)
    try:
        context_blob = pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)
    except PICKLE_ERRORS as exc:
        return _serial("pickle.engine", repr(exc))
    tasks = [PoolTask(index, _run_task, (fn, item)) for index, item in enumerate(items)]
    return run_supervised(
        tasks,
        workers=min(workers, len(items)),
        task_timeout=task_timeout,
        initializer=_attach_worker,
        initargs=(handle, context_blob),
        faults=faults,
        stage=stage,
        deadline=deadline,
        started=started,
        tracer=tracer,
    )
