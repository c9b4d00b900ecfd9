"""The supervised process-pool executor: one round, salvage, hand back.

This module owns the **only** ``ProcessPoolExecutor`` in the package, and
:func:`repro.perf.parallel.fan_out` is its only caller (grep guards
enforce both).  The two parallel stages — batch range queries and
exact-verification A* fan-out — used to hand-roll their own pools with an
all-or-nothing failure mode: one dead worker threw away *every* completed
chunk and re-ran the whole batch serially, silently.  The supervisor
replaces that with:

* **one round** — the pool is spawned once and each task dispatched once;
  on a failure the pool is killed and the unfinished tasks are handed back
  to the caller, which runs them in-process with the same answers;
* **per-task salvage** — results retrieved before a failure are kept;
  only the unfinished remainder is handed back;
* **per-task timeouts** — a hung worker cannot block forever:
  ``future.cancel()`` does nothing to a *running* task, so the supervisor
  terminates the worker processes outright (this is also what makes a
  blown ``verify_deadline`` actually bound wall-clock);
* **telemetry** — every failure, injected or real, becomes a
  :class:`~repro.resilience.telemetry.DegradationEvent` in the outcome.

Scripted faults from :mod:`repro.resilience.faults` are woven in at the
exact seams real failures occur, so every branch above is reachable from a
deterministic test.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import PoolBrokenError, WorkerTimeout
from ..obs.trace import NULL_TRACER, Tracer, activate
from .faults import EMPTY_PLAN, FaultInjected, FaultPlan, WORKER_POINTS
from .telemetry import DegradationEvent


@dataclass(frozen=True)
class PoolTask:
    """One unit of supervised work: a picklable ``fn(*args)`` call."""

    task_id: Any
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()


@dataclass
class PoolOutcome:
    """What a supervised run produced — including the partial story.

    ``results`` maps task id → return value for every task that finished;
    ``unfinished`` lists the ids the supervisor had to abandon (a pool
    failure or a blown deadline) — the caller decides their fate (serial
    fallback, or ``undecided`` for a deadline).
    """

    results: Dict[Any, Any] = field(default_factory=dict)
    unfinished: List[Any] = field(default_factory=list)
    events: List[DegradationEvent] = field(default_factory=list)
    deadline_blown: bool = False
    #: worker processes spawned (0 = no pool ran)
    workers_used: int = 0

    @property
    def ok(self) -> bool:
        """True when every task completed under supervision."""
        return not self.unfinished


def _apply_directive_and_run(
    directive: Optional[Tuple[str, float]], fn: Callable[..., Any], args: Tuple
) -> Any:
    """Apply any scripted fault, then run the task.

    ``worker.crash`` kills the process the way a real crash would (no
    exception machinery, no cleanup), ``worker.hang`` stops responding for
    the scripted duration, and ``chunk.result`` computes the result but
    fails its delivery — exercising salvage with real work done.
    """
    if directive is not None:
        point, seconds = directive
        if point == "worker.crash":
            os._exit(1)
        elif point == "worker.hang":
            time.sleep(seconds)
    value = fn(*args)
    if directive is not None and directive[0] == "chunk.result":
        raise FaultInjected("injected fault: chunk.result")
    return value


def _supervised_call(
    directive: Optional[Tuple[str, float]],
    fn: Callable[..., Any],
    args: Tuple,
    trace_ctx: Optional[Tuple[str, str, str, Any]] = None,
) -> Any:
    """Worker-side shim: scripted faults, plus span capture when traced.

    *trace_ctx* is ``(trace_id, parent_span_id, stage, task_id)`` — the
    coordinates needed to stitch worker-side spans into the parent tree.
    When present, the worker builds its own tracer (adopting the parent's
    trace id and attaching under the dispatching pool span), installs it
    as the ambient tracer so anything the task executes traces into the
    same tree, and ships the finished spans home alongside the value as
    ``(value, spans)``.  When absent (tracing off) the task runs bare —
    the disabled path is byte-identical to the pre-tracing shim.
    """
    if trace_ctx is None:
        return _apply_directive_and_run(directive, fn, args)
    trace_id, parent_id, stage, task_id = trace_ctx
    tracer = Tracer(trace_id=trace_id, parent_id=parent_id)
    with activate(tracer):
        with tracer.span(f"task:{stage or 'pool'}", task=str(task_id)):
            value = _apply_directive_and_run(directive, fn, args)
    return value, tracer.snapshot()


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down *now*, hung workers included.

    ``shutdown(cancel_futures=True)`` only cancels queued tasks — it still
    joins workers that are mid-task, so a hung worker would block the exit
    forever.  Terminating the processes first makes the shutdown prompt.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already-dead workers
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def run_supervised(
    tasks: Sequence[PoolTask],
    *,
    workers: int,
    task_timeout: Optional[float] = None,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple[Any, ...] = (),
    faults: Optional[FaultPlan] = None,
    stage: str = "",
    deadline: Optional[float] = None,
    started: Optional[float] = None,
    tracer=None,
) -> PoolOutcome:
    """Run *tasks* in one round on a process pool; salvage whatever finishes.

    The pool is spawned once and every task dispatched once; results are
    collected in submission order and every result that arrives is kept.
    A broken pool or a task running past *task_timeout* seconds ends the
    round and kills the pool; a task that raises leaves its siblings
    running.  After any failure, a spawn error included, the tasks
    without a result are reported ``unfinished`` for the caller to run
    in-process.  ``deadline`` (seconds since *started*, a ``perf_counter``
    timestamp defaulting to now) bounds the whole run: once blown, the
    pool is killed and the leftovers are reported ``unfinished``.
    Failures never raise — each run records at most one
    :class:`DegradationEvent` on the outcome.

    An enabled *tracer* records the run as a ``pool:<stage>`` span, ships
    each task's trace coordinates to its worker so worker-side spans
    (each with its worker's pid) stitch into the parent tree, and links
    every :class:`DegradationEvent` to an instant span via
    ``event.span_id``.
    """
    faults = faults if faults is not None else EMPTY_PLAN
    tracer = tracer if tracer is not None else NULL_TRACER
    outcome = PoolOutcome()
    clock_started = started if started is not None else time.perf_counter()

    pool_span = (
        tracer.begin(f"pool:{stage or 'run'}", tasks=len(tasks), workers=workers)
        if tracer.enabled
        else None
    )

    def _finish(
        point: Optional[str] = None,
        cause: str = "",
        injected: bool = False,
        fallback: str = "serial",
    ) -> PoolOutcome:
        outcome.unfinished = [t.task_id for t in tasks if t.task_id not in outcome.results]
        if point is not None:
            event = DegradationEvent(
                point=point,
                stage=stage,
                cause=cause,
                injected=injected,
                salvaged=len(outcome.results),
                lost=len(outcome.unfinished),
                fallback=fallback,
            )
            if pool_span is not None:
                event.span_id = tracer.event(
                    f"degradation:{point}",
                    parent=pool_span.context(),
                    stage=stage,
                    cause=cause,
                    injected=injected,
                    fallback=fallback,
                )
            outcome.events.append(event)
        if pool_span is not None:
            tracer.end_span(
                pool_span,
                completed=len(outcome.results),
                unfinished=len(outcome.unfinished),
            )
        return outcome

    def _keep(task: PoolTask, value: Any) -> None:
        if pool_span is not None:
            value, worker_spans = value
            tracer.adopt(worker_spans)
        outcome.results[task.task_id] = value

    if not tasks:
        return _finish()

    # -- spawn (fault point: pool.spawn) --------------------------------
    spawn_workers = min(workers, len(tasks))
    spawn_rule = faults.fire("pool.spawn", stage=stage)
    try:
        if spawn_rule is not None:
            raise OSError("injected fault: pool.spawn")
        pool = ProcessPoolExecutor(
            max_workers=spawn_workers, initializer=initializer, initargs=initargs
        )
    except OSError as exc:
        return _finish("pool.spawn", repr(exc), spawn_rule is not None)
    outcome.workers_used = spawn_workers

    # -- dispatch (worker-side fault directives attach here) ------------
    # A worker can die while later tasks are still being submitted; the
    # pool then refuses ``submit``.  That break is handled exactly like one
    # reported by ``future.result`` below.
    submitted = []
    issued_points = set()
    pool_failure: Optional[BaseException] = None
    for task in tasks:
        directive = None
        for point in WORKER_POINTS:
            rule = faults.fire(point, task=task.task_id, stage=stage)
            if rule is not None:
                directive = (point, rule.seconds)
                issued_points.add(point)
                break
        trace_ctx = (
            (tracer.trace_id, pool_span.span_id, stage, task.task_id)
            if pool_span is not None
            else None
        )
        try:
            future = pool.submit(
                _supervised_call, directive, task.fn, task.args, trace_ctx
            )
        except BrokenProcessPool as exc:
            pool_failure = PoolBrokenError(str(exc) or "process pool broken")
            break
        submitted.append((task, future))

    # -- collect, salvaging in submission order -------------------------
    task_failures: List[BaseException] = []
    for task, future in submitted:
        timeout = task_timeout
        if deadline is not None:
            remaining = deadline - (time.perf_counter() - clock_started)
            if remaining <= 0:
                outcome.deadline_blown = True
                break
            timeout = remaining if timeout is None else min(timeout, remaining)
        try:
            value = future.result(timeout=timeout)
        except FutureTimeoutError:
            if (
                deadline is not None
                and deadline - (time.perf_counter() - clock_started) <= 0
            ):
                outcome.deadline_blown = True
            else:
                pool_failure = WorkerTimeout(task.task_id, timeout)
            break
        except BrokenProcessPool as exc:
            pool_failure = PoolBrokenError(str(exc) or "process pool broken")
            break
        except Exception as exc:  # task-level failure; the pool is healthy
            task_failures.append(exc)
            continue
        _keep(task, value)
    # A failure stops the in-order walk, but tasks further on may already
    # have finished; their results are kept too.
    for task, future in submitted:
        if (
            task.task_id not in outcome.results
            and future.done()
            and not future.cancelled()
            and future.exception() is None
        ):
            _keep(task, future.result())

    if outcome.deadline_blown:
        _kill_pool(pool)
        return _finish(
            "deadline",
            "deadline exceeded before all tasks finished",
            fallback="abandon",
        )
    if pool_failure is not None:
        # A crash directive this round means the breakage is the scripted
        # fault, even when the pool reports it against a different task's
        # future.
        if isinstance(pool_failure, WorkerTimeout):
            point = "worker.hang" if "worker.hang" in issued_points else "worker.timeout"
        else:
            point = "worker.crash" if "worker.crash" in issued_points else "pool.broken"
        _kill_pool(pool)
        return _finish(point, repr(pool_failure), point in issued_points)
    pool.shutdown(wait=True)
    if task_failures:
        injected = any(isinstance(exc, FaultInjected) for exc in task_failures)
        return _finish(
            "chunk.result" if injected else "task.error",
            "; ".join(repr(exc) for exc in task_failures),
            injected,
        )
    return _finish()
