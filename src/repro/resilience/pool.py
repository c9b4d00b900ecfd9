"""The supervised process-pool executor: retry, salvage, circuit-break.

This module owns the **only** ``ProcessPoolExecutor`` in the package, and
:func:`repro.perf.parallel.fan_out` is its only caller (grep guards
enforce both).  The two parallel stages — batch range queries and
exact-verification A* fan-out — used to hand-roll their own pools with an
all-or-nothing failure mode: one dead worker threw away *every* completed
chunk and re-ran the whole batch serially, silently.  The supervisor
replaces that with:

* **per-task salvage** — results retrieved before a failure are kept;
  only the unfinished remainder is re-queued (or handed back to the
  caller for a serial fallback);
* **bounded retry with exponential backoff** — a broken pool is killed
  and re-spawned, up to ``max_pool_retries`` consecutive no-progress
  failures, after which the circuit breaker opens;
* **per-task timeouts** — a hung worker cannot block forever:
  ``future.cancel()`` does nothing to a *running* task, so the supervisor
  terminates the worker processes outright and re-spawns (this is also
  what makes a blown ``verify_deadline`` actually bound wall-clock);
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

from ..config import (
    DEFAULT_MAX_POOL_RETRIES,
    DEFAULT_RETRY_BACKOFF,
    ENV_MAX_POOL_RETRIES,
    ENV_RETRY_BACKOFF,
    ENV_TASK_TIMEOUT,
    env_float,
    env_int,
)
from ..errors import PoolBrokenError, WorkerTimeout
from ..obs.trace import NULL_TRACER, Tracer, activate
from .faults import EMPTY_PLAN, FaultInjected, FaultPlan, WORKER_POINTS
from .telemetry import DegradationEvent


@dataclass(frozen=True)
class ResiliencePolicy:
    """The three retry knobs, resolved once and handed to the supervisor.

    Built from an :class:`~repro.config.EngineConfig` on engine-driven
    paths (:meth:`from_config`) or from the environment for direct,
    engine-less calls (:meth:`from_env`).
    """

    #: seconds one task may run before its worker is killed (None = no limit)
    task_timeout: Optional[float] = None
    #: consecutive no-progress pool failures before the circuit opens
    max_pool_retries: int = DEFAULT_MAX_POOL_RETRIES
    #: base of the exponential backoff slept before each retry round
    retry_backoff: float = DEFAULT_RETRY_BACKOFF

    @classmethod
    def from_config(cls, config) -> "ResiliencePolicy":
        return cls(
            task_timeout=config.task_timeout,
            max_pool_retries=config.max_pool_retries,
            retry_backoff=config.retry_backoff,
        )

    @classmethod
    def from_env(cls) -> "ResiliencePolicy":
        backoff = env_float(ENV_RETRY_BACKOFF, DEFAULT_RETRY_BACKOFF)
        return cls(
            task_timeout=env_float(ENV_TASK_TIMEOUT, None),
            max_pool_retries=env_int(ENV_MAX_POOL_RETRIES, DEFAULT_MAX_POOL_RETRIES),
            retry_backoff=backoff if backoff is not None else DEFAULT_RETRY_BACKOFF,
        )

    def backoff_seconds(self, failure_number: int) -> float:
        """Exponential: ``retry_backoff * 2**(n-1)`` before the n-th retry."""
        if self.retry_backoff <= 0 or failure_number <= 0:
            return 0.0
        return self.retry_backoff * (2.0 ** (failure_number - 1))


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
    ``unfinished`` lists the ids the supervisor had to abandon (circuit
    breaker open or deadline blown) — the caller decides their fate
    (serial fallback, or ``undecided`` for a deadline).
    """

    results: Dict[Any, Any] = field(default_factory=dict)
    unfinished: List[Any] = field(default_factory=list)
    events: List[DegradationEvent] = field(default_factory=list)
    #: pool rounds executed (1 = clean single pass)
    rounds: int = 0
    #: retry rounds triggered by failures
    retries: int = 0
    deadline_blown: bool = False
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
    fails its delivery — exercising the retry path with real work done.
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
    policy: ResiliencePolicy,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple[Any, ...] = (),
    faults: Optional[FaultPlan] = None,
    stage: str = "",
    deadline: Optional[float] = None,
    started: Optional[float] = None,
    tracer=None,
) -> PoolOutcome:
    """Run *tasks* on a supervised process pool; salvage whatever finishes.

    ``deadline`` (seconds since *started*, a ``perf_counter`` timestamp
    defaulting to now) bounds the whole run: once blown, the pool is
    killed and the leftovers are reported ``unfinished`` without retry.
    Failures never raise — they are classified into
    :class:`DegradationEvent`s on the outcome, and the circuit breaker
    hands unfinished work back to the caller after ``max_pool_retries``
    consecutive no-progress rounds.

    An enabled *tracer* records the run as a ``pool:<stage>`` span, ships
    each task's trace coordinates to its worker so worker-side spans
    (including those of retried tasks, each with its worker's pid) stitch
    into the parent tree, and links every :class:`DegradationEvent` to an
    instant span via ``event.span_id``.
    """
    faults = faults if faults is not None else EMPTY_PLAN
    tracer = tracer if tracer is not None else NULL_TRACER
    outcome = PoolOutcome()
    pending: List[PoolTask] = list(tasks)
    consecutive_failures = 0
    clock_started = started if started is not None else time.perf_counter()

    pool_span = (
        tracer.begin(f"pool:{stage or 'run'}", tasks=len(tasks), workers=workers)
        if tracer.enabled
        else None
    )

    def _note_event(event: DegradationEvent) -> None:
        if pool_span is not None:
            event.span_id = tracer.event(
                f"degradation:{event.point}",
                parent=pool_span.context(),
                stage=event.stage,
                cause=event.cause,
                injected=event.injected,
                fallback=event.fallback,
            )
        outcome.events.append(event)

    while pending and not outcome.deadline_blown:
        if consecutive_failures > policy.max_pool_retries:
            break  # circuit breaker open: hand the remainder to the caller
        if consecutive_failures:
            time.sleep(policy.backoff_seconds(consecutive_failures))
        outcome.rounds += 1
        spawn_workers = min(workers, len(pending))

        # -- spawn (fault point: pool.spawn) ----------------------------
        spawn_rule = faults.fire("pool.spawn", stage=stage)
        try:
            if spawn_rule is not None:
                raise OSError("injected fault: pool.spawn")
            pool = ProcessPoolExecutor(
                max_workers=spawn_workers, initializer=initializer, initargs=initargs
            )
        except OSError as exc:
            consecutive_failures += 1
            outcome.retries += 1
            terminal = consecutive_failures > policy.max_pool_retries
            _note_event(
                DegradationEvent(
                    point="pool.spawn",
                    stage=stage,
                    cause=repr(exc),
                    injected=spawn_rule is not None,
                    retries=0 if terminal else outcome.retries,
                    salvaged=len(outcome.results),
                    requeued=0 if terminal else len(pending),
                    lost=len(pending) if terminal else 0,
                    fallback="serial" if terminal else "respawn",
                )
            )
            continue
        outcome.workers_used = max(outcome.workers_used, spawn_workers)

        # -- dispatch (worker-side fault directives attach here) --------
        # A worker can die while later tasks are still being submitted;
        # the pool then refuses ``submit``.  That break is handled exactly
        # like one reported by ``future.result`` below.
        submitted = []
        issued_points = set()
        submit_break: Optional[BaseException] = None
        for task in pending:
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
                submit_break = PoolBrokenError(str(exc) or "process pool broken")
                break
            submitted.append((task, future))

        # -- collect, salvaging in submission order ---------------------
        completed_round = 0
        task_failures: List[Tuple[PoolTask, BaseException]] = []
        breaker: Optional[BaseException] = None
        for task, future in submitted:
            timeout = policy.task_timeout
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
                    break
                breaker = WorkerTimeout(task.task_id, timeout)
                break
            except BrokenProcessPool as exc:
                breaker = PoolBrokenError(str(exc) or "process pool broken")
                break
            except Exception as exc:  # task-level failure; the pool is healthy
                task_failures.append((task, exc))
                continue
            if pool_span is not None:
                value, worker_spans = value
                tracer.adopt(worker_spans)
            outcome.results[task.task_id] = value
            completed_round += 1
        breaker = breaker or submit_break

        still_pending = [t for t in pending if t.task_id not in outcome.results]

        if outcome.deadline_blown:
            _kill_pool(pool)
            _note_event(
                DegradationEvent(
                    point="deadline",
                    stage=stage,
                    cause="deadline exceeded before all tasks finished",
                    salvaged=len(outcome.results),
                    lost=len(still_pending),
                    fallback="abandon",
                )
            )
            pending = still_pending
            break

        if breaker is not None:
            # A crash directive this round means the breakage is the
            # scripted fault, even when the pool reports it against a
            # different task's future.
            if isinstance(breaker, WorkerTimeout):
                point = "worker.hang" if "worker.hang" in issued_points else "worker.timeout"
            else:
                point = "worker.crash" if "worker.crash" in issued_points else "pool.broken"
            _kill_pool(pool)
            consecutive_failures = 1 if completed_round else consecutive_failures + 1
            outcome.retries += 1
            terminal = consecutive_failures > policy.max_pool_retries
            _note_event(
                DegradationEvent(
                    point=point,
                    stage=stage,
                    cause=repr(breaker),
                    injected=point in issued_points,
                    retries=0 if terminal else outcome.retries,
                    salvaged=len(outcome.results),
                    requeued=0 if terminal else len(still_pending),
                    lost=len(still_pending) if terminal else 0,
                    fallback="serial" if terminal else "respawn",
                )
            )
            pending = still_pending
            continue

        pool.shutdown(wait=True)
        if task_failures:
            consecutive_failures = 1 if completed_round else consecutive_failures + 1
            outcome.retries += 1
            terminal = consecutive_failures > policy.max_pool_retries
            injected = any(isinstance(exc, FaultInjected) for _, exc in task_failures)
            _note_event(
                DegradationEvent(
                    point="chunk.result" if injected else "task.error",
                    stage=stage,
                    cause="; ".join(repr(exc) for _, exc in task_failures),
                    injected=injected,
                    retries=0 if terminal else outcome.retries,
                    salvaged=len(outcome.results),
                    requeued=0 if terminal else len(still_pending),
                    lost=len(still_pending) if terminal else 0,
                    fallback="serial" if terminal else "retry",
                )
            )
            pending = still_pending
            continue

        consecutive_failures = 0
        pending = still_pending  # empty on a clean round

    outcome.unfinished = [task.task_id for task in pending]
    if pool_span is not None:
        tracer.end_span(
            pool_span,
            rounds=outcome.rounds,
            retries=outcome.retries,
            completed=len(outcome.results),
            unfinished=len(outcome.unfinished),
        )
    return outcome
