"""Degradation telemetry: the record that makes silent fallback loud.

Every time a parallel path loses a worker, retries a task, or falls back
to serial execution, the supervisor appends a :class:`DegradationEvent` to
the owning query's :attr:`~repro.core.stats.QueryStats.degradations`.
``explain`` and the CLI surface them, so "the pool broke and we quietly
re-ran everything" — previously invisible — shows up in every report.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class DegradationEvent:
    """One degradation: what failed, what was kept, and what happened next.

    Attributes
    ----------
    point:
        The injection point that fired, or the classification of a real
        failure (``pool.broken``, ``worker.timeout``, ``task.error``,
        ``deadline``, or ``disk.handle`` when the engine has no on-disk
        index for pool workers to attach).
    stage:
        Which pool stage degraded (``batch`` or ``verify``).
    cause:
        Human-readable cause — the repr of the underlying exception, or
        the injected-fault marker.
    injected:
        True when a scripted fault plan (not a real failure) fired.
    retries:
        Which retry round this failure triggered (1 = first retry).
        0 means the failure was terminal — no retry followed.
    salvaged:
        Completed task results kept at failure time (per-chunk salvage:
        these are *not* recomputed).
    requeued:
        Unfinished tasks re-dispatched to the (re-spawned) pool.
    lost:
        Tasks the supervised pool abandoned — nonzero only on terminal
        events (circuit breaker open, blown deadline); the caller's
        fallback may still recover them serially.
    fallback:
        The recovery taken: ``retry`` (same pool), ``respawn`` (new
        pool), ``serial`` (caller falls back to in-process execution),
        ``abandon`` (deadline blown; leftovers reported undecided).
    span_id:
        When the run was traced, the id of the instant span recorded for
        this event — the link that lets a span tree and its degradation
        telemetry point at each other.  Empty when tracing was off.
    """

    point: str
    stage: str = ""
    cause: str = ""
    injected: bool = False
    retries: int = 0
    salvaged: int = 0
    requeued: int = 0
    lost: int = 0
    fallback: str = ""
    span_id: str = ""

    def summary(self) -> str:
        """One-line account, e.g. ``worker.crash[batch] injected: retry #1,
        salvaged 2, requeued 1 -> respawn``."""
        origin = "injected" if self.injected else self.cause or "failure"
        parts = [f"{self.point}[{self.stage or '-'}] {origin}"]
        if self.retries:
            parts.append(f"retry #{self.retries}")
        parts.append(f"salvaged {self.salvaged}")
        if self.requeued:
            parts.append(f"requeued {self.requeued}")
        if self.lost:
            parts.append(f"lost {self.lost}")
        return f"{parts[0]}: " + ", ".join(parts[1:]) + f" -> {self.fallback or 'none'}"
