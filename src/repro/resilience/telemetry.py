"""Degradation telemetry: the record that makes silent fallback loud.

Every time a parallel path loses a worker, a task fails, or the work falls
back to serial execution, the supervisor appends a
:class:`DegradationEvent` to the owning query's
:attr:`~repro.core.stats.QueryStats.degradations`.  ``explain`` and the
CLI surface them, so "the pool broke and we quietly re-ran everything" —
previously invisible — shows up in every report.
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
    salvaged:
        Completed task results kept at failure time (per-chunk salvage:
        these are *not* recomputed).
    lost:
        Tasks the supervised pool did not finish; the caller's serial
        fallback recovers them, unless the deadline was blown.
    fallback:
        The recovery taken: ``serial`` (the caller runs the unfinished
        tasks in-process) or ``abandon`` (deadline blown; leftovers
        reported undecided).
    span_id:
        When the run was traced, the id of the instant span recorded for
        this event — the link that lets a span tree and its degradation
        telemetry point at each other.  Empty when tracing was off.
    """

    point: str
    stage: str = ""
    cause: str = ""
    injected: bool = False
    salvaged: int = 0
    lost: int = 0
    fallback: str = ""
    span_id: str = ""

    def summary(self) -> str:
        """One-line account, e.g. ``worker.crash[batch] injected: salvaged 2,
        lost 1 -> serial``."""
        origin = "injected" if self.injected else self.cause or "failure"
        parts = [f"{self.point}[{self.stage or '-'}] {origin}"]
        parts.append(f"salvaged {self.salvaged}")
        if self.lost:
            parts.append(f"lost {self.lost}")
        return f"{parts[0]}: " + ", ".join(parts[1:]) + f" -> {self.fallback or 'none'}"
