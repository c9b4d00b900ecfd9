"""Deterministic fault injection: named points, scriptable plans.

A production filter-and-verify engine degrades through a handful of
branches — a pool context that will not pickle, a pool that will not spawn, a worker
that crashes or hangs, a chunk whose result never arrives.  Before this
module, those branches were reachable only by monkeypatching internals or
by getting unlucky in production.  Now every one of them is a **named
injection point** that a test (or a chaos CI leg) can trigger on demand:

========================  ====================================================
point                     what firing it simulates
========================  ====================================================
``pickle.engine``         the per-call pool context fails to pickle
``pool.spawn``            the process pool cannot be created (``OSError``)
``worker.crash``          the worker process dies mid-task (``os._exit``)
``worker.hang``           the worker stops responding (sleeps ``seconds``)
``chunk.result``          the task computes but its result delivery fails
``io.write``              the process dies mid-write (``offset=`` bytes land)
``io.fsync``              the process dies just before an fsync barrier
``io.replace``            the process dies just before an ``os.replace``
``io.truncate``           the process dies just before an ``ftruncate``
========================  ====================================================

The four ``io.*`` points are the crash-consistency half of the registry:
they fire inside :mod:`repro.perf.durability`'s guarded I/O primitives and
kill the process with ``SIGKILL`` at exactly that syscall boundary —
``io.write`` first persists the leading ``offset=`` bytes of the pending
buffer, simulating a torn write.  Each persistence call site carries a
distinct ``stage=`` label (``delta.record``, ``delta.header``,
``text.tmp``, ``text.replace``, ``sidecar.tmp``, ``sidecar.replace``,
``sidecar.dir``, ``text.dir``, ``scrub.header``, ``scrub.truncate``), so a
plan can stop a writer between any two durability steps deterministically.
The kill-torture harness (``tests/test_crash_torture.py``) SIGKILLs a
writer subprocess at every one of these points and asserts the recovery
invariant: reopening always yields the old or the new consistent state.

Plans are written as a spec string — ``EngineConfig.fault_plan`` or the
``REPRO_FAULT_PLAN`` environment variable — of ``;``-separated rules::

    worker.crash:chunk=1:times=2
    pool.spawn:times=1;chunk.result:stage=verify

Rule keys: ``chunk=``/``task=`` (only fire for that task index), ``times=``
(how many firings before the rule burns out; default 1, ``inf`` = always),
``stage=`` (only fire for that pool stage, e.g. ``batch`` or ``verify``),
``seconds=`` (hang duration for ``worker.hang``).  Unknown points or keys
raise ``ValueError`` — a typo in a fault plan fails fast at
:class:`~repro.config.EngineConfig` construction, not silently never-fires.

Countdowns are **per operation**: each top-level batch or verification call
parses its own plan, so a ``times=1`` rule fires exactly once per call and
every run of the same call is identical — deterministic by construction.
An empty plan is falsy and its :meth:`FaultPlan.fire` returns immediately,
so the registry costs nothing when no faults are scripted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from ..config import ENV_FAULT_PLAN, env_str
from ..errors import ReproError

#: Injection points of the supervised-pool paths (the original registry).
POOL_POINTS = (
    "pickle.engine",
    "pool.spawn",
    "worker.crash",
    "worker.hang",
    "chunk.result",
)

#: Injection points of the durable-persistence write paths: firing one
#: SIGKILLs the process at that syscall boundary (see repro.perf.durability).
IO_POINTS = (
    "io.write",
    "io.fsync",
    "io.replace",
    "io.truncate",
)

#: Every injection point a plan may name.
INJECTION_POINTS = POOL_POINTS + IO_POINTS

#: Injection points that fire *inside* a worker process (the supervisor
#: attaches them to the task payload as a directive).
WORKER_POINTS = ("worker.crash", "worker.hang", "chunk.result")

#: Default sleep for ``worker.hang`` when the rule gives no ``seconds=``;
#: long enough to trip any sane ``task_timeout``, short enough that a
#: leaked worker self-heals within a minute.
DEFAULT_HANG_SECONDS = 60.0


class FaultInjected(ReproError):
    """Raised by a worker when a scripted ``chunk.result`` fault fires."""


@dataclass
class FaultRule:
    """One rule of a fault plan: a point plus its firing constraints.

    ``times`` counts down on every firing; ``None`` means unlimited.
    """

    point: str
    task: Optional[int] = None
    stage: Optional[str] = None
    times: Optional[int] = 1
    seconds: float = DEFAULT_HANG_SECONDS
    #: For ``io.write``: bytes of the pending buffer persisted before the
    #: simulated crash (0 = nothing lands, the pure ordering case).
    offset: int = 0

    def matches(self, point: str, task: Optional[int], stage: Optional[str]) -> bool:
        if self.point != point:
            return False
        if self.times is not None and self.times <= 0:
            return False
        if self.task is not None and task != self.task:
            return False
        if self.stage is not None and stage != self.stage:
            return False
        return True

    def consume(self) -> None:
        if self.times is not None:
            self.times -= 1


class FaultPlan:
    """A parsed, stateful fault plan (rule countdowns burn as they fire)."""

    __slots__ = ("rules", "spec")

    def __init__(self, rules: Tuple[FaultRule, ...] = (), spec: str = "") -> None:
        self.rules = list(rules)
        self.spec = spec

    def __bool__(self) -> bool:
        return bool(self.rules)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.spec!r})"

    @classmethod
    def parse(cls, spec: Optional[str]) -> "FaultPlan":
        """Parse a spec string into a fresh plan (full countdowns).

        ``None`` / empty / whitespace specs yield an empty, falsy plan.
        Bad points or keys raise ``ValueError``.
        """
        if not spec or not spec.strip():
            return cls()
        rules = []
        for rule_spec in spec.split(";"):
            rule_spec = rule_spec.strip()
            if not rule_spec:
                continue
            tokens = rule_spec.split(":")
            point = tokens[0].strip()
            if point not in INJECTION_POINTS:
                raise ValueError(
                    f"unknown fault injection point {point!r} "
                    f"(known: {', '.join(INJECTION_POINTS)})"
                )
            rule = FaultRule(point=point)
            for token in tokens[1:]:
                key, sep, value = token.partition("=")
                key = key.strip()
                value = value.strip()
                if not sep:
                    raise ValueError(f"malformed fault rule token {token!r}")
                if key in ("chunk", "task"):
                    rule.task = int(value)
                elif key == "times":
                    rule.times = None if value == "inf" else int(value)
                elif key == "stage":
                    rule.stage = value
                elif key == "seconds":
                    rule.seconds = float(value)
                elif key == "offset":
                    rule.offset = int(value)
                    if rule.offset < 0:
                        raise ValueError("offset must be >= 0")
                else:
                    raise ValueError(f"unknown fault rule key {key!r} in {rule_spec!r}")
            rules.append(rule)
        return cls(tuple(rules), spec=spec)

    def fire(
        self,
        point: str,
        *,
        task: Optional[int] = None,
        stage: Optional[str] = None,
    ) -> Optional[FaultRule]:
        """Consume and return the first live rule matching, else ``None``."""
        if not self.rules:  # the hot, faults-disabled path: one truthiness test
            return None
        for rule in self.rules:
            if rule.matches(point, task, stage):
                rule.consume()
                return rule
        return None


#: The shared no-op plan (never fires; do not mutate).
EMPTY_PLAN = FaultPlan()


def resolve_fault_plan(spec=None) -> FaultPlan:
    """Resolve a fault plan from argument / environment / empty.

    Accepts an already-parsed :class:`FaultPlan` (returned as-is, keeping
    its countdown state), a spec string, or ``None`` — which falls back to
    ``REPRO_FAULT_PLAN`` for direct, engine-less calls.
    """
    if isinstance(spec, FaultPlan):
        return spec
    if spec is None:
        spec = env_str(ENV_FAULT_PLAN)
    return FaultPlan.parse(spec)


def random_spec(seed: int) -> str:
    """One random single-fault spec for the chaos CI leg.

    Deterministic in *seed* (which CI prints), so any chaos failure is
    reproducible with ``REPRO_FAULT_PLAN="$(python -c ...random_spec(seed))"``.
    Draws only from :data:`POOL_POINTS`: an ambient ``io.*`` rule would
    SIGKILL the test process itself mid-save — those belong to the
    kill-torture harness, which scripts them into writer *subprocesses*
    (see :func:`random_io_spec`).
    """
    rng = random.Random(seed)
    point = rng.choice(POOL_POINTS)
    parts = [point]
    if point in WORKER_POINTS and rng.random() < 0.5:
        parts.append(f"task={rng.randrange(3)}")
    parts.append(f"times={rng.randrange(1, 3)}")
    if point == "worker.hang":
        # Hang "forever" relative to the chaos leg's REPRO_TASK_TIMEOUT.
        parts.append("seconds=30")
    return ":".join(parts)


#: ``(point, stage)`` pairs reachable on a normal ``save_index`` (the
#: delta-append path); the torture harness enumerates these exhaustively
#: and :func:`random_io_spec` samples them for the crash-torture CI leg.
IO_SAVE_SITES = (
    ("io.fsync", "text.tmp"),
    ("io.replace", "text.replace"),
    ("io.fsync", "text.dir"),
    ("io.write", "delta.record"),
    ("io.fsync", "delta.record"),
    ("io.write", "delta.header"),
    ("io.fsync", "delta.header"),
)

#: Additional sites of the full-rewrite (compacting) save path.
IO_REWRITE_SITES = (
    ("io.write", "sidecar.header"),
    ("io.fsync", "sidecar.tmp"),
    ("io.replace", "sidecar.replace"),
    ("io.fsync", "sidecar.dir"),
)


def random_io_spec(seed: int) -> str:
    """One random crash-point spec for the kill-torture CI leg.

    Deterministic in *seed* (which CI prints).  Picks a ``(point, stage)``
    site that a delta-append or compacting save actually reaches, plus a
    random torn-write offset for ``io.write`` points, so every draw kills
    the torture writer somewhere real.
    """
    rng = random.Random(seed)
    point, stage = rng.choice(IO_SAVE_SITES + IO_REWRITE_SITES)
    parts = [point, f"stage={stage}", "times=1"]
    if point == "io.write":
        parts.append(f"offset={rng.randrange(0, 24)}")
    return ":".join(parts)
