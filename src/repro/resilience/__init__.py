"""Resilience layer: fault injection, supervised pools, degradation telemetry.

Production filter-and-verify engines must degrade *loudly* and salvage
partial work.  This package provides the three pieces every parallel path
in :mod:`repro` is wired through:

* :mod:`repro.resilience.faults` — a deterministic fault-injection
  registry (``REPRO_FAULT_PLAN`` / ``EngineConfig.fault_plan``) so every
  degradation branch is reachable from a test;
* :mod:`repro.resilience.pool` — the supervised process-pool executor
  (one round, per-task timeout, per-task salvage, unfinished tasks handed
  back for a serial fallback) that owns the package's only
  ``ProcessPoolExecutor``;
* :mod:`repro.resilience.telemetry` — :class:`DegradationEvent` records
  appended to :attr:`~repro.core.stats.QueryStats.degradations`.
"""

from .faults import (
    DEFAULT_HANG_SECONDS,
    EMPTY_PLAN,
    INJECTION_POINTS,
    FaultInjected,
    FaultPlan,
    FaultRule,
    random_spec,
    resolve_fault_plan,
)
from .pool import PoolOutcome, PoolTask, run_supervised
from .telemetry import DegradationEvent

__all__ = [
    "DEFAULT_HANG_SECONDS",
    "DegradationEvent",
    "EMPTY_PLAN",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "INJECTION_POINTS",
    "PoolOutcome",
    "PoolTask",
    "random_spec",
    "resolve_fault_plan",
    "run_supervised",
]
