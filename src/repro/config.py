"""The configuration layer: every ``REPRO_*`` knob, resolved in one place.

Before this module existed, five different modules read ``os.environ`` on
their own schedule — the SED cache at import time, the assignment and top-k
backends per solve, the worker counts per call.  That made the effective
configuration of a query impossible to state ("whatever the environment
happened to contain at that instant") and unshippable to worker processes.

Now the rule is simple and testable:

* **this module is the only place in ``repro`` that touches
  ``os.environ``** (a grep-based guard test enforces it);
* environment variables provide *defaults*, read once when an
  :class:`EngineConfig` is constructed;
* engine constructor kwargs override the environment;
* per-call kwargs (``range_query(k=..., verify_workers=...)``) override the
  engine — applied with :meth:`EngineConfig.override`, which returns a new
  frozen config rather than mutating anything.

The low-level ``env_*`` helpers stay available for the few ``resolve_*``
functions that keep a call-time environment fallback for direct, engine-less
use (assignment backend, fsync policy, fault plan, task timeout).  The top-k
backend and the worker counts have no such fallback: only
:class:`EngineConfig` reads them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Mapping, Optional, Tuple

# ---------------------------------------------------------------------------
# Environment variable names (single source of truth).
# ---------------------------------------------------------------------------

#: Assignment-problem backend: ``pure`` / ``scipy`` / ``auto``.
ENV_ASSIGNMENT_BACKEND = "REPRO_ASSIGNMENT_BACKEND"
#: Top-k sub-unit search backend: ``ta`` / ``scan``.
ENV_TOPK_BACKEND = "REPRO_TOPK_BACKEND"
#: Worker-process count for batch range queries (1 = serial).
ENV_BATCH_WORKERS = "REPRO_BATCH_WORKERS"
#: Worker-process count for exact-verification A* runs (1 = in-process).
ENV_VERIFY_WORKERS = "REPRO_VERIFY_WORKERS"
#: Per-candidate A* state budget for exact verification.
ENV_VERIFY_BUDGET = "REPRO_VERIFY_BUDGET"
#: Wall-clock deadline (seconds) for one query's exact verification.
ENV_VERIFY_DEADLINE = "REPRO_VERIFY_DEADLINE"
#: Seconds one supervised worker task may run before its worker is killed.
ENV_TASK_TIMEOUT = "REPRO_TASK_TIMEOUT"
#: Scripted fault plan for the resilience layer (see repro.resilience.faults).
ENV_FAULT_PLAN = "REPRO_FAULT_PLAN"
#: Span tracing on/off (truthy: 1/true/yes/on; falsy: 0/false/no/off).
ENV_TRACE = "REPRO_TRACE"
#: Path appended with one JSON span per line after every traced query.
ENV_TRACE_PATH = "REPRO_TRACE_PATH"
#: Metrics registry on/off (same truthy grammar as ``REPRO_TRACE``).
ENV_METRICS = "REPRO_METRICS"
#: Override for the on-disk index sidecar path (default: ``<db>.segosx``).
ENV_INDEX_PATH = "REPRO_INDEX_PATH"
#: Delta-journal compaction threshold as a fraction of base graph count.
ENV_DELTA_COMPACT = "REPRO_DELTA_COMPACT"
#: Comma-separated filter-tier chain (ordered subset of the full chain).
ENV_FILTER_TIERS = "REPRO_FILTER_TIERS"
#: Durability discipline for persistence writes: ``always``/``batch``/``never``.
ENV_FSYNC = "REPRO_FSYNC"

#: Default per-candidate A* state budget (the A* module's own default).
DEFAULT_VERIFY_BUDGET = 2_000_000
#: Default TA top-k (Table II) and CA checkpoint period (paper defaults).
DEFAULT_K = 100
DEFAULT_H = 1000
#: Section V-E's 50 % rule for the Theorem-1 partial check.
DEFAULT_PARTIAL_FRACTION = 0.5
#: Default delta-compaction threshold: rewrite the sidecar once the journal
#: exceeds this fraction of the base graph count (see repro.perf.diskcat).
DEFAULT_DELTA_COMPACT = 0.25

#: Valid fsync disciplines, strongest first.  ``always`` fsyncs at every
#: durability barrier (and the parent directory after renames), ``batch``
#: keeps only the ordering-critical barriers (one fsync per save), and
#: ``never`` trusts write ordering alone — safe against process crashes
#: (the page cache survives a SIGKILL) but not against power loss.
FSYNC_POLICIES = ("always", "batch", "never")
#: Default durability discipline: the ordering-critical barriers only.
DEFAULT_FSYNC_POLICY = "batch"

#: The full filter-tier chain, in execution order.  ``embed`` is the
#: constant-time label/degree embedding pre-filter, ``anchor`` the
#: assignment-based anchored lower/upper bound ahead of exact A*; the
#: three paper stages keep their names.  A configured chain must be an
#: ordered subsequence of this tuple containing the three paper stages.
FULL_TIER_CHAIN = ("embed", "ta", "ca", "anchor", "verify")
#: The paper's configuration: TA -> CA -> verify, the extra tiers off.
#: The figure benches and the paper baseline adapter pin this chain.
PAPER_FILTER_TIERS = ("ta", "ca", "verify")
#: Default chain: every tier on, chosen on ``perfbench`` (pdg-churn
#: ``queries_per_s`` 1.77x the paper chain, aids-tight 1.22x).
DEFAULT_FILTER_TIERS = FULL_TIER_CHAIN


def validate_filter_tiers(tiers) -> Tuple[str, ...]:
    """Normalise and validate a filter-tier chain.

    Accepts a comma-separated string, or any iterable of names (lists
    arrive from the persisted JSON config round-trip).  The result must
    be an ordered subsequence of :data:`FULL_TIER_CHAIN` that keeps the
    three paper stages (``ta``, ``ca``, ``verify``) — the new tiers are
    strictly additive pre-filters, never replacements.
    """
    if isinstance(tiers, str):
        names = tuple(part.strip() for part in tiers.split(",") if part.strip())
    else:
        names = tuple(tiers)
    unknown = [name for name in names if name not in FULL_TIER_CHAIN]
    if unknown:
        raise ValueError(
            f"unknown filter tier(s) {unknown} (choose from {FULL_TIER_CHAIN})"
        )
    if len(set(names)) != len(names):
        raise ValueError(f"filter_tiers contains duplicates: {names}")
    ordered = tuple(name for name in FULL_TIER_CHAIN if name in names)
    if ordered != names:
        raise ValueError(
            f"filter_tiers must follow the chain order {FULL_TIER_CHAIN}, got {names}"
        )
    missing = [name for name in ("ta", "ca", "verify") if name not in names]
    if missing:
        raise ValueError(f"filter_tiers must include {missing}")
    return names


# ---------------------------------------------------------------------------
# Raw environment accessors — the only os.environ reads in the package.
# ---------------------------------------------------------------------------

def env_raw(name: str) -> Optional[str]:
    """Read one environment variable (the package's only ``os.environ`` use)."""
    return os.environ.get(name)


def env_str(name: str, default: str = "") -> str:
    """String knob: the variable's value, or *default* when unset."""
    raw = env_raw(name)
    return raw if raw is not None else default


def env_int(name: str, default: int) -> int:
    """Integer knob: unset or unparsable values degrade to *default*."""
    raw = env_raw(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        return default


def env_float(name: str, default: Optional[float]) -> Optional[float]:
    """Float knob: unset or unparsable values degrade to *default*."""
    raw = env_raw(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        return default


def env_bool(name: str, default: bool = False) -> bool:
    """Boolean knob: ``1/true/yes/on`` ↦ True, ``0/false/no/off`` ↦ False.

    Unset or unrecognised values degrade to *default*, matching the other
    ``env_*`` accessors' refusal to let one bad export take queries down.
    """
    raw = env_raw(name)
    if raw is None:
        return default
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off", ""):
        return False
    return default


def _env_assignment_backend() -> Optional[str]:
    """Environment default for the assignment backend (None = ``auto``).

    Unknown names raise at :class:`EngineConfig` construction time (fail
    fast — the same contract as an explicit kwarg), mirroring the legacy
    per-solve behaviour where a bad export raised mid-query.
    """
    raw = env_raw(ENV_ASSIGNMENT_BACKEND)
    return raw or None


def _env_topk_backend() -> Optional[str]:
    """Environment default for the top-k backend (None = the default rule).

    Unknown names, the retired ``auto`` among them, degrade to ``None`` so
    one bad shell export cannot take queries down.
    """
    raw = env_str(ENV_TOPK_BACKEND).strip().lower()
    return raw if raw in ("ta", "scan") else None


def _env_fsync_policy() -> str:
    """Environment default for the fsync discipline (unknown degrades).

    Mirrors the top-k knob's robustness contract: a typo'd shell
    export degrades to the default rather than taking persistence down.
    Explicit constructor kwargs still fail fast in ``__post_init__``.
    """
    raw = env_str(ENV_FSYNC).strip().lower()
    return raw if raw in FSYNC_POLICIES else DEFAULT_FSYNC_POLICY


def _env_filter_tiers() -> Optional[Tuple[str, ...]]:
    """Environment default for the tier chain (invalid degrades to default).

    Explicit kwargs still fail fast in ``__post_init__``; only the
    environment path degrades, per the shared robustness contract.
    """
    raw = env_raw(ENV_FILTER_TIERS)
    if raw is None:
        return None
    try:
        return validate_filter_tiers(raw)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# EngineConfig
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EngineConfig:
    """Every engine tuning knob, resolved once and immutable thereafter.

    Build one with :meth:`from_env` (environment defaults, explicit kwargs
    win) and derive per-call variants with :meth:`override`.  Instances are
    frozen and hashable, travel to worker processes by pickling, and never
    consult the environment after construction.

    Attributes
    ----------
    k:
        TA top-k per query star (Table II default 100).
    h:
        CA checkpoint period in list accesses (paper default 1000).
    partial_fraction:
        Share of a graph's stars that must be revealed before the
        Theorem-1 partial check runs (Section V-E's 50 % rule); values
        above 1 postpone the check until the graph is force-resolved.
    assignment_backend:
        ``pure`` / ``scipy`` / ``auto``; ``None`` means ``auto``.
        Env: ``REPRO_ASSIGNMENT_BACKEND``.
    topk_backend:
        ``ta`` (Algorithm 2) / ``scan``; ``None`` runs ``scan``.
        Env: ``REPRO_TOPK_BACKEND``.
    batch_workers:
        Worker processes for batch range queries; 1 = serial.
        Env: ``REPRO_BATCH_WORKERS``.
    verify_workers:
        Worker processes for exact-verification A* runs; 1 = in-process.
        Env: ``REPRO_VERIFY_WORKERS``.
    verify_budget:
        Per-candidate A* state budget for exact verification.
        Env: ``REPRO_VERIFY_BUDGET``.
    verify_deadline:
        Wall-clock seconds after which no further A* runs are scheduled in
        one query's verification; ``None`` = no deadline.
        Env: ``REPRO_VERIFY_DEADLINE``.
    task_timeout:
        Seconds one supervised worker task may run before its workers are
        killed and the unfinished tasks run in the parent process;
        ``None`` = no per-task timeout.  Env: ``REPRO_TASK_TIMEOUT``.
    fault_plan:
        Scripted fault-injection plan (see
        :mod:`repro.resilience.faults`); ``None`` = faults disabled.
        Env: ``REPRO_FAULT_PLAN``.
    trace:
        Span tracing on/off.  When off (the default) the executor carries
        the null tracer, whose span context manager is a shared no-op —
        the hot loops pay one truthiness test.  Env: ``REPRO_TRACE``.
    trace_path:
        When set, every traced query appends its spans to this file as
        JSON lines (see :mod:`repro.obs.export`).  Implies nothing about
        ``trace`` — both knobs must be on to write.
        Env: ``REPRO_TRACE_PATH``.
    metrics:
        Feed the process-global metrics registry
        (:data:`repro.obs.metrics.GLOBAL_METRICS`) after every executed
        query.  Env: ``REPRO_METRICS``.
    index_path:
        Explicit path for the on-disk ``.segosx`` index sidecar; ``None``
        derives it from the graph file (``<db>.segosx``).
        Env: ``REPRO_INDEX_PATH``.
    fsync_policy:
        Durability discipline for every persistence write (text replace,
        sidecar write, delta append): ``always`` fsyncs at each barrier
        plus the parent directory after renames, ``batch`` (the default)
        keeps only the ordering-critical barriers — the delta record
        before the header that claims it, the temp file before the
        ``os.replace``, the directory after it — and ``never`` issues no
        fsync at all.  All three keep the write *ordering*, so a killed
        process can never corrupt the pair; ``never`` additionally bets
        against power loss.  Env: ``REPRO_FSYNC``.
    delta_compact:
        Compaction threshold for the sidecar's append-only delta journal,
        as a fraction of the base graph count: once the accumulated ops
        exceed ``delta_compact * len(base)`` a save rewrites the full
        sidecar instead of appending.  ``0`` compacts on every save.
        Env: ``REPRO_DELTA_COMPACT``.
    filter_tiers:
        The composable filter-tier chain the query planner executes, as
        an ordered subsequence of :data:`FULL_TIER_CHAIN` that keeps the
        three paper stages.  The default is the full chain: ``embed``
        adds the constant-time label/degree embedding pre-filter ahead
        of TA and ``anchor`` adds the assignment-based anchored bound
        ahead of exact A*.  :data:`PAPER_FILTER_TIERS`
        (``ta, ca, verify``) is the paper's pipeline.  Both extra tiers
        prune only provable non-answers, so the match set is identical
        with any valid chain.  Accepts a comma-separated
        string or a sequence of names.  Env: ``REPRO_FILTER_TIERS``.
    """

    k: int = DEFAULT_K
    h: int = DEFAULT_H
    partial_fraction: float = DEFAULT_PARTIAL_FRACTION
    assignment_backend: Optional[str] = None
    topk_backend: Optional[str] = None
    batch_workers: int = 1
    verify_workers: int = 1
    verify_budget: int = DEFAULT_VERIFY_BUDGET
    verify_deadline: Optional[float] = None
    task_timeout: Optional[float] = None
    fault_plan: Optional[str] = None
    trace: bool = False
    trace_path: Optional[str] = None
    metrics: bool = False
    index_path: Optional[str] = None
    fsync_policy: str = DEFAULT_FSYNC_POLICY
    delta_compact: float = DEFAULT_DELTA_COMPACT
    filter_tiers: Tuple[str, ...] = DEFAULT_FILTER_TIERS

    def __post_init__(self) -> None:
        # Normalise before validating: the persisted-config JSON round-trip
        # hands back a list, and front-end callers may pass a comma string.
        object.__setattr__(
            self, "filter_tiers", validate_filter_tiers(self.filter_tiers)
        )
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.h < 1:
            raise ValueError("h must be >= 1")
        if self.partial_fraction < 0.0:
            raise ValueError("partial_fraction must be non-negative")
        if self.batch_workers < 1:
            raise ValueError("batch_workers must be >= 1")
        if self.verify_workers < 1:
            raise ValueError("verify_workers must be >= 1")
        if self.verify_budget < 1:
            raise ValueError("verify_budget must be >= 1")
        if self.verify_deadline is not None and self.verify_deadline <= 0:
            raise ValueError("verify_deadline must be positive")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive")
        if self.fsync_policy not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync_policy {self.fsync_policy!r} "
                f"(choose from {', '.join(FSYNC_POLICIES)})"
            )
        if self.delta_compact < 0:
            raise ValueError("delta_compact must be non-negative")
        if self.fault_plan is not None:
            # A typo'd fault plan fails fast here, not by silently never
            # firing mid-experiment.  Imported lazily (resilience imports
            # this module at startup).
            from .resilience.faults import FaultPlan

            FaultPlan.parse(self.fault_plan)
        # Backend names fail fast at construction, not mid-query.  Imported
        # lazily: the perf/core modules import this module at startup.
        # Resolving ``None`` too keeps the scipy probe (an import) at
        # construction time instead of inside the first timed query.
        from .perf.assignment import resolve_backend

        resolve_backend(self.assignment_backend)
        if self.topk_backend is not None:
            from .core.ta_search import resolve_topk_backend

            resolve_topk_backend(self.topk_backend)

    @classmethod
    def from_env(cls, **overrides: Any) -> "EngineConfig":
        """Build a config from the environment, with *overrides* winning.

        Overrides whose value is ``None`` mean "not specified" and fall
        back to the environment (or the built-in default) — exactly the
        contract of the engine's optional constructor kwargs.
        """
        values: Dict[str, Any] = {
            "k": DEFAULT_K,
            "h": DEFAULT_H,
            "partial_fraction": DEFAULT_PARTIAL_FRACTION,
            "assignment_backend": _env_assignment_backend(),
            "topk_backend": _env_topk_backend(),
            "batch_workers": env_int(ENV_BATCH_WORKERS, 1),
            "verify_workers": env_int(ENV_VERIFY_WORKERS, 1),
            "verify_budget": env_int(ENV_VERIFY_BUDGET, DEFAULT_VERIFY_BUDGET),
            "verify_deadline": env_float(ENV_VERIFY_DEADLINE, None),
            "task_timeout": env_float(ENV_TASK_TIMEOUT, None),
            "fault_plan": env_raw(ENV_FAULT_PLAN) or None,
            "trace": env_bool(ENV_TRACE, False),
            "trace_path": env_raw(ENV_TRACE_PATH) or None,
            "metrics": env_bool(ENV_METRICS, False),
            "index_path": env_raw(ENV_INDEX_PATH) or None,
            "fsync_policy": _env_fsync_policy(),
            "delta_compact": env_float(ENV_DELTA_COMPACT, DEFAULT_DELTA_COMPACT),
            "filter_tiers": _env_filter_tiers() or DEFAULT_FILTER_TIERS,
        }
        known = {f.name for f in fields(cls)}
        for name, value in overrides.items():
            if name not in known:
                raise TypeError(f"unknown EngineConfig field {name!r}")
            if value is not None:
                values[name] = value
        return cls(**values)

    def override(self, **overrides: Any) -> "EngineConfig":
        """Return a new config with non-``None`` *overrides* applied.

        This is the per-call layer of the precedence chain: front-end
        kwargs like ``range_query(..., k=5, verify_workers=2)`` funnel
        through here, so every stage reads one coherent config object.
        """
        known = {f.name for f in fields(self)}
        changes = {}
        for name, value in overrides.items():
            if name not in known:
                raise TypeError(f"unknown EngineConfig field {name!r}")
            if value is not None:
                changes[name] = value
        return replace(self, **changes) if changes else self

    def knobs(self) -> Mapping[str, Any]:
        """Field name → value mapping (stable order; for reporting/tests)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: Field name → environment variable for every env-backed knob.
ENV_KNOBS: Tuple[Tuple[str, str], ...] = (
    ("assignment_backend", ENV_ASSIGNMENT_BACKEND),
    ("topk_backend", ENV_TOPK_BACKEND),
    ("batch_workers", ENV_BATCH_WORKERS),
    ("verify_workers", ENV_VERIFY_WORKERS),
    ("verify_budget", ENV_VERIFY_BUDGET),
    ("verify_deadline", ENV_VERIFY_DEADLINE),
    ("task_timeout", ENV_TASK_TIMEOUT),
    ("fault_plan", ENV_FAULT_PLAN),
    ("trace", ENV_TRACE),
    ("trace_path", ENV_TRACE_PATH),
    ("metrics", ENV_METRICS),
    ("index_path", ENV_INDEX_PATH),
    ("fsync_policy", ENV_FSYNC),
    ("delta_compact", ENV_DELTA_COMPACT),
    ("filter_tiers", ENV_FILTER_TIERS),
)
