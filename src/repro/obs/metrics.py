"""The metrics registry: counters, gauges and histograms over query runs.

Where spans answer "what happened inside *this* query", metrics answer
"what does the workload look like across *all* of them" — the aggregate
view a serving deployment scrapes.  The design follows the Prometheus
data model (metric name + label set → one time series) without any
dependency: :func:`repro.obs.export.prometheus_text` renders a registry
in the text exposition format.

Every number is derived from :class:`~repro.core.stats.QueryStats` by
:func:`record_query_metrics` *after* a query finishes, never sampled
mid-flight.  That has two consequences worth the trade:

* metrics are byte-identical whether tracing is on or off (a property
  test pins this), because both read the same finished counters;
* worker processes feed their own (discarded) registries — batch fan-out
  still reports correctly because the *merged* stats come home with the
  results and are recorded by the parent.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple


#: Default histogram buckets (seconds) — smoke queries land in the middle.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0,
)
#: Default histogram buckets for counts (TA accesses, A* expansions, ...).
DEFAULT_COUNT_BUCKETS: Tuple[float, ...] = (
    1, 10, 100, 1_000, 10_000, 100_000, 1_000_000,
)

LabelPairs = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, str]) -> LabelPairs:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count (thread-safe)."""

    kind = "counter"

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down (cache size, workers in use)."""

    kind = "gauge"

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket distribution with cumulative counts, Prometheus-style.

    ``counts[i]`` is the number of observations ``<= buckets[i]``; the
    implicit ``+Inf`` bucket equals ``count``.
    """

    kind = "histogram"

    def __init__(self, buckets: Sequence[float] = DEFAULT_TIME_BUCKETS) -> None:
        self.buckets: Tuple[float, ...] = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self._counts = [0] * len(self.buckets)
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[index] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def counts(self) -> List[int]:
        """Cumulative per-bucket counts (excluding the +Inf bucket)."""
        return list(self._counts)


class MetricsRegistry:
    """Name + label-set → metric, with lazy creation and atomic reset.

    The factory methods (:meth:`counter`, :meth:`gauge`,
    :meth:`histogram`) return the existing series when called again with
    the same name and labels, so instrumentation points never need to
    pre-register anything.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, LabelPairs], Any] = {}
        self._help: Dict[str, Tuple[str, str]] = {}  # name -> (kind, help)

    def _get(self, name: str, labels: Mapping[str, str], factory, kind: str, help: str):
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                known = self._help.get(name)
                if known is not None and known[0] != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {known[0]}"
                    )
                metric = self._metrics[key] = factory()
                if known is None or (help and not known[1]):
                    self._help[name] = (kind, help or (known[1] if known else ""))
            return metric

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get(name, labels, Counter, "counter", help)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get(name, labels, Gauge, "gauge", help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get(name, labels, lambda: Histogram(buckets), "histogram", help)

    def reset(self) -> None:
        """Drop every series (tests; not part of the serving surface)."""
        with self._lock:
            self._metrics.clear()
            self._help.clear()

    def collect(self) -> Iterator[Tuple[str, str, str, List[Tuple[LabelPairs, Any]]]]:
        """Yield ``(name, kind, help, [(labels, metric), ...])`` sorted."""
        with self._lock:
            grouped: Dict[str, List[Tuple[LabelPairs, Any]]] = {}
            for (name, labels), metric in self._metrics.items():
                grouped.setdefault(name, []).append((labels, metric))
            help_map = dict(self._help)
        for name in sorted(grouped):
            kind, help = help_map.get(name, ("counter", ""))
            yield name, kind, help, sorted(grouped[name], key=lambda item: item[0])

    def snapshot(self) -> Dict[str, float]:
        """Flat ``name{labels}`` → value mapping (histograms: sum/count).

        This is the comparison form the traced-vs-untraced identity test
        diffs — deterministic keys, plain floats.
        """
        flat: Dict[str, float] = {}
        for name, kind, _, series in self.collect():
            for labels, metric in series:
                suffix = (
                    "{" + ",".join(f'{k}="{v}"' for k, v in labels) + "}"
                    if labels
                    else ""
                )
                if kind == "histogram":
                    flat[f"{name}_sum{suffix}"] = metric.sum
                    flat[f"{name}_count{suffix}"] = float(metric.count)
                else:
                    flat[f"{name}{suffix}"] = metric.value
        return flat


#: The process-global registry fed when ``EngineConfig.metrics`` is on.
GLOBAL_METRICS = MetricsRegistry()


def record_query_metrics(
    registry: MetricsRegistry,
    stats,
    elapsed: float,
    *,
    mode: str = "range",
) -> None:
    """Fold one finished query's :class:`QueryStats` into *registry*.

    Called by the plan executor after ``stats`` stops changing, so every
    number here is final — recording is pure bookkeeping and cannot
    perturb the measured query.
    """
    registry.counter(
        "repro_queries_total", "queries executed", mode=mode
    ).inc()
    registry.histogram(
        "repro_query_seconds", "end-to-end query latency", mode=mode
    ).observe(elapsed)

    # TA stage: search fan-out and depth (sorted accesses per query).
    registry.counter(
        "repro_ta_searches_total", "top-k sub-unit searches executed"
    ).inc(stats.ta_searches)
    registry.counter(
        "repro_ta_accesses_total", "TA sorted accesses"
    ).inc(stats.ta_accesses)
    registry.histogram(
        "repro_ta_depth", "TA sorted accesses per query",
        buckets=DEFAULT_COUNT_BUCKETS,
    ).observe(stats.ta_accesses)

    # CA stage: sorted (list-entry) vs random (mapping-distance) accesses.
    registry.counter(
        "repro_ca_accesses_total", "CA accesses", kind="sorted"
    ).inc(stats.list_entries_scanned)
    registry.counter(
        "repro_ca_accesses_total", "CA accesses", kind="random"
    ).inc(stats.graphs_accessed)

    # Candidates surviving each bound in the DC chain.
    for bound, pruned in sorted(stats.pruned_by.items()):
        registry.counter(
            "repro_pruned_total", "graphs pruned per bound", bound=bound
        ).inc(pruned)
    registry.counter(
        "repro_candidates_total", "graphs surviving every filter"
    ).inc(stats.candidates)
    registry.counter(
        "repro_confirmed_total", "matches confirmed without GED"
    ).inc(stats.confirmed_matches)

    # Verification: bound-settled vs A* runs, and A* search effort.
    registry.counter(
        "repro_verify_settled_by_bounds_total",
        "verification candidates settled by L_m/U_m alone",
    ).inc(stats.settled_by_bounds)
    registry.counter(
        "repro_astar_runs_total", "A* GED runs dispatched"
    ).inc(stats.astar_runs)
    registry.counter(
        "repro_astar_expansions_total", "A* states expanded"
    ).inc(stats.astar_expansions)
    if stats.astar_runs:
        registry.histogram(
            "repro_astar_expansions", "A* states expanded per query",
            buckets=DEFAULT_COUNT_BUCKETS,
        ).observe(stats.astar_expansions)

    # Stage wall clocks (the paper's where-does-time-go breakdown).
    for stage, seconds in sorted(stats.stage_seconds.items()):
        registry.counter(
            "repro_stage_seconds_total", "cumulative stage wall clock",
            stage=stage,
        ).inc(seconds)

    # Resilience: pool degradations / salvage / losses, by failure point.
    for event in stats.degradations:
        registry.counter(
            "repro_degradations_total", "pool degradation events",
            point=event.point,
        ).inc()
        registry.counter(
            "repro_pool_salvaged_total", "task results salvaged across failures"
        ).inc(event.salvaged)
        registry.counter(
            "repro_pool_lost_total", "tasks abandoned to fallbacks"
        ).inc(event.lost)
