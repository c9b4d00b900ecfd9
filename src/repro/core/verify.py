"""Verification scheduling for filter-and-verify pipelines.

GED verification is NP-hard, so *order matters*: verifying the most
promising candidates first produces answers early, and per-candidate
budgets stop one pathological pair from starving the rest.  The paper
leaves verification implicit ("candidates verification using the GED is an
extremely expensive process"); this module makes it a first-class,
schedulable step:

* candidates are verified in increasing ``L_m`` order (most similar first);
* candidates whose ``U_m ≤ τ`` are admitted without any A* at all;
* candidates whose ``L_m > τ`` (possible when the filter admitted them via
  an aggregation shortcut) are rejected without A*;
* each A* run gets a state budget; blown budgets are reported as
  ``undecided`` rather than crashing the batch;
* with ``workers > 1`` the A* runs fan out over the **supervised** process
  pool through :func:`repro.perf.parallel.fan_out`: workers attach the
  engine from its :class:`~repro.perf.diskcat.DiskHandle` and read the
  candidate graphs from the mapped index, so each task ships only a gid.
  The bounds stage stays in-process (it is cheap and prunes most of the
  batch); the surviving runs are dispatched in the same ``L_m``-ascending
  priority order, each with its budget intact.  The pool runs one round:
  hung workers are killed after ``task_timeout``, and after any pool
  failure the completed runs are salvaged and the unfinished ones run
  in-process.  A blown ``deadline`` terminates the worker processes
  outright so it actually bounds wall-clock.  Without a handle the runs
  stay serial with identical answers, and every degradation lands in
  :attr:`VerificationReport.degradations`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Set, Tuple

from ..config import ENV_TASK_TIMEOUT, env_float
from ..errors import SearchBudgetExceeded
from ..graphs.edit_distance import PreparedQuery, graph_edit_distance, prepare_query
from ..graphs.model import Graph
from .bounds import settle_by_full_bounds
from ..obs.trace import NULL_TRACER, current_tracer
from ..perf.parallel import fan_out
from ..resilience.faults import resolve_fault_plan
from ..resilience.telemetry import DegradationEvent

#: Default per-candidate A* state budget for *direct* verify_candidates
#: calls; engine-driven verification uses ``EngineConfig.verify_budget``.
DEFAULT_VERIFY_BUDGET = 200_000


@dataclass
class VerificationReport:
    """Outcome of verifying a candidate set."""

    matches: Set[object] = field(default_factory=set)
    rejected: Set[object] = field(default_factory=set)
    undecided: Set[object] = field(default_factory=set)
    #: how many candidates were settled by bounds alone (no A* run)
    settled_by_bounds: int = 0
    astar_runs: int = 0
    #: A* states expanded across every run (serial and worker-side alike)
    astar_expansions: int = 0
    elapsed: float = 0.0
    #: worker processes the A* stage actually ran on (1 = in-process)
    workers_used: int = 1
    #: degradation telemetry from the supervised pool (empty = clean run)
    degradations: List[DegradationEvent] = field(default_factory=list)

    def decided(self) -> bool:
        """True when no candidate was left undecided."""
        return not self.undecided


def _astar_outcome(
    graph: Graph, context: Tuple[PreparedQuery, int, int]
) -> Tuple[str, int]:
    """One A* run folded to ``(scheduling outcome, states expanded)``.

    *context* is ``(prepared, tau, budget)``: the hoisted query-side search
    state (:func:`~repro.graphs.edit_distance.prepare_query`) is shared by
    every candidate of one query — in-process and, pickled once, by every
    worker — instead of each A* run recomputing it cold.
    """
    prepared, tau, budget = context
    counters: dict = {}
    try:
        distance = graph_edit_distance(
            prepared.graph,
            graph,
            threshold=tau,
            budget=budget,
            counters=counters,
            prepared=prepared,
        )
    except SearchBudgetExceeded:
        return "undecided", counters.get("expanded", 0)
    verdict = "match" if distance is not None else "rejected"
    return verdict, counters.get("expanded", 0)


def _traced_astar(
    tracer, gid: object, graph: Graph, context: Tuple[PreparedQuery, int, int]
) -> Tuple[str, int]:
    if not tracer.enabled:
        return _astar_outcome(graph, context)
    with tracer.span("verify.astar", gid=str(gid)) as span:
        verdict, expanded = _astar_outcome(graph, context)
        span.attrs["verdict"] = verdict
        span.attrs["expanded"] = expanded
    return verdict, expanded


def _astar_task(engine, context: Tuple[PreparedQuery, int, int], gid: object):
    """Worker-side A* run against the attached engine's graph store."""
    tracer = current_tracer() or NULL_TRACER  # installed by the pool if traced
    return _traced_astar(tracer, gid, engine.graph(gid), context)


def _record(
    report: VerificationReport, gid: object, verdict: str, expanded: int
) -> None:
    report.astar_runs += 1
    report.astar_expansions += expanded
    if verdict == "match":
        report.matches.add(gid)
    elif verdict == "rejected":
        report.rejected.add(gid)
    else:
        report.undecided.add(gid)


def verify_candidates(
    graphs: Mapping[object, Graph],
    query: Graph,
    candidates: Sequence[object],
    tau: int,
    *,
    already_confirmed: Sequence[object] = (),
    budget_per_candidate: int = DEFAULT_VERIFY_BUDGET,
    deadline: Optional[float] = None,
    workers: int = 1,
    assignment_backend: Optional[str] = None,
    task_timeout: Optional[float] = None,
    fault_plan=None,
    tracer=NULL_TRACER,
    disk_handle=None,
) -> VerificationReport:
    """Verify *candidates* against ``λ(query, ·) ≤ tau``.

    ``already_confirmed`` entries (e.g. upper-bound hits from the filter)
    are admitted directly.  ``deadline`` (seconds) stops scheduling new A*
    runs once exceeded; unprocessed candidates end up ``undecided``.
    ``workers`` above 1 dispatches the A* runs to the supervised process
    pool when *disk_handle* (the engine's
    :meth:`~repro.core.engine.SegosIndex.disk_handle`) is current — without
    one they run in-process and a degradation event says so — governed by
    *task_timeout* (seconds per A* task; ``None`` for the
    ``REPRO_TASK_TIMEOUT`` environment default) and *fault_plan* (a spec
    string, a parsed
    :class:`~repro.resilience.faults.FaultPlan`, or ``None`` for the
    ``REPRO_FAULT_PLAN`` environment default).

    Examples
    --------
    >>> from repro.graphs.model import Graph
    >>> g = Graph(["a", "b"], [(0, 1)])
    >>> report = verify_candidates({"g": g}, g, ["g"], 0)
    >>> report.matches
    {'g'}
    """
    if tau < 0:
        raise ValueError("tau must be non-negative")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    started = time.perf_counter()
    report = VerificationReport()
    report.matches.update(already_confirmed)

    # Compute bounds once per candidate; schedule by increasing L_m.
    scheduled: List[Tuple[float, object]] = []
    for gid in candidates:
        if gid in report.matches:
            continue
        verdict, l_m = settle_by_full_bounds(
            query, graphs[gid], tau, backend=assignment_backend
        )
        if verdict == "match":
            report.matches.add(gid)
            report.settled_by_bounds += 1
        elif verdict == "pruned":
            report.rejected.add(gid)
            report.settled_by_bounds += 1
        else:
            scheduled.append((l_m, gid))
    scheduled.sort(key=lambda item: (item[0], str(item[1])))

    gids = [gid for _, gid in scheduled]
    context = (prepare_query(query), tau, budget_per_candidate) if gids else None
    remaining = gids
    if workers > 1 and len(gids) > 1:
        outcome = fan_out(
            disk_handle,
            _astar_task,
            context,
            gids,
            stage="verify",
            workers=workers,
            task_timeout=(
                task_timeout
                if task_timeout is not None
                else env_float(ENV_TASK_TIMEOUT, None)
            ),
            faults=resolve_fault_plan(fault_plan),
            tracer=tracer,
            deadline=deadline,
            started=started,
        )
        report.degradations.extend(outcome.events)
        report.workers_used = max(outcome.workers_used, 1)
        for index, (verdict, expanded) in outcome.results.items():
            _record(report, gids[index], verdict, expanded)
        remaining = [gid for index, gid in enumerate(gids) if index not in outcome.results]

    for gid in remaining:
        if deadline is not None and time.perf_counter() - started > deadline:
            report.undecided.add(gid)
            continue
        _record(report, gid, *_traced_astar(tracer, gid, graphs[gid], context))
    report.elapsed = time.perf_counter() - started
    return report
