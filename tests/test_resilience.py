"""Tests for the resilience layer: fault plans, the supervised pool,
partial-result salvage, and degradation telemetry.

The deterministic pool tests run ``run_supervised`` directly with
``workers=1`` so worker death cannot race sibling futures; the end-to-end
acceptance tests go through the public engine API with scripted
``EngineConfig.fault_plan`` specs, on saved-and-loaded engines (pool
workers attach the on-disk index by ``DiskHandle``).
"""

from __future__ import annotations

import os
import pathlib
import random
import time
import types
from concurrent.futures import ProcessPoolExecutor, wait

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    ENV_FAULT_PLAN,
    ENV_METRICS,
    ENV_TRACE,
    PAPER_FILTER_TIERS,
    EngineConfig,
)
from repro.core import engine as engine_module
from repro.core import verify as verify_module
from repro.core.engine import SegosIndex
from repro.core.persistence import load_index, save_index
from repro.core.stats import QueryStats
from repro.core.verify import verify_candidates
from repro.datasets import aids_like, sample_queries
from repro.errors import PoolBrokenError, ReproError, WorkerTimeout
from repro.graphs.model import Graph
from repro.perf.diskcat import default_sidecar_path, read_header
from repro.resilience import (
    EMPTY_PLAN,
    DegradationEvent,
    FaultInjected,
    FaultPlan,
    FaultRule,
    PoolOutcome,
    PoolTask,
    random_spec,
    resolve_fault_plan,
    run_supervised,
)
from repro.resilience import pool as pool_module
from repro.resilience.faults import INJECTION_POINTS


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_empty_specs_are_falsy_noops(self):
        for spec in (None, "", "   ", " ; "):
            plan = FaultPlan.parse(spec)
            assert not plan
            assert plan.fire("worker.crash") is None

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown fault injection point"):
            FaultPlan.parse("worker.explode")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown fault rule key"):
            FaultPlan.parse("worker.crash:color=red")

    def test_malformed_token_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            FaultPlan.parse("worker.crash:times")

    def test_times_counts_down(self):
        plan = FaultPlan.parse("worker.crash:times=2")
        assert plan.fire("worker.crash") is not None
        assert plan.fire("worker.crash") is not None
        assert plan.fire("worker.crash") is None

    def test_times_inf_never_burns_out(self):
        plan = FaultPlan.parse("chunk.result:times=inf")
        for _ in range(10):
            assert plan.fire("chunk.result") is not None

    def test_task_filter(self):
        plan = FaultPlan.parse("worker.crash:chunk=1")
        assert plan.fire("worker.crash", task=0) is None
        rule = plan.fire("worker.crash", task=1)
        assert rule is not None and rule.task == 1

    def test_stage_filter(self):
        plan = FaultPlan.parse("pickle.engine:stage=verify")
        assert plan.fire("pickle.engine", stage="batch") is None
        assert plan.fire("pickle.engine", stage="verify") is not None

    def test_seconds_parsed_for_hang(self):
        plan = FaultPlan.parse("worker.hang:seconds=2.5")
        rule = plan.fire("worker.hang")
        assert rule is not None and rule.seconds == 2.5

    def test_multi_rule_plans(self):
        plan = FaultPlan.parse("pool.spawn:times=1; chunk.result:stage=verify")
        assert plan.fire("pool.spawn") is not None
        assert plan.fire("chunk.result", stage="batch") is None
        assert plan.fire("chunk.result", stage="verify") is not None

    def test_resolve_passthrough_keeps_countdown_state(self):
        plan = FaultPlan.parse("worker.crash:times=1")
        plan.fire("worker.crash")
        assert resolve_fault_plan(plan) is plan
        assert resolve_fault_plan(plan).fire("worker.crash") is None

    def test_resolve_falls_back_to_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "pool.spawn:times=3")
        plan = resolve_fault_plan(None)
        assert plan and plan.rules[0].point == "pool.spawn"
        monkeypatch.delenv("REPRO_FAULT_PLAN")
        assert not resolve_fault_plan(None)

    def test_random_spec_deterministic_and_valid(self):
        for seed in range(50):
            spec = random_spec(seed)
            assert spec == random_spec(seed)
            plan = FaultPlan.parse(spec)
            assert plan and plan.rules[0].point in INJECTION_POINTS

    def test_random_spec_never_draws_io_points(self):
        # An ambient io.* rule would SIGKILL the chaos leg's own pytest
        # process mid-save; those sites belong to random_io_spec.
        from repro.resilience.faults import POOL_POINTS

        for seed in range(200):
            point = random_spec(seed).split(":", 1)[0]
            assert point in POOL_POINTS

    def test_offset_key_parsed_for_torn_writes(self):
        plan = FaultPlan.parse("io.write:stage=delta.record:offset=17")
        rule = plan.fire("io.write", stage="delta.record")
        assert rule is not None and rule.offset == 17

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError, match="offset"):
            FaultPlan.parse("io.write:offset=-1")

    def test_random_io_spec_deterministic_and_hits_real_sites(self):
        from repro.resilience.faults import (
            IO_REWRITE_SITES,
            IO_SAVE_SITES,
            random_io_spec,
        )

        sites = set(IO_SAVE_SITES + IO_REWRITE_SITES)
        for seed in range(50):
            spec = random_io_spec(seed)
            assert spec == random_io_spec(seed)
            rule = FaultPlan.parse(spec).rules[0]
            assert (rule.point, rule.stage) in sites
            assert rule.times == 1

    def test_fault_injected_is_a_repro_error(self):
        assert issubclass(FaultInjected, ReproError)


# ----------------------------------------------------------------------
# Policy resolution
# ----------------------------------------------------------------------
def _capture_fan_out(module, monkeypatch):
    """Replace *module*'s ``fan_out`` with one that records its keyword
    arguments and starts no pool (every item comes back unfinished)."""
    seen = {}

    def fake_fan_out(handle, fn, context, items, **kwargs):
        seen.update(kwargs)
        return PoolOutcome(unfinished=list(range(len(items))))

    monkeypatch.setattr(module, "fan_out", fake_fan_out)
    return seen


class TestResiliencePolicy:
    """The pool's whole policy is ``task_timeout``: an engine knob with an
    environment default, passed straight through to the pool."""

    def test_defaults(self):
        config = EngineConfig()
        assert config.task_timeout is None
        assert {"max_pool_retries", "retry_backoff"}.isdisjoint(config.knobs())

    def test_from_env(self, monkeypatch, verify_corpus):
        graphs, query, baseline, _ = verify_corpus
        seen = _capture_fan_out(verify_module, monkeypatch)
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "7.5")
        assert EngineConfig.from_env().task_timeout == 7.5
        # A direct call reads the environment default ...
        report = verify_candidates(graphs, query, sorted(graphs), 4, workers=2)
        assert seen["task_timeout"] == 7.5
        assert report.matches == baseline.matches
        # ... and an explicit argument wins.
        verify_candidates(graphs, query, sorted(graphs), 4, workers=2, task_timeout=2.0)
        assert seen["task_timeout"] == 2.0

    def test_from_config_and_engine_kwargs(self, monkeypatch, corpus, verify_corpus):
        graphs, queries = corpus
        seen = _capture_fan_out(engine_module, monkeypatch)
        engine = SegosIndex(graphs, task_timeout=3.0)
        engine.batch_range_query(queries[:2], tau=2, workers=2)
        assert seen["task_timeout"] == 3.0 and seen["stage"] == "batch"

        graphs, query, _, _ = verify_corpus
        seen = _capture_fan_out(verify_module, monkeypatch)
        engine = SegosIndex(graphs, task_timeout=4.0, filter_tiers=PAPER_FILTER_TIERS)
        engine.range_query(query, tau=4.0, verify="exact", verify_workers=2)
        assert seen["task_timeout"] == 4.0 and seen["stage"] == "verify"


# ----------------------------------------------------------------------
# Config knobs
# ----------------------------------------------------------------------
class TestConfigKnobs:
    def test_env_then_kwarg_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "9")
        monkeypatch.setenv("REPRO_FAULT_PLAN", "pool.spawn")
        config = EngineConfig.from_env()
        assert config.task_timeout == 9.0
        assert config.fault_plan == "pool.spawn"
        config = EngineConfig.from_env(task_timeout=1.0, fault_plan=None)
        assert config.task_timeout == 1.0
        monkeypatch.setenv("REPRO_FAULT_PLAN", "")
        assert EngineConfig.from_env().fault_plan is None

    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig.from_env(task_timeout=0)
        with pytest.raises(ValueError):
            EngineConfig.from_env(fault_plan="worker.explode")


# ----------------------------------------------------------------------
# The supervised pool (workers=1 keeps worker death deterministic)
# ----------------------------------------------------------------------
def _double(x):
    return 2 * x


def _sleep_forever(x):  # pragma: no cover - killed by the supervisor
    time.sleep(60)
    return x


def _counted_double(marker_dir, task_id, x):
    """Append one line per *execution* so tests can prove non-recomputation."""
    path = pathlib.Path(marker_dir) / f"calls-{task_id}.txt"
    with open(path, "a") as fh:
        fh.write("x\n")
    return 2 * x


def _fails_in_workers(parent_pid, x):
    """A real task exception: raises in a worker process, runs in the parent."""
    if os.getpid() != parent_pid:
        raise RuntimeError("task failed in a worker process")
    return 2 * x


def _executions(marker_dir, task_id):
    path = pathlib.Path(marker_dir) / f"calls-{task_id}.txt"
    return len(path.read_text().splitlines()) if path.exists() else 0


class _OneAtATimePool(ProcessPoolExecutor):
    """A pool that submits a task only once the previous one has ended."""

    def submit(self, *args, **kwargs):
        future = super().submit(*args, **kwargs)
        done, _ = wait([future], timeout=60)
        assert done, "task did not finish within 60 s"
        return future


def _tasks(n=3):
    return [PoolTask(i, _double, (i,)) for i in range(n)]


def _count_executors(monkeypatch, base=ProcessPoolExecutor):
    """Patch the pool class with a subclass of *base* that records each
    construction; returns the list it appends to."""
    built = []

    class CountingPool(base):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(pool_module, "ProcessPoolExecutor", CountingPool)
    return built


def _run_unfinished_serially(tasks, outcome):
    """What the callers do with a failed round: run the rest in-process."""
    answers = dict(outcome.results)
    for task in tasks:
        if task.task_id in outcome.unfinished:
            answers[task.task_id] = task.fn(*task.args)
    return answers


class TestRunSupervised:
    def test_healthy_run(self):
        outcome = run_supervised(_tasks(), workers=1)
        assert outcome.ok
        assert outcome.results == {0: 0, 1: 2, 2: 4}
        assert outcome.workers_used == 1
        assert outcome.events == []

    def test_chunk_result_fault_retried(self):
        """A one-off result fault is retried once, in the parent.

        The pool does not run a second round: the failed task comes back
        unfinished, its siblings are kept, and the caller's serial run of
        the unfinished task completes the answers.
        """
        faults = FaultPlan.parse("chunk.result:times=1")
        tasks = _tasks()
        outcome = run_supervised(tasks, workers=1, faults=faults)
        assert outcome.unfinished == [0]
        assert outcome.results == {1: 2, 2: 4}
        (event,) = outcome.events
        assert event.point == "chunk.result" and event.injected
        assert event.fallback == "serial" and event.lost == 1
        assert _run_unfinished_serially(tasks, outcome) == {0: 0, 1: 2, 2: 4}

    def test_chunk_result_fault_hands_the_task_back(self):
        """A failed task is handed back; its healthy siblings are salvaged."""
        faults = FaultPlan.parse("chunk.result:chunk=0:times=inf")
        outcome = run_supervised(_tasks(), workers=1, faults=faults)
        assert not outcome.ok
        assert outcome.unfinished == [0]
        assert outcome.results == {1: 2, 2: 4}
        (event,) = outcome.events
        assert event.point == "chunk.result" and event.injected
        assert event.fallback == "serial"
        assert event.salvaged == 2 and event.lost == 1

    def test_pool_spawn_fault_hands_every_task_back(self):
        faults = FaultPlan.parse("pool.spawn:times=1")
        outcome = run_supervised(_tasks(), workers=1, faults=faults)
        assert outcome.unfinished == [0, 1, 2]
        assert outcome.results == {} and outcome.workers_used == 0
        (event,) = outcome.events
        assert event.point == "pool.spawn" and event.injected
        assert event.fallback == "serial" and event.lost == 3

    def test_worker_crash_salvages_completed_tasks(self, tmp_path):
        """Crash one of three tasks; the completed one is *kept*.

        With one worker the tasks run strictly in order: task 0 completes,
        the crash directive kills the worker on task 1, task 2 never
        starts.  Task 0's result is salvaged and only tasks 1 and 2 are
        handed back — the worker-side execution counter proves nothing
        ran twice and no second pool re-ran the remainder.
        """
        marker = str(tmp_path)
        tasks = [PoolTask(i, _counted_double, (marker, i, i)) for i in range(3)]
        faults = FaultPlan.parse("worker.crash:chunk=1:times=1")
        outcome = run_supervised(tasks, workers=1, faults=faults)
        assert outcome.results == {0: 0}
        assert outcome.unfinished == [1, 2]
        assert [_executions(marker, i) for i in range(3)] == [1, 0, 0]
        (event,) = outcome.events
        assert event.point == "worker.crash" and event.injected
        assert event.salvaged == 1 and event.lost == 2
        assert event.fallback == "serial"

    def test_break_during_dispatch_is_a_pool_break(self, monkeypatch):
        """A worker that dies before dispatch finishes must not escape.

        The patched pool waits for each task before accepting the next,
        so the crash directive on task 0 always breaks the pool before
        task 1 is submitted: ``submit`` itself raises ``BrokenProcessPool``.
        That break must end the round like one seen through
        ``future.result``: every task is handed back for the serial path.
        """
        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", _OneAtATimePool)
        faults = FaultPlan.parse("worker.crash:chunk=0:times=1")
        tasks = _tasks()
        outcome = run_supervised(tasks, workers=1, faults=faults)
        assert outcome.unfinished == [0, 1, 2]
        assert outcome.results == {}
        (event,) = outcome.events
        assert event.point == "worker.crash" and event.injected
        assert event.fallback == "serial" and event.lost == 3
        assert _run_unfinished_serially(tasks, outcome) == {0: 0, 1: 2, 2: 4}

    def test_break_during_dispatch_opens_the_breaker(self, monkeypatch):
        """A pool that breaks on every attempt is given up at once.

        With a crash on every try, the first break ends the round: one
        executor is built, no second pool is spawned, and the whole batch
        goes to the serial path.
        """
        built = _count_executors(monkeypatch, base=_OneAtATimePool)
        faults = FaultPlan.parse("worker.crash:chunk=0:times=inf")
        outcome = run_supervised(_tasks(), workers=1, faults=faults)
        assert len(built) == 1
        assert not outcome.ok
        assert outcome.unfinished == [0, 1, 2]
        (event,) = outcome.events
        assert event.point == "worker.crash"
        assert event.fallback == "serial" and event.lost == 3

    def test_worker_hang_bounded_by_task_timeout(self):
        faults = FaultPlan.parse("worker.hang:times=1:seconds=60")
        started = time.perf_counter()
        outcome = run_supervised(_tasks(), workers=1, task_timeout=1.0, faults=faults)
        elapsed = time.perf_counter() - started
        assert elapsed < 30, f"hung worker not reaped in time ({elapsed:.1f}s)"
        assert outcome.unfinished == [0, 1, 2]
        (event,) = outcome.events
        assert event.point == "worker.hang" and event.injected
        assert event.fallback == "serial"

    def test_circuit_breaker_opens_after_no_progress(self, monkeypatch):
        """A task that fails every time costs one round, not a retry loop.

        The breaker is the first failure: one executor is built, the
        failing task is handed back and its healthy siblings are kept.
        """
        built = _count_executors(monkeypatch)
        faults = FaultPlan.parse("chunk.result:chunk=0:times=inf")
        outcome = run_supervised(_tasks(), workers=1, faults=faults)
        assert len(built) == 1
        assert not outcome.ok
        assert outcome.unfinished == [0]
        assert outcome.results == {1: 2, 2: 4}  # healthy siblings salvaged
        terminal = outcome.events[-1]
        assert terminal.fallback == "serial" and terminal.lost == 1

    def test_deadline_kills_pool_and_abandons(self):
        tasks = [PoolTask(i, _sleep_forever, (i,)) for i in range(2)]
        started = time.perf_counter()
        outcome = run_supervised(
            tasks, workers=1, deadline=0.3, started=started
        )
        elapsed = time.perf_counter() - started
        assert outcome.deadline_blown
        assert elapsed < 30, f"deadline did not bound wall-clock ({elapsed:.1f}s)"
        assert set(outcome.unfinished) == {0, 1}
        (event,) = outcome.events
        assert event.point == "deadline" and event.fallback == "abandon"
        assert event.lost == 2

    def test_errors_exported(self):
        assert issubclass(PoolBrokenError, ReproError)
        assert issubclass(WorkerTimeout, ReproError)
        exc = WorkerTimeout(3, 1.5)
        assert exc.task_id == 3 and exc.timeout == 1.5


ONE_ROUND_CASES = {
    "pool.spawn": ("pool.spawn:times=1", None),
    "worker.crash": ("worker.crash:times=1", None),
    "worker.hang": ("worker.hang:times=1:seconds=60", 1.0),
    "chunk.result": ("chunk.result:times=1", None),
    "task.error": ("", None),
}


class TestOneRound:
    @pytest.mark.parametrize("point", sorted(ONE_ROUND_CASES))
    def test_one_executor_no_sleep_serial_answers(self, monkeypatch, point):
        """Whatever fails, the supervisor builds at most one executor and
        never sleeps; the caller's serial run of the unfinished tasks then
        gives the answers a fault-free run gives."""
        spec, task_timeout = ONE_ROUND_CASES[point]
        executors = _count_executors(monkeypatch)
        sleeps = []

        def counting_sleep(seconds):
            # Forked workers inherit this too (the worker.hang directive
            # sleeps there); only the parent's list is read.
            sleeps.append(seconds)
            time.sleep(seconds)

        monkeypatch.setattr(
            pool_module,
            "time",
            types.SimpleNamespace(perf_counter=time.perf_counter, sleep=counting_sleep),
        )
        tasks = [PoolTask(i, _double, (i,)) for i in range(4)]
        if point == "task.error":
            tasks[1] = PoolTask(1, _fails_in_workers, (os.getpid(), 1))
        outcome = run_supervised(
            tasks,
            workers=2,
            task_timeout=task_timeout,
            faults=FaultPlan.parse(spec),
        )
        assert len(executors) <= 1 and sleeps == []
        (event,) = outcome.events
        assert event.point == point and event.fallback == "serial"
        assert event.injected == (point != "task.error")
        assert _run_unfinished_serially(tasks, outcome) == {i: 2 * i for i in range(4)}


# ----------------------------------------------------------------------
# End-to-end: batch queries under faults
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def corpus():
    data = aids_like(16, seed=5, mean_order=6, stddev=1)
    graphs = {str(gid): g for gid, g in data.graphs.items()}
    queries = sample_queries(data, 6, seed=9)
    return graphs, queries


def _answers(results):
    return [
        (sorted(map(str, r.candidates)), sorted(map(str, r.matches)))
        for r in results
    ]


class TestBatchUnderFaults:
    def test_worker_crash_acceptance(self, corpus, saved_engine):
        """The acceptance bar: one scripted crash must yield exactly one
        event, the unfinished chunks run serially, and identical results."""
        graphs, queries = corpus
        clean = SegosIndex(graphs).batch_range_query(queries, tau=2)
        engine = saved_engine(graphs, fault_plan="worker.crash:times=1")
        faulted = engine.batch_range_query(queries, tau=2, workers=2)
        assert _answers(faulted) == _answers(clean)
        events = faulted[0].stats.degradations
        assert len(events) == 1
        (event,) = events
        assert event.point == "worker.crash" and event.injected
        assert event.lost >= 1 and event.salvaged + event.lost == 2
        assert event.fallback == "serial"

    def test_injected_pickle_fault_falls_back_serial(self, corpus, saved_engine):
        graphs, queries = corpus
        clean = SegosIndex(graphs).batch_range_query(queries, tau=2)
        engine = saved_engine(graphs, fault_plan="pickle.engine")
        faulted = engine.batch_range_query(queries, tau=2, workers=2)
        assert _answers(faulted) == _answers(clean)
        (event,) = faulted[0].stats.degradations
        assert event.point == "pickle.engine" and event.injected
        assert event.fallback == "serial"

    def test_real_pickle_failure_recorded_not_swallowed(self, corpus):
        """The sqlite backend cannot travel to workers; the fallback must
        say so (this used to be a silent bare-except)."""
        graphs, queries = corpus
        engine = SegosIndex(graphs, backend="sqlite")
        results = engine.batch_range_query(queries, tau=2, workers=2)
        (event,) = results[0].stats.degradations
        assert event.point == "disk.handle" and not event.injected
        assert event.fallback == "serial"
        assert "DiskHandle" in event.cause

    def test_pool_failure_salvages_whole_batch_serially(
        self, monkeypatch, corpus, saved_engine
    ):
        """Every worker crashes: one pool, no respawn, and the whole batch
        runs in-process with the same answers."""
        graphs, queries = corpus
        clean = SegosIndex(graphs).batch_range_query(queries, tau=2)
        engine = saved_engine(graphs, fault_plan="worker.crash:times=inf")
        executors = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                executors.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", CountingPool)
        faulted = engine.batch_range_query(queries, tau=2, workers=2)
        assert _answers(faulted) == _answers(clean)
        assert executors == [2]
        (event,) = faulted[0].stats.degradations
        assert event.point == "worker.crash" and event.fallback == "serial"
        assert event.salvaged == 0 and event.lost == 2


# ----------------------------------------------------------------------
# End-to-end: verification under faults
# ----------------------------------------------------------------------
def _rand_graph(n, seed, extra=3, labels="abcd"):
    rng = random.Random(seed)
    ls = [rng.choice(labels) for _ in range(n)]
    edges = [(i, i + 1) for i in range(n - 1)]
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        edge = (min(u, v), max(u, v))
        if edge not in edges:
            edges.append(edge)
    return Graph(ls, edges)


@pytest.fixture(scope="module")
def verify_corpus(saved_engine):
    """A corpus/query pair whose bounds stay inconclusive, so several A*
    runs actually reach the worker pool, plus the handle of the saved
    corpus the workers attach."""
    graphs = {f"v{i}": _rand_graph(7, seed=i) for i in range(14)}
    query = _rand_graph(7, seed=99)
    baseline = verify_candidates(graphs, query, sorted(graphs), 4)
    assert baseline.astar_runs > 1  # precondition for every pool test below
    return graphs, query, baseline, saved_engine(graphs).disk_handle()


class TestVerifyUnderFaults:
    def test_worker_crash_identical_verdicts(self, verify_corpus):
        graphs, query, baseline, handle = verify_corpus
        report = verify_candidates(
            graphs,
            query,
            sorted(graphs),
            4,
            workers=2,
            disk_handle=handle,
            fault_plan="worker.crash:times=1",
        )
        assert report.matches == baseline.matches
        assert report.rejected == baseline.rejected
        (event,) = report.degradations
        assert event.point == "worker.crash" and event.stage == "verify"

    def test_pickle_fault_serial_fallback(self, verify_corpus):
        graphs, query, baseline, handle = verify_corpus
        report = verify_candidates(
            graphs,
            query,
            sorted(graphs),
            4,
            workers=2,
            disk_handle=handle,
            fault_plan="pickle.engine",
        )
        assert report.matches == baseline.matches
        assert report.rejected == baseline.rejected
        (event,) = report.degradations
        assert event.point == "pickle.engine" and event.fallback == "serial"

    def test_blown_deadline_bounds_wall_clock(self, verify_corpus):
        """Satellite: a hung worker must not make verify_deadline a lie."""
        graphs, query, _, handle = verify_corpus
        started = time.perf_counter()
        report = verify_candidates(
            graphs,
            query,
            sorted(graphs),
            4,
            workers=2,
            disk_handle=handle,
            deadline=0.5,
            fault_plan="worker.hang:times=inf:seconds=60",
        )
        elapsed = time.perf_counter() - started
        assert elapsed < 30, f"deadline did not bound wall-clock ({elapsed:.1f}s)"
        assert report.undecided  # abandoned runs are undecided, not lost
        assert any(e.point == "deadline" for e in report.degradations)

    def test_session_config_reaches_verify_pool(self, verify_corpus, saved_engine):
        graphs, query, _, _ = verify_corpus
        engine = saved_engine(graphs)
        clean = engine.range_query(query, tau=4.0, verify="exact")
        session = engine.session(
            verify_workers=2, fault_plan="worker.crash:times=1:stage=verify"
        )
        faulted = session.range_query(query, tau=4.0, verify="exact")
        assert faulted.matches == clean.matches
        (event,) = faulted.stats.degradations
        assert event.point == "worker.crash" and event.stage == "verify"


# ----------------------------------------------------------------------
# Property: any scripted single fault leaves answers byte-identical
# ----------------------------------------------------------------------
SINGLE_FAULTS = (
    "pickle.engine:times=1",
    "pool.spawn:times=1",
    "worker.crash:times=1",
    "worker.hang:times=1:seconds=60",
    "chunk.result:times=1",
)


class TestSingleFaultProperty:
    @settings(deadline=None, max_examples=len(SINGLE_FAULTS))
    @given(spec=st.sampled_from(SINGLE_FAULTS))
    def test_batch_identical_to_serial_under_any_fault(
        self, corpus, saved_engine, spec
    ):
        graphs, queries = corpus
        serial = SegosIndex(graphs)._serial_batch_range_query(queries, 2)
        engine = saved_engine(graphs, fault_plan=spec, task_timeout=1.0)
        faulted = engine.batch_range_query(queries, tau=2, workers=2)
        assert _answers(faulted) == _answers(serial)
        events = faulted[0].stats.degradations
        assert events, f"fault {spec!r} left no telemetry"
        assert all(e.injected for e in events)

    @settings(deadline=None, max_examples=len(SINGLE_FAULTS))
    @given(spec=st.sampled_from(SINGLE_FAULTS))
    def test_verify_identical_to_serial_under_any_fault(self, verify_corpus, spec):
        graphs, query, baseline, handle = verify_corpus
        report = verify_candidates(
            graphs,
            query,
            sorted(graphs),
            4,
            workers=2,
            disk_handle=handle,
            task_timeout=1.0,
            fault_plan=spec,
        )
        assert report.matches == baseline.matches
        assert report.rejected == baseline.rejected
        assert not report.undecided
        assert report.degradations, f"fault {spec!r} left no telemetry"


class TestNoPlanIsFree:
    def test_no_rule_is_consulted_without_a_plan(self, monkeypatch, corpus, tmp_path):
        """With no fault plan the injection points cost one truthiness
        test: a range query, a pooled batch on a loaded engine and a
        delta save never look at a single rule."""
        for env in (ENV_FAULT_PLAN, ENV_TRACE, ENV_METRICS):
            monkeypatch.delenv(env, raising=False)
        fired, consulted = [], []
        fire, matches = FaultPlan.fire, FaultRule.matches

        def counting_fire(self, point, **kwargs):
            fired.append(point)
            return fire(self, point, **kwargs)

        def counting_matches(self, point, task, stage):
            consulted.append(point)
            return matches(self, point, task, stage)

        monkeypatch.setattr(FaultPlan, "fire", counting_fire)
        monkeypatch.setattr(FaultRule, "matches", counting_matches)
        graphs, queries = corpus
        path = tmp_path / "db.segos"
        save_index(SegosIndex(graphs), path)
        engine = load_index(path)
        assert engine.config.fault_plan is None

        engine.range_query(queries[0], tau=2, verify="exact")
        pooled = engine.batch_range_query(queries, tau=2, workers=2)
        assert pooled[0].stats.degradations == []
        engine.remove(sorted(engine.gids())[0])
        save_index(engine, path)
        assert read_header(default_sidecar_path(path)).delta_count == 1
        # The pool and the save passed their injection points ...
        assert {"pool.spawn", "io.write", "io.fsync"} <= set(fired)
        # ... and not one of them looked at a rule.
        assert consulted == []

        # The probe is live: a plan naming no real site is consulted.
        monkeypatch.setenv(ENV_FAULT_PLAN, "io.fsync:stage=nowhere")
        engine.remove(sorted(engine.gids())[0])
        save_index(engine, path)
        assert "io.fsync" in consulted


# ----------------------------------------------------------------------
# Telemetry surfaces
# ----------------------------------------------------------------------
class TestTelemetry:
    def test_event_summary_mentions_the_story(self):
        event = DegradationEvent(
            point="worker.crash",
            stage="batch",
            injected=True,
            salvaged=2,
            lost=1,
            fallback="serial",
        )
        line = event.summary()
        assert line == "worker.crash[batch] injected: salvaged 2, lost 1 -> serial"

    def test_stats_summary_and_merge_fold_degradations(self):
        stats = QueryStats()
        assert "degraded" not in stats.summary()
        stats.degradations.append(DegradationEvent(point="pool.broken", lost=1))
        other = QueryStats()
        other.degradations.append(DegradationEvent(point="deadline"))
        stats.merge(other)
        assert len(stats.degradations) == 2
        assert "degraded: 2 event(s)" in stats.summary()

    def test_explain_renders_resilience_lines(self, corpus):
        from repro.core.explain import explain_range_query

        graphs, queries = corpus
        engine = SegosIndex(graphs)
        explanation = explain_range_query(engine, queries[0], tau=1)
        explanation.stats.degradations.append(
            DegradationEvent(point="worker.crash", stage="batch", fallback="serial")
        )
        assert "resilience: worker.crash[batch]" in explanation.render()

    def test_empty_plan_shared_instance_never_fires(self):
        assert not EMPTY_PLAN
        assert EMPTY_PLAN.fire("worker.crash") is None
        assert EMPTY_PLAN.rules == []

    def test_fault_rule_defaults(self):
        rule = FaultRule(point="worker.hang")
        assert rule.times == 1 and rule.seconds == 60.0


# ----------------------------------------------------------------------
# Guard: the supervised pool owns every ProcessPoolExecutor
# ----------------------------------------------------------------------
class TestPoolOwnershipGuard:
    def test_no_process_pool_outside_resilience(self):
        src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
        offenders = []
        for path in sorted(src.rglob("*.py")):
            if path.parent.name == "resilience":
                continue
            if "ProcessPoolExecutor" in path.read_text():
                offenders.append(str(path.relative_to(src)))
        assert offenders == [], (
            "hand-rolled pools found outside repro.resilience.pool: "
            f"{offenders}"
        )

    def test_one_fan_out_and_one_transport(self):
        """``perf/parallel.py`` is the only caller of the supervised pool
        outside ``resilience/`` and the only place that pickles, so a
        second fan-out or worker transport cannot come back unnoticed."""
        src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
        callers, picklers = [], []
        for path in sorted(src.rglob("*.py")):
            text = path.read_text()
            name = str(path.relative_to(src))
            if path.parent.name != "resilience" and "run_supervised" in text:
                callers.append(name)
            if "pickle.dumps" in text:
                picklers.append(name)
        assert callers == ["perf/parallel.py"]
        assert picklers == ["perf/parallel.py"]
