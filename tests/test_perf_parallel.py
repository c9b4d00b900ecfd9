"""Tests for the process fan-out (repro.perf.parallel) through batch queries.

Pool workers attach the engine's on-disk index, so the pool tests run on
a saved-and-loaded engine; an engine without a current ``disk_handle()``
runs serially.
"""

from __future__ import annotations

import pytest

from repro.config import ENV_BATCH_WORKERS
from repro.core.engine import SegosIndex
from repro.core.pipeline import PipelinedSegos
from repro.core.stats import QueryStats
from repro.datasets import aids_like, sample_queries
from repro.perf import parallel
from repro.perf.parallel import chunk_evenly, effective_workers


def _graphs():
    data = aids_like(30, seed=7, mean_order=7, stddev=2)
    return data, {str(gid): g for gid, g in data.graphs.items()}


@pytest.fixture(scope="module")
def corpus(saved_engine):
    data, graphs = _graphs()
    engine = saved_engine(graphs, k=10, h=30)
    queries = sample_queries(data, 6, seed=11)
    return graphs, engine, queries


def _answers(results):
    return [(sorted(r.candidates), sorted(r.matches)) for r in results]


class TestHelpers:
    def test_chunk_evenly_covers_and_preserves_order(self):
        items = list(range(10))
        chunks = chunk_evenly(items, 4)
        assert [len(c) for c in chunks] == [3, 3, 2, 2]
        assert [x for c in chunks for x in c] == items

    def test_chunk_evenly_more_parts_than_items(self):
        assert chunk_evenly([1, 2], 5) == [[1], [2]]
        assert chunk_evenly([], 3) == []

    def test_nonpositive_workers_rejected(self, corpus):
        _, engine, queries = corpus
        with pytest.raises(ValueError):
            engine.batch_range_query(queries, tau=1, workers=0)


class TestParallelBatch:
    def test_same_answers_as_serial(self, corpus):
        _, engine, queries = corpus
        serial = engine.batch_range_query(queries, tau=2)
        parallel_results = engine.batch_range_query(queries, tau=2, workers=2)
        assert len(parallel_results) == len(queries)
        for s, p in zip(serial, parallel_results):
            assert set(s.candidates) == set(p.candidates)
            assert s.matches == p.matches

    def test_env_var_engages_parallel_path(self, corpus, saved_engine, monkeypatch):
        graphs, _, queries = corpus
        monkeypatch.setenv(ENV_BATCH_WORKERS, "2")
        engine = saved_engine(graphs, k=10, h=30)
        assert engine.config.batch_workers == 2
        results = engine.batch_range_query(queries[:3], tau=1)
        serial = engine._serial_batch_range_query(queries[:3], 1)
        for s, p in zip(serial, results):
            assert set(s.candidates) == set(p.candidates)

    def test_single_query_batch_stays_serial(self, corpus):
        _, engine, queries = corpus
        results = engine.batch_range_query(queries[:1], tau=1, workers=8)
        assert len(results) == 1

    def test_verify_exact_in_parallel(self, corpus):
        _, engine, queries = corpus
        serial = engine.batch_range_query(queries[:2], tau=1, verify="exact")
        para = engine.batch_range_query(queries[:2], tau=1, verify="exact", workers=2)
        for s, p in zip(serial, para):
            assert p.verified
            assert s.matches == p.matches

    def test_sqlite_backend_falls_back_to_serial(self):
        """An engine that cannot reach workers must degrade gracefully."""
        data = aids_like(12, seed=3, mean_order=6, stddev=1)
        engine = SegosIndex(
            {str(gid): g for gid, g in data.graphs.items()}, backend="sqlite"
        )
        queries = sample_queries(data, 3, seed=4)
        results = engine.batch_range_query(queries, tau=1, workers=2)
        serial = engine._serial_batch_range_query(queries, 1)
        for s, p in zip(serial, results):
            assert set(s.candidates) == set(p.candidates)

    def test_validation_errors_propagate(self, corpus):
        from repro.graphs.model import Graph

        _, engine, _ = corpus
        with pytest.raises(ValueError):
            engine.batch_range_query([Graph(["a"]), Graph()], tau=1, workers=2)
        with pytest.raises(ValueError):
            engine.batch_range_query([Graph(["a"])] * 2, tau=1, verify="bogus", workers=2)

    def test_pipelined_batch_parallel(self, corpus):
        _, engine, queries = corpus
        pipe = PipelinedSegos(engine)
        serial = pipe.batch_range_query(queries[:4], tau=2)
        para = pipe.batch_range_query(queries[:4], tau=2, workers=2)
        for s, p in zip(serial, para):
            assert set(s.candidates) == set(p.candidates)

    def test_pipelined_batch_attaches_by_handle(self, corpus, saved_engine):
        """The pipelined front-end fans out through the engine it wraps:
        two workers attach the saved index, nothing is materialised."""
        graphs, _, queries = corpus
        engine = saved_engine(graphs, k=10, h=30, fault_plan="")
        pipe = PipelinedSegos(engine)
        serial = pipe.batch_range_query(queries, tau=2, verify="exact")
        pooled = pipe.batch_range_query(
            queries, tau=2, verify="exact", workers=2, trace=True
        )
        assert _answers(pooled) == _answers(serial)
        assert [e for r in pooled for e in r.stats.degradations] == []
        (pool,) = pooled[0].trace.find("pool:batch")
        assert pool.attrs["workers"] == 2
        assert len(pooled[0].trace.processes()) >= 2  # worker spans came home
        assert not engine.index.promoted
        assert engine.disk_handle() is not None


class TestSerialFallback:
    """Engines with no current on-disk handle answer serially, loudly."""

    @pytest.fixture(params=["memory", "sqlite", "mutated"])
    def engine(self, request, corpus, saved_engine):
        graphs, _, _ = corpus
        if request.param == "memory":
            return SegosIndex(graphs, k=10, h=30)
        if request.param == "sqlite":
            return SegosIndex(graphs, k=10, h=30, backend="sqlite")
        engine = saved_engine(graphs, k=10, h=30)
        gid = sorted(engine.gids())[0]
        engine.add("copy", engine.graph(gid).copy())
        return engine

    def test_batch_runs_serially_with_one_event(self, engine, corpus):
        _, _, queries = corpus
        assert engine.disk_handle() is None
        serial = engine._serial_batch_range_query(queries, 2)
        results = engine.batch_range_query(queries, tau=2, workers=2)
        assert _answers(results) == _answers(serial)
        (event,) = [e for r in results for e in r.stats.degradations]
        assert event.point == "disk.handle" and not event.injected
        assert event.fallback == "serial"
        assert "DiskHandle" in event.cause
        assert event.stage == "batch" and event.lost == 2

    def test_verify_runs_serially_with_one_event(self, engine):
        data, _ = _graphs()
        query = sample_queries(data, 4, seed=0, edits=2)[2]
        serial = engine.range_query(query, tau=3, verify="exact")
        assert serial.stats.astar_runs > 1  # precondition: a pool would run
        fanned = engine.range_query(query, tau=3, verify="exact", verify_workers=2)
        assert fanned.matches == serial.matches
        assert fanned.stats.astar_runs == serial.stats.astar_runs
        (event,) = fanned.stats.degradations
        assert event.point == "disk.handle" and event.stage == "verify"
        assert event.fallback == "serial"


class TestStatsAggregation:
    def test_merged_folds_per_query_stats(self, corpus):
        _, engine, queries = corpus
        results = engine.batch_range_query(queries, tau=2, workers=2)
        merged = QueryStats.merged(r.stats for r in results)
        assert merged.candidates == sum(r.stats.candidates for r in results)
        assert merged.ta_searches == sum(r.stats.ta_searches for r in results)

    def test_elapsed_reported_everywhere(self, corpus):
        _, engine, queries = corpus
        for result in engine.batch_range_query(queries[:3], tau=1, workers=2):
            assert result.elapsed >= 0.0


class TestEffectiveWorkers:
    def test_single_core_falls_through_to_serial(self, monkeypatch):
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 1)
        assert effective_workers(8) == 1

    def test_multi_core_caps_at_cpu(self, monkeypatch):
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 8)
        assert effective_workers(16) == 8
        assert effective_workers(4) == 4

    def test_cpu_count_none_is_serial(self, monkeypatch):
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: None)
        assert effective_workers(8) == 1

    def test_defaulted_batch_workers_gated_on_one_core(self, corpus, monkeypatch):
        graphs, _, queries = corpus
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 1)
        calls = []
        engine = SegosIndex(graphs, k=10, h=30, batch_workers=4)
        original = parallel.fan_out

        def spy(*args, **kwargs):
            calls.append(kwargs.get("workers"))
            return original(*args, **kwargs)

        monkeypatch.setattr("repro.core.engine.fan_out", spy)
        engine.batch_range_query(queries[:2], tau=1.0)
        assert calls == []  # gate resolved to serial; the pool never ran

    def test_explicit_workers_bypass_the_gate(self, corpus, monkeypatch):
        _, engine, queries = corpus
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 1)
        results = engine.batch_range_query(queries[:2], tau=1.0, workers=2)
        assert len(results) == 2
