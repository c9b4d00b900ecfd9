"""The observability layer: tracer semantics, the metrics registry, the
exporters, the config knobs — and the golden end-to-end trace of a
pipelined query whose verification crosses a crashing worker pool.
"""

from __future__ import annotations

import json
import pickle
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    ENV_FAULT_PLAN,
    ENV_METRICS,
    ENV_TRACE,
    ENV_TRACE_PATH,
    FULL_TIER_CHAIN,
    PAPER_FILTER_TIERS,
    EngineConfig,
)
from repro.core.engine import SegosIndex
from repro.core.knn import knn_query
from repro.core.join import similarity_self_join
from repro.core.persistence import save_index
from repro.core.pipeline import PipelinedSegos
from repro.graphs.model import Graph
from repro.obs import (
    GLOBAL_METRICS,
    NULL_TRACER,
    MetricsRegistry,
    Span,
    SpanContext,
    Trace,
    Tracer,
    activate,
    chrome_trace_events,
    current_tracer,
    prometheus_text,
    read_spans_jsonl,
    record_query_metrics,
    span_from_dict,
    span_to_dict,
    trace_query,
    write_chrome_trace,
    write_spans_jsonl,
)


def build_engine(items, **kwargs):
    engine = SegosIndex(**kwargs)
    for gid, graph in items:
        engine.add(gid, graph)
    return engine


@pytest.fixture(scope="module")
def corpus(small_aids):
    return list(small_aids.graphs.items())[:25]


# Module-scoped: queries never mutate the engine, and hypothesis
# (the identity property below) requires non-function-scoped fixtures.
@pytest.fixture(scope="module")
def engine(corpus):
    return build_engine(corpus)


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_nesting_builds_parent_links(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.snapshot()[-1]
        inner = tracer.snapshot()[0]
        assert (outer.name, inner.name) == ("outer", "inner")
        assert inner.parent_id == outer.span_id
        assert outer.parent_id == ""  # root
        assert inner.trace_id == outer.trace_id == tracer.trace_id
        assert outer.end >= inner.end >= inner.start >= outer.start

    def test_error_status_and_reraise(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (span,) = tracer.snapshot()
        assert span.status == "error"
        assert span.end >= span.start

    def test_thread_without_stack_uses_explicit_parent(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            parent = root.context()

            def work():
                with tracer.span("threaded", parent=parent):
                    pass

            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
        threaded = tracer.to_trace().find("threaded")[0]
        assert threaded.parent_id == parent.span_id
        assert threaded.tid != tracer.to_trace().find("root")[0].tid

    def test_fallback_parent_seeds_orphan_threads(self):
        tracer = Tracer(trace_id="t-1", parent_id="remote-parent")
        assert tracer.current_context() == SpanContext("t-1", "remote-parent")
        with tracer.span("adopted"):
            pass
        assert tracer.snapshot()[0].parent_id == "remote-parent"

    def test_event_is_instant_and_linkable(self):
        tracer = Tracer()
        with tracer.span("host"):
            span_id = tracer.event("blip", detail=1)
        blip = tracer.to_trace().find("blip")[0]
        assert blip.span_id == span_id
        assert blip.duration == 0.0
        assert blip.parent_id == tracer.to_trace().find("host")[0].span_id
        assert blip.attrs == {"detail": 1}

    def test_begin_end_span_skips_the_stack(self):
        tracer = Tracer()
        pool = tracer.begin("pool", tasks=3)
        # begin() does not make `pool` ambient on this thread:
        with tracer.span("sibling"):
            pass
        tracer.end_span(pool, retries=1)
        by_name = {s.name: s for s in tracer.snapshot()}
        assert by_name["sibling"].parent_id == ""
        assert by_name["pool"].attrs == {"tasks": 3, "retries": 1}
        assert by_name["pool"].end >= by_name["pool"].start

    def test_adopt_merges_worker_spans(self):
        parent = Tracer()
        with parent.span("pool") as pool:
            ctx = pool.context()
        worker = Tracer(trace_id=ctx.trace_id, parent_id=ctx.span_id)
        with worker.span("task"):
            pass
        parent.adopt(worker.snapshot())
        trace = parent.to_trace()
        assert trace.find("task")[0].parent_id == ctx.span_id
        assert len(trace) == 2

    def test_drain_unexported_is_incremental(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        assert [s.name for s in tracer.drain_unexported()] == ["a"]
        assert tracer.drain_unexported() == []
        with tracer.span("b"):
            pass
        assert [s.name for s in tracer.drain_unexported()] == ["b"]
        # snapshot() never consumes
        assert [s.name for s in tracer.snapshot()] == ["a", "b"]


class TestNullTracer:
    def test_every_surface_is_a_noop(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("x", parent=None, attr=1) as span:
            assert span is None
        assert NULL_TRACER.event("x") == ""
        assert NULL_TRACER.begin("x") is None
        NULL_TRACER.end_span(None)  # must not raise
        NULL_TRACER.adopt([])
        assert NULL_TRACER.current_context() is None
        assert NULL_TRACER.snapshot() == []
        assert NULL_TRACER.drain_unexported() == []
        assert len(NULL_TRACER.to_trace()) == 0

    def test_span_cm_is_shared(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")


# ----------------------------------------------------------------------
# Trace view
# ----------------------------------------------------------------------
def _toy_trace():
    tracer = Tracer()
    with tracer.span("query", tau=2):
        with tracer.span("ta"):
            pass
        with tracer.span("ca"):
            pass
        tracer.event("degradation:worker.crash")
    return tracer.to_trace()


class TestTraceView:
    def test_roots_children_find(self):
        trace = _toy_trace()
        (root,) = trace.roots()
        assert root.name == "query"
        kids = [s.name for s in trace.children(root.span_id)]
        assert kids == ["ta", "ca", "degradation:worker.crash"]
        assert len(trace.find("ta")) == 1
        assert trace.find("nope") == []

    def test_live_view_grows_with_the_tracer(self):
        tracer = Tracer()
        trace = tracer.to_trace()
        assert len(trace) == 0
        with tracer.span("later"):
            pass
        assert [s.name for s in trace.spans] == ["later"]

    def test_render_indents_and_annotates(self):
        trace = _toy_trace()
        text = trace.render()
        lines = text.splitlines()
        assert lines[0].startswith("query")
        assert "[tau=2]" in lines[0]
        assert any(line.startswith("  ta") for line in lines)
        assert len(lines) == 4

    def test_orphan_spans_render_as_roots(self):
        span = Span(name="lost", trace_id="t", span_id="s", parent_id="gone")
        trace = Trace([span], "t")
        assert trace.roots() == [span]
        assert trace.render().startswith("lost")

    def test_pickle_materialises_live_view(self):
        tracer = Tracer()
        with tracer.span("q"):
            pass
        clone = pickle.loads(pickle.dumps(tracer.to_trace()))
        assert clone.trace_id == tracer.trace_id
        assert [s.name for s in clone.spans] == ["q"]
        # the clone is detached: new spans do not appear
        with tracer.span("afterwards"):
            pass
        assert len(clone) == 1

    def test_processes_lists_distinct_pids(self):
        spans = [
            Span(name="a", trace_id="t", span_id="1", pid=10),
            Span(name="b", trace_id="t", span_id="2", pid=20),
            Span(name="c", trace_id="t", span_id="3", pid=10),
        ]
        assert Trace(spans, "t").processes() == [10, 20]


class TestAmbientTracer:
    def test_trace_query_installs_and_restores(self):
        assert current_tracer() is None
        with trace_query("outer", run="x") as tracer:
            assert current_tracer() is tracer
        assert current_tracer() is None
        (root,) = tracer.snapshot()
        assert root.name == "outer" and root.attrs == {"run": "x"}

    def test_activate_nests(self):
        a, b = Tracer(), Tracer()
        with activate(a):
            with activate(b):
                assert current_tracer() is b
            assert current_tracer() is a


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_monotone(self):
        reg = MetricsRegistry()
        c = reg.counter("hits", "hits", kind="a")
        c.inc()
        c.inc(2)
        assert c.value == 3
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_up_and_down(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value == 4

    def test_histogram_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1, 10, 100))
        for v in (0.5, 5, 50, 500):
            h.observe(v)
        assert h.counts == [1, 2, 3]  # cumulative, +Inf implicit
        assert h.count == 4
        assert h.sum == pytest.approx(555.5)

    def test_same_name_and_labels_is_same_series(self):
        reg = MetricsRegistry()
        assert reg.counter("x", mode="a") is reg.counter("x", mode="a")
        assert reg.counter("x", mode="a") is not reg.counter("x", mode="b")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x", kind="other")

    def test_snapshot_and_reset(self):
        reg = MetricsRegistry()
        reg.counter("c", mode="r").inc(2)
        reg.histogram("h", buckets=(1,)).observe(0.5)
        snap = reg.snapshot()
        assert snap['c{mode="r"}'] == 2
        assert snap["h_sum"] == 0.5 and snap["h_count"] == 1
        reg.reset()
        assert reg.snapshot() == {}


def _strip_timing(snapshot):
    """Drop wall-clock-derived series (they differ run to run by nature)."""
    return {k: v for k, v in snapshot.items() if "seconds" not in k}


class TestRecordQueryMetrics:
    def test_real_query_populates_the_registry(self, engine, corpus):
        result = engine.range_query(corpus[0][1], tau=2, verify="exact")
        reg = MetricsRegistry()
        record_query_metrics(reg, result.stats, result.elapsed)
        snap = reg.snapshot()
        assert snap['repro_queries_total{mode="range"}'] == 1
        assert snap["repro_ta_accesses_total"] == result.stats.ta_accesses
        assert snap["repro_candidates_total"] == result.stats.candidates
        assert 'repro_query_seconds_count{mode="range"}' in snap

    def test_prometheus_text_round_trips_structure(self):
        reg = MetricsRegistry()
        reg.counter("repro_queries_total", "queries", mode="range").inc(3)
        reg.histogram("repro_lat", "latency", buckets=(0.1, 1.0)).observe(0.5)
        text = prometheus_text(reg)
        assert "# HELP repro_queries_total queries" in text
        assert "# TYPE repro_queries_total counter" in text
        assert 'repro_queries_total{mode="range"} 3' in text
        assert 'repro_lat_bucket{le="0.1"} 0' in text
        assert 'repro_lat_bucket{le="1"} 1' in text
        assert 'repro_lat_bucket{le="+Inf"} 1' in text
        assert "repro_lat_sum 0.5" in text
        assert "repro_lat_count 1" in text
        assert text.endswith("\n")
        assert prometheus_text(MetricsRegistry()) == ""


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestExporters:
    def test_jsonl_round_trip(self, tmp_path):
        trace = _toy_trace()
        path = str(tmp_path / "spans.jsonl")
        wrote = write_spans_jsonl(trace, path, append=False)
        assert wrote == len(trace)
        loaded = read_spans_jsonl(path)
        assert loaded == trace.spans
        # append mode accumulates across traced queries
        write_spans_jsonl(trace.spans[:1], path)
        assert len(read_spans_jsonl(path)) == wrote + 1

    def test_span_dict_round_trip_defaults(self):
        span = _toy_trace().spans[0]
        assert span_from_dict(span_to_dict(span)) == span
        sparse = span_from_dict({"name": "n", "trace_id": "t", "span_id": "s"})
        assert sparse.parent_id == "" and sparse.status == "ok"

    def test_chrome_events_shape(self, tmp_path):
        trace = _toy_trace()
        events = chrome_trace_events(trace)
        by_name = {e["name"]: e for e in events}
        query = by_name["query"]
        assert query["ph"] == "X" and query["dur"] >= 0
        assert query["args"]["tau"] == 2
        assert query["args"]["span_id"]
        instant = by_name["degradation:worker.crash"]
        assert instant["ph"] == "i" and instant["s"] == "p"
        path = str(tmp_path / "trace.json")
        assert write_chrome_trace(trace, path) == len(events)
        payload = json.loads(open(path).read())
        assert len(payload["traceEvents"]) == len(events)


# ----------------------------------------------------------------------
# Config knobs
# ----------------------------------------------------------------------
class TestObsKnobs:
    def test_defaults_off(self, monkeypatch):
        for env in (ENV_TRACE, ENV_TRACE_PATH, ENV_METRICS):
            monkeypatch.delenv(env, raising=False)
        config = EngineConfig.from_env()
        assert config.trace is False
        assert config.trace_path is None
        assert config.metrics is False

    def test_env_switches_on(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_TRACE, "1")
        monkeypatch.setenv(ENV_TRACE_PATH, str(tmp_path / "t.jsonl"))
        monkeypatch.setenv(ENV_METRICS, "true")
        config = EngineConfig.from_env()
        assert config.trace is True
        assert config.trace_path == str(tmp_path / "t.jsonl")
        assert config.metrics is True

    def test_env_zero_means_off(self, monkeypatch):
        monkeypatch.setenv(ENV_TRACE, "0")
        monkeypatch.setenv(ENV_METRICS, "no")
        config = EngineConfig.from_env()
        assert config.trace is False and config.metrics is False

    def test_kwarg_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_TRACE, "1")
        assert EngineConfig.from_env(trace=False).trace is False
        monkeypatch.delenv(ENV_TRACE)
        assert EngineConfig.from_env(trace=True).trace is True


class TestObsOffIsFree:
    def test_off_builds_no_tracer_and_records_no_metrics(
        self, monkeypatch, corpus, tmp_path
    ):
        """Disabled observability does no work at all: every query mode
        and a save carry the shared null tracer and leave the global
        metrics registry untouched."""
        for env in (ENV_TRACE, ENV_TRACE_PATH, ENV_METRICS, ENV_FAULT_PLAN):
            monkeypatch.delenv(env, raising=False)
        built = []
        init = Tracer.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tracer, "__init__", counting_init)
        engine = build_engine(corpus[:12])
        assert not engine.config.trace and not engine.config.metrics
        query, other = corpus[0][1], corpus[1][1]
        before = GLOBAL_METRICS.snapshot()

        engine.range_query(query, tau=2, verify="exact")
        engine.batch_range_query([query, other], tau=2, verify="exact")
        PipelinedSegos(engine).range_query(query, tau=2, verify="exact")
        knn_query(engine, query, k=2)
        similarity_self_join(engine, tau=1, verify="exact")
        save_index(engine, tmp_path / "db.segos")
        assert built == []
        assert GLOBAL_METRICS.snapshot() == before

        # The probes are live: switching either knob on shows up in them.
        engine.range_query(query, tau=2, trace=True)
        assert len(built) == 1
        build_engine(corpus[:2], metrics=True).range_query(query, tau=2)
        assert GLOBAL_METRICS.snapshot() != before


# ----------------------------------------------------------------------
# Traced queries through the public API
# ----------------------------------------------------------------------
class TestTracedQueries:
    def test_untraced_query_has_no_trace_handle(self, engine, corpus):
        result = engine.range_query(corpus[0][1], tau=2)
        assert result.trace is None

    def test_traced_range_query_span_tree(self, engine, corpus):
        result = engine.range_query(
            corpus[0][1],
            tau=2,
            verify="exact",
            trace=True,
            filter_tiers=PAPER_FILTER_TIERS,
        )
        trace = result.trace
        assert trace is not None
        (root,) = trace.roots()
        assert root.name == "query"
        stages = [s.name for s in trace.children(root.span_id)]
        assert stages == ["ta", "ca", "verify"]

    def test_default_chain_span_tree(self, engine, corpus):
        result = engine.range_query(corpus[0][1], tau=2, verify="exact", trace=True)
        (root,) = result.trace.roots()
        stages = [s.name for s in result.trace.children(root.span_id)]
        assert stages == list(FULL_TIER_CHAIN)

    def test_trace_true_identical_answers(self, engine, corpus):
        query = corpus[1][1]
        plain = engine.range_query(query, tau=2, verify="exact")
        traced = engine.range_query(query, tau=2, verify="exact", trace=True)
        assert sorted(map(str, traced.candidates)) == sorted(
            map(str, plain.candidates)
        )
        assert traced.matches == plain.matches

    @settings(deadline=None, max_examples=8)
    @given(index=st.integers(min_value=0, max_value=24), tau=st.sampled_from([0, 1, 2, 3]))
    def test_metrics_identical_traced_vs_untraced(self, engine, corpus, index, tau):
        """The identity guarantee: metrics derive from finished QueryStats,
        so tracing must not change a single non-timing series — for any
        query and threshold."""
        query = corpus[index][1]
        plain = engine.range_query(query, tau=tau, verify="exact")
        traced = engine.range_query(query, tau=tau, verify="exact", trace=True)
        reg_plain, reg_traced = MetricsRegistry(), MetricsRegistry()
        record_query_metrics(reg_plain, plain.stats, 0.0)
        record_query_metrics(reg_traced, traced.stats, 0.0)
        assert _strip_timing(reg_plain.snapshot()) == _strip_timing(
            reg_traced.snapshot()
        )

    def test_config_metrics_knob_feeds_global_registry(self, corpus):
        engine = build_engine(corpus, metrics=True)
        before = GLOBAL_METRICS.snapshot().get(
            'repro_queries_total{mode="range"}', 0
        )
        engine.range_query(corpus[0][1], tau=1)
        after = GLOBAL_METRICS.snapshot()['repro_queries_total{mode="range"}']
        assert after == before + 1

    def test_trace_path_appends_jsonl(self, corpus, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        engine = build_engine(corpus, trace=True, trace_path=path)
        engine.range_query(corpus[0][1], tau=1)
        engine.range_query(corpus[1][1], tau=1)
        spans = read_spans_jsonl(path)
        names = {s.name for s in spans}
        assert {"query", "ta", "ca"} <= names
        assert len({s.trace_id for s in spans}) == 2  # one trace per query

    def test_ambient_trace_query_collects_engine_spans(self, engine, corpus):
        with trace_query("experiment") as tracer:
            engine.range_query(corpus[0][1], tau=1)
            engine.range_query(corpus[1][1], tau=1)
        trace = tracer.to_trace()
        (root,) = trace.roots()
        assert root.name == "experiment"
        assert len(trace.find("query")) == 2
        assert all(s.parent_id == root.span_id for s in trace.find("query"))

    def test_batch_results_share_one_trace(self, engine, corpus):
        queries = [corpus[0][1], corpus[1][1], corpus[2][1]]
        results = engine.batch_range_query(queries, tau=1, trace=True)
        traces = {id(r.trace) for r in results}
        assert len(traces) == 1
        trace = results[0].trace
        (root,) = trace.roots()
        assert root.name == "batch"
        assert len(trace.find("query")) == len(queries)

    def test_knn_and_join_return_trace_handles(self, engine, corpus):
        knn = knn_query(engine, corpus[0][1], k=2)
        assert knn.trace is None  # tracing off by default
        with trace_query("session") as tracer:
            knn = knn_query(engine, corpus[0][1], k=2)
            join = similarity_self_join(engine, tau=0)
        assert knn.trace is not None and join.trace is not None
        names = {s.name for s in tracer.snapshot()}
        assert {"knn", "join", "query"} <= names


# ----------------------------------------------------------------------
# Golden end-to-end: a traced pipelined query across a crashing pool
# ----------------------------------------------------------------------
def _rand_graph(n, seed, extra=3, labels="abcd"):
    import random

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
def golden_result(saved_engine):
    """One traced pipelined query: exact verification fans out to two
    worker processes (attached to the saved corpus), one of which is
    scripted to crash; the runs the pool did not finish then verify
    serially in the parent, and everything must stitch back into a single
    span tree.

    The crash hits the third A* task: a worker takes one task at a time,
    so by the time either worker starts task 2 one of tasks 0 and 1 has
    finished, and its worker-side spans are salvaged."""
    graphs = {f"v{i}": _rand_graph(7, seed=i) for i in range(14)}
    engine = saved_engine(
        graphs,
        verify_workers=2,
        fault_plan="worker.crash:times=1:stage=verify:chunk=2",
        filter_tiers=PAPER_FILTER_TIERS,
    )
    query = _rand_graph(7, seed=99)
    result = PipelinedSegos(engine).range_query(
        query, tau=4, verify="exact", trace=True
    )
    assert result.stats.astar_runs > 2  # precondition: task 2 was dispatched
    (event,) = result.stats.degradations
    assert event.point == "worker.crash" and event.fallback == "serial"
    return result


class TestGoldenPipelinedTrace:
    def test_stage_spans_fused_and_ordered(self, golden_result):
        trace = golden_result.trace
        (root,) = trace.roots()
        assert root.name == "query"
        stages = [s.name for s in trace.children(root.span_id)]
        assert stages == ["ta+ca", "verify"]

    def test_pipeline_threads_attach_under_fused_stage(self, golden_result):
        trace = golden_result.trace
        fused = trace.find("ta+ca")[0]
        kids = {s.name for s in trace.children(fused.span_id)}
        assert {"pipeline.ta", "pipeline.dc", "pipeline.ca"} <= kids

    def test_worker_process_spans_are_stitched(self, golden_result):
        trace = golden_result.trace
        assert len(trace.processes()) >= 2, "no worker-process spans adopted"
        pool = trace.find("pool:verify")[0]
        tasks = trace.children(pool.span_id)
        worker_tasks = [s for s in tasks if s.name == "task:verify"]
        assert worker_tasks
        parent_pid = trace.roots()[0].pid
        assert any(s.pid != parent_pid for s in worker_tasks)
        # worker-side A* spans nest under their task span
        astar = trace.find("verify.astar")
        task_ids = {s.span_id for s in worker_tasks}
        assert any(s.parent_id in task_ids for s in astar)

    def test_degradation_event_links_into_the_tree(self, golden_result):
        events = golden_result.stats.degradations
        assert events and all(e.span_id for e in events)
        span_ids = {s.span_id for s in golden_result.trace.spans}
        assert all(e.span_id in span_ids for e in events)
        crash = golden_result.trace.find("degradation:worker.crash")
        assert crash and crash[0].attrs.get("injected") is True

    def test_exports_round_trip(self, golden_result, tmp_path):
        trace = golden_result.trace
        path = str(tmp_path / "golden.jsonl")
        write_spans_jsonl(trace, path, append=False)
        loaded = read_spans_jsonl(path)
        assert loaded == trace.spans
        assert Trace(loaded, trace.trace_id).render() == trace.render()
        events = chrome_trace_events(trace)
        assert len(events) == len(trace.spans)
        assert len({e["pid"] for e in events}) >= 2

    def test_verdicts_match_untraced_run(self, golden_result):
        graphs = {f"v{i}": _rand_graph(7, seed=i) for i in range(14)}
        engine = SegosIndex(graphs)
        query = _rand_graph(7, seed=99)
        plain = PipelinedSegos(engine).range_query(query, tau=4, verify="exact")
        assert golden_result.matches == plain.matches


# ----------------------------------------------------------------------
# Facade completeness (satellite: one public surface, fully exported)
# ----------------------------------------------------------------------
class TestFacade:
    def test_all_names_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_all_is_sorted_and_unique(self):
        import repro

        names = [n for n in repro.__all__ if n != "__version__"]
        assert names == sorted(names)
        assert len(set(repro.__all__)) == len(repro.__all__)

    def test_obs_entry_points_on_facade(self):
        import repro
        from repro.obs import trace as trace_mod

        assert repro.trace_query is trace_mod.trace_query
        assert repro.Trace is trace_mod.Trace
        assert repro.GLOBAL_METRICS is GLOBAL_METRICS

    def test_tuning_params_are_keyword_only(self):
        import inspect

        import repro

        for fn, positional in [
            (SegosIndex.range_query, {"self", "query"}),
            (SegosIndex.batch_range_query, {"self", "queries"}),
            (PipelinedSegos.range_query, {"self", "query"}),
            (knn_query, {"engine", "query"}),
            (repro.similarity_self_join, {"engine"}),
            (repro.similarity_join, {"engine", "probes"}),
            (repro.explain_range_query, {"engine", "query"}),
        ]:
            sig = inspect.signature(fn)
            for name, param in sig.parameters.items():
                if name in positional:
                    continue
                assert param.kind == inspect.Parameter.KEYWORD_ONLY, (
                    f"{fn.__qualname__} parameter {name} is not keyword-only"
                )
