"""The staged executor: plan shape, uniform stage timing, session cache
sharing, and the equivalence of every front-end with the core plan."""

from __future__ import annotations

import pytest

from repro.config import FULL_TIER_CHAIN, PAPER_FILTER_TIERS, EngineConfig
from repro.core.engine import SegosIndex
from repro.core.pipeline import PipelinedSegos
from repro.core.plan import (
    CAStage,
    QueryPlan,
    QuerySession,
    TAStage,
    VerifyStage,
    execute_plan,
    make_context,
)
from repro.core.subsearch import SubgraphSearch
from repro.graphs.model import Graph


def build_engine(items, **kwargs):
    engine = SegosIndex(**kwargs)
    for gid, graph in items:
        engine.add(gid, graph)
    return engine


@pytest.fixture(scope="module")
def corpus(small_aids):
    return list(small_aids.graphs.items())[:25]


@pytest.fixture()
def engine(corpus):
    return build_engine(corpus)


@pytest.fixture()
def paper_engine(corpus):
    return build_engine(corpus, filter_tiers=PAPER_FILTER_TIERS)


class TestPlanShape:
    def test_range_plan_stage_order(self):
        plan = QueryPlan.from_tiers(EngineConfig(filter_tiers=PAPER_FILTER_TIERS))
        assert [type(s) for s in plan.stages] == [TAStage, CAStage, VerifyStage]
        assert [s.name for s in plan.stages] == ["ta", "ca", "verify"]

    def test_default_plan_runs_every_tier(self, engine):
        plan = QueryPlan.from_tiers(EngineConfig())
        assert [s.name for s in plan.stages] == list(FULL_TIER_CHAIN)
        piped = PipelinedSegos(engine).plan()
        assert [s.name for s in piped.stages] == ["embed", "ta+ca", "anchor", "verify"]

    def test_pipelined_plan_shares_verify_stage(self, paper_engine):
        plan = PipelinedSegos(paper_engine).plan()
        assert [s.name for s in plan.stages] == ["ta+ca", "verify"]
        assert isinstance(plan.stages[-1], VerifyStage)

    def test_subsearch_plan_same_stage_names(self, engine):
        plan = SubgraphSearch(engine).plan()
        assert [s.name for s in plan.stages] == ["ta", "ca", "verify"]


class TestStageTiming:
    """Satellite: per-stage timings are captured uniformly by the executor,
    on the plain and the pipelined path alike — pinned here."""

    def test_serial_stage_seconds_keys(self, paper_engine, corpus):
        result = paper_engine.range_query(corpus[0][1], tau=2, verify="exact")
        assert set(result.stats.stage_seconds) == {"ta", "ca", "verify"}
        assert all(v >= 0 for v in result.stats.stage_seconds.values())
        assert sum(result.stats.stage_seconds.values()) <= result.elapsed

    def test_default_stage_seconds_keys(self, engine, corpus):
        result = engine.range_query(corpus[0][1], tau=2, verify="exact")
        assert set(result.stats.stage_seconds) == set(FULL_TIER_CHAIN)
        assert sum(result.stats.stage_seconds.values()) <= result.elapsed

    def test_pipelined_stage_seconds_keys(self, paper_engine, corpus):
        result = PipelinedSegos(paper_engine).range_query(corpus[0][1], tau=2)
        assert set(result.stats.stage_seconds) == {"ta+ca", "verify"}

    def test_subsearch_stage_seconds_keys(self, engine, corpus):
        result = SubgraphSearch(engine).range_query(corpus[0][1], tau=1)
        assert set(result.stats.stage_seconds) == {"ta", "ca", "verify"}
        assert result.elapsed >= 0

    def test_merge_accumulates_stage_seconds(self, engine, corpus):
        a = engine.range_query(corpus[0][1], tau=1).stats
        b = engine.range_query(corpus[1][1], tau=1).stats
        expected = a.stage_seconds["ca"] + b.stage_seconds["ca"]
        a.merge(b)
        assert a.stage_seconds["ca"] == pytest.approx(expected)

    def test_summary_mentions_stages(self, engine, corpus):
        stats = engine.range_query(corpus[0][1], tau=1).stats
        assert "stages:" in stats.summary()


class TestExecutor:
    def test_execute_plan_matches_front_end(self, engine, corpus):
        query = corpus[0][1]
        via_engine = engine.range_query(query, tau=2)
        ctx = make_context(engine, query, 2, config=engine.config)
        ctx = execute_plan(QueryPlan.from_tiers(engine.config), ctx)
        assert sorted(map(str, ctx.candidates)) == sorted(
            map(str, via_engine.candidates)
        )
        assert ctx.matches == via_engine.matches

    def test_context_validation(self, engine):
        with pytest.raises(ValueError, match="empty"):
            make_context(engine, Graph([]), 1, config=engine.config)
        with pytest.raises(ValueError, match="non-negative"):
            make_context(
                engine, Graph(["a"]), -1, config=engine.config
            )
        with pytest.raises(ValueError, match="verify"):
            make_context(
                engine, Graph(["a"]), 1, config=engine.config, verify="maybe"
            )

    def test_verify_stage_noop_without_exact(self, engine, corpus):
        result = engine.range_query(corpus[0][1], tau=2, verify="none")
        assert result.verified is False
        assert result.stats.astar_runs == 0


class TestQuerySession:
    def test_session_shares_ta_searches(self, engine, corpus):
        session = engine.session()
        first = session.range_query(corpus[0][1], tau=1)
        again = session.range_query(corpus[0][1], tau=2)
        assert first.stats.ta_searches > 0
        assert again.stats.ta_searches == 0  # all served from the session cache

    def test_fresh_sessions_are_isolated(self, engine, corpus):
        one = engine.session().range_query(corpus[0][1], tau=1)
        two = engine.session().range_query(corpus[0][1], tau=1)
        assert one.stats.ta_searches == two.stats.ta_searches > 0

    def test_session_pins_config_overrides(self, engine, corpus):
        session = engine.session(k=3)
        assert session.config.k == 3
        assert engine.config.k == 100

    def test_session_results_match_engine(self, engine, corpus):
        session = engine.session()
        for _, query in corpus[:5]:
            direct = engine.range_query(query, tau=2)
            shared = session.range_query(query, tau=2)
            assert sorted(map(str, direct.candidates)) == sorted(
                map(str, shared.candidates)
            )
            assert direct.matches == shared.matches

    def test_private_cache_entry_point_is_gone(self, engine):
        # The deprecated pre-plan shim was removed; sessions are the one
        # public route to cache-sharing.
        assert not hasattr(engine, "_range_query_with_cache")

    def test_session_class_reexported(self):
        import repro
        import repro.core as core

        assert repro.QuerySession is QuerySession
        assert core.QuerySession is QuerySession


class TestPipelinedSession:
    def test_pipelined_serial_batch_shares_ta(self, engine, corpus):
        pipe = PipelinedSegos(engine)
        queries = [corpus[0][1], corpus[0][1]]
        # τ high enough that no side halts the TA thread early: every star
        # is searched and cached on the first query, so the identical
        # second query pays zero TA searches (deterministically).
        results = pipe.batch_range_query(queries, tau=50, workers=1)
        assert results[0].stats.ta_searches > 0
        assert results[1].stats.ta_searches == 0

    def test_pipelined_answers_match_serial(self, engine, corpus):
        pipe = PipelinedSegos(engine)
        for _, query in corpus[:5]:
            serial = engine.range_query(query, tau=2, verify="exact")
            piped = pipe.range_query(query, tau=2, verify="exact")
            assert piped.matches == serial.matches
