"""Tests for the verification scheduler."""

from __future__ import annotations

import random

import pytest

from repro.config import ENV_VERIFY_WORKERS, PAPER_FILTER_TIERS
from repro.core.engine import SegosIndex
from repro.core.verify import verify_candidates
from repro.datasets import aids_like, sample_queries
from repro.graphs.edit_distance import graph_edit_distance
from repro.graphs.generators import erdos_renyi
from repro.graphs.model import Graph


@pytest.fixture(scope="module")
def verify_setup():
    data = aids_like(25, seed=19, mean_order=7, stddev=2)
    engine = SegosIndex(data.graphs, k=10, h=30)
    return data, engine


class TestVerifyCandidates:
    def test_exact_partition(self, verify_setup):
        data, engine = verify_setup
        query = sample_queries(data, 1, seed=20, edits=1)[0]
        tau = 2
        result = engine.range_query(query, tau=tau)
        report = verify_candidates(
            data.graphs,
            query,
            result.candidates,
            tau,
            already_confirmed=result.matches,
        )
        truth = {
            gid
            for gid, g in data.graphs.items()
            if graph_edit_distance(query, g, threshold=tau) is not None
        }
        assert report.decided()
        assert report.matches == truth
        assert report.rejected == set(result.candidates) - truth

    def test_confirmed_skip_astar(self, verify_setup):
        data, engine = verify_setup
        gid, graph = next(iter(data.graphs.items()))
        report = verify_candidates(
            data.graphs, graph.copy(), [gid], 0, already_confirmed=[gid]
        )
        assert report.astar_runs == 0
        assert gid in report.matches

    def test_bounds_settle_without_astar(self, verify_setup):
        data, _ = verify_setup
        gid, graph = next(iter(data.graphs.items()))
        # Self-query: U_m = 0 ≤ τ, settled by bounds.
        report = verify_candidates(data.graphs, graph.copy(), [gid], 0)
        assert report.settled_by_bounds == 1
        assert report.astar_runs == 0
        assert gid in report.matches

    def test_budget_exhaustion_is_undecided(self):
        rng = random.Random(2)
        q = erdos_renyi(rng, "ab", 9, 0.5)
        g = erdos_renyi(rng, "ab", 9, 0.5)
        report = verify_candidates({"g": g}, q, ["g"], 3, budget_per_candidate=2)
        assert report.undecided in ({"g"}, set())  # bounds may settle it
        assert report.decided() == (not report.undecided)

    def test_deadline_zero_defers_everything_scheduled(self, verify_setup):
        data, engine = verify_setup
        query = sample_queries(data, 1, seed=21)[0]
        result = engine.range_query(query, tau=5)
        report = verify_candidates(
            data.graphs, query, result.candidates, 5, deadline=0.0
        )
        # Whatever bounds could not settle is undecided, never silently
        # dropped.
        assert (
            len(report.matches)
            + len(report.rejected)
            + len(report.undecided)
            >= len(result.candidates)
        )
        assert report.astar_runs == 0

    def test_validation(self, verify_setup):
        data, _ = verify_setup
        with pytest.raises(ValueError):
            verify_candidates(data.graphs, Graph(["a"]), [], -1)

    def test_empty_candidates(self, verify_setup):
        data, _ = verify_setup
        report = verify_candidates(data.graphs, Graph(["C00"]), [], 1)
        assert report.decided()
        assert not report.matches


@pytest.fixture(scope="module")
def pool_setup(saved_engine):
    """The verify corpus saved and loaded, so pool workers can attach it."""
    data = aids_like(25, seed=19, mean_order=7, stddev=2)
    graphs = {str(gid): g for gid, g in data.graphs.items()}
    return data, graphs, saved_engine(graphs, k=10, h=30)


class TestParallelVerification:
    def test_parallel_report_equals_serial(self, pool_setup):
        """Same partition, same bookkeeping, regardless of worker count."""
        data, graphs, engine = pool_setup
        query = sample_queries(data, 1, seed=22, edits=1)[0]
        tau = 2
        result = engine.range_query(query, tau=tau)
        serial = verify_candidates(graphs, query, result.candidates, tau)
        parallel = verify_candidates(
            graphs,
            query,
            result.candidates,
            tau,
            workers=2,
            disk_handle=engine.disk_handle(),
        )
        assert parallel.matches == serial.matches
        assert parallel.rejected == serial.rejected
        assert parallel.undecided == serial.undecided
        assert parallel.settled_by_bounds == serial.settled_by_bounds
        assert parallel.astar_runs == serial.astar_runs

    def test_workers_used_recorded(self, pool_setup):
        data, graphs, engine = pool_setup
        query = sample_queries(data, 1, seed=23, edits=1)[0]
        result = engine.range_query(query, tau=2)
        report = verify_candidates(
            graphs,
            query,
            result.candidates,
            2,
            workers=2,
            disk_handle=engine.disk_handle(),
        )
        # Either the pool engaged (≥ 2 scheduled runs) or everything was
        # settled by bounds / a lone A* run stayed serial.
        assert report.workers_used in (1, 2)

    def test_env_var_engages_parallel_path(
        self, pool_setup, saved_engine, monkeypatch
    ):
        data, graphs, plain = pool_setup
        monkeypatch.setenv(ENV_VERIFY_WORKERS, "2")
        engine = saved_engine(graphs, k=10, h=30)
        assert engine.config.verify_workers == 2
        query = sample_queries(data, 1, seed=24, edits=1)[0]
        report = engine.range_query(query, tau=2, verify="exact")
        serial = plain.range_query(query, tau=2, verify="exact")
        assert report.matches == serial.matches
        assert report.stats.astar_runs == serial.stats.astar_runs

    def test_unpicklable_query_falls_back_to_serial(self, pool_setup):
        data, graphs, engine = pool_setup
        query = sample_queries(data, 4, seed=0, edits=2)[1]

        class Unpicklable(Graph):
            def __reduce__(self):
                raise TypeError("not today")

        bad = Unpicklable(query.labels(), list(query.edges()))
        # The paper chain: its CA candidates still need A*, while the
        # anchor tier would settle them first.
        candidates = engine.range_query(
            query, tau=3, filter_tiers=PAPER_FILTER_TIERS
        ).candidates
        truth = verify_candidates(graphs, query, candidates, 3)
        assert truth.astar_runs > 1  # precondition: a pool would run
        report = verify_candidates(
            graphs,
            bad,
            candidates,
            3,
            workers=2,
            disk_handle=engine.disk_handle(),
            fault_plan="",
        )
        assert report.matches == truth.matches
        assert report.workers_used == 1
        (event,) = report.degradations
        assert event.point == "pickle.engine" and not event.injected
        assert event.fallback == "serial" and "not today" in event.cause

    def test_range_query_exact_with_workers(self, pool_setup):
        data, _, engine = pool_setup
        query = sample_queries(data, 1, seed=25, edits=1)[0]
        tau = 2
        plain = engine.range_query(query, tau=tau, verify="exact")
        parallel = engine.range_query(
            query, tau=tau, verify="exact", verify_workers=2
        )
        assert parallel.matches == plain.matches
        assert parallel.verified == plain.verified
        assert parallel.stats.astar_runs == plain.stats.astar_runs
        assert parallel.stats.settled_by_bounds == plain.stats.settled_by_bounds
