"""Tests for the pipelined three-stage query processor (Section V-E)."""

from __future__ import annotations

import random

import pytest

from repro.core.engine import SegosIndex
from repro.core.pipeline import PIPELINE_K, PipelinedSegos
from repro.graphs.edit_distance import graph_edit_distance
from repro.graphs.generators import corpus, make_label_alphabet, mutate
from repro.graphs.model import Graph


@pytest.fixture(scope="module")
def pipeline_setup():
    rng = random.Random(77)
    graphs = {
        f"g{i}": g
        for i, g in enumerate(
            corpus(rng, 30, kind="chemical", mean_order=7, stddev=2)
        )
    }
    engine = SegosIndex(graphs, k=15, h=30)
    return rng, graphs, engine, PipelinedSegos(engine)


class TestPipeline:
    def test_default_k_matches_paper(self, pipeline_setup):
        _, _, engine, pipe = pipeline_setup
        assert pipe.k == PIPELINE_K == 20

    def test_invalid_k(self, pipeline_setup):
        _, _, engine, _ = pipeline_setup
        with pytest.raises(ValueError):
            PipelinedSegos(engine, k=0)

    def test_query_validation(self, pipeline_setup):
        _, _, _, pipe = pipeline_setup
        with pytest.raises(ValueError):
            pipe.range_query(Graph(), tau=1)
        with pytest.raises(ValueError):
            pipe.range_query(Graph(["a"]), tau=-1)
        with pytest.raises(ValueError):
            pipe.range_query(Graph(["a"]), tau=1, verify="what")

    @pytest.mark.parametrize("tau", [0, 1, 2])
    def test_no_false_negatives(self, pipeline_setup, tau):
        rng, graphs, _, pipe = pipeline_setup
        labels = make_label_alphabet(63, prefix="C")
        query = mutate(
            random.Random(tau), rng.choice(list(graphs.values())), 1, labels
        )
        truth = {
            gid
            for gid, g in graphs.items()
            if graph_edit_distance(query, g, threshold=tau) is not None
        }
        result = pipe.range_query(query, tau=tau)
        assert truth <= set(result.candidates)
        assert result.matches <= truth

    def test_exact_verification_matches_plain_engine(self, pipeline_setup):
        rng, graphs, engine, pipe = pipeline_setup
        query = rng.choice(list(graphs.values())).copy()
        tau = 2
        plain = engine.range_query(query, tau=tau, verify="exact")
        piped = pipe.range_query(query, tau=tau, verify="exact")
        assert piped.matches == plain.matches

    def test_exact_verification_surfaces_scheduler_stats(self, pipeline_setup):
        """The budgeted scheduler replaced the old bare `ged_within` loop;
        its bookkeeping must reach the pipelined stats."""
        rng, graphs, engine, pipe = pipeline_setup
        query = rng.choice(list(graphs.values())).copy()
        result = pipe.range_query(query, tau=2, verify="exact")
        stats = result.stats
        # Every candidate was either pre-confirmed, settled by bounds, or
        # went through a budgeted A* run.
        assert stats.settled_by_bounds + stats.astar_runs >= 0
        if result.candidates:
            assert stats.settled_by_bounds + stats.astar_runs > 0 or result.matches
        assert result.verified

    def test_exact_verification_budget_makes_undecided_honest(self, pipeline_setup):
        """A starved budget must flip `verified` off, never drop candidates."""
        rng, graphs, _, pipe = pipeline_setup
        query = rng.choice(list(graphs.values())).copy()
        generous = pipe.range_query(query, tau=2, verify="exact")
        starved = pipe.range_query(query, tau=2, verify="exact", verify_budget=1)
        assert set(starved.candidates) == set(generous.candidates)
        assert starved.matches <= generous.matches
        if starved.matches != generous.matches:
            assert not starved.verified

    def test_exact_verification_with_workers_matches_serial(
        self, pipeline_setup, saved_engine
    ):
        rng, graphs, _, pipe = pipeline_setup
        query = rng.choice(list(graphs.values())).copy()
        serial = pipe.range_query(query, tau=2, verify="exact")
        saved = PipelinedSegos(saved_engine(graphs, k=15, h=30))
        fanned = saved.range_query(query, tau=2, verify="exact", verify_workers=2)
        assert fanned.matches == serial.matches
        assert fanned.stats.astar_runs == serial.stats.astar_runs

    def test_repeated_runs_are_stable(self, pipeline_setup):
        """Thread scheduling must not change the verified answer set."""
        rng, graphs, _, pipe = pipeline_setup
        query = rng.choice(list(graphs.values())).copy()
        results = [
            pipe.range_query(query, tau=1, verify="exact").matches for _ in range(5)
        ]
        assert all(r == results[0] for r in results)

    def test_stats_populated(self, pipeline_setup):
        rng, graphs, _, pipe = pipeline_setup
        query = rng.choice(list(graphs.values())).copy()
        result = pipe.range_query(query, tau=1)
        assert result.stats.ta_searches >= 1
        assert result.stats.candidates == len(result.candidates)
        assert result.elapsed > 0

    def test_single_graph_database(self):
        engine = SegosIndex()
        engine.add("only", Graph(["a", "b"], [(0, 1)]))
        pipe = PipelinedSegos(engine)
        result = pipe.range_query(Graph(["a", "b"], [(0, 1)]), tau=0)
        assert result.candidates == ["only"]

    def test_query_dissimilar_to_everything(self, pipeline_setup):
        _, graphs, _, pipe = pipeline_setup
        query = Graph(["Z1", "Z2", "Z3"], [(0, 1), (1, 2)])
        result = pipe.range_query(query, tau=0)
        assert result.candidates == []
