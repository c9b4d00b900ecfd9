"""Tests for the graph similarity join."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from repro.core.engine import SegosIndex
from repro.core.join import similarity_join, similarity_self_join
from repro.datasets import aids_like
from repro.graphs.edit_distance import graph_edit_distance
from repro.graphs.generators import mutate
from repro.graphs.model import Graph


@pytest.fixture(scope="module")
def join_world():
    data = aids_like(15, seed=61, mean_order=6, stddev=1)
    graphs = dict(data.graphs)
    # Plant two clone pairs so the join has guaranteed matches.
    rng = random.Random(62)
    keys = list(graphs)
    for i, key in enumerate(keys[:2]):
        graphs[f"{key}-twin"] = mutate(rng, graphs[key], 1, data.labels)
    return graphs, SegosIndex(graphs, k=10, h=30)


def exact_pairs(graphs, tau):
    return {
        (a, b)
        for a, b in combinations(sorted(graphs, key=str), 2)
        if graph_edit_distance(graphs[a], graphs[b], threshold=tau) is not None
    }


class TestSelfJoin:
    @pytest.mark.parametrize("tau", [0, 1, 2])
    def test_exact_self_join(self, join_world, tau):
        graphs, engine = join_world
        result = similarity_self_join(engine, tau=tau, verify="exact")
        assert result.verified
        assert result.matches == exact_pairs(graphs, tau)

    def test_candidates_cover_truth(self, join_world):
        graphs, engine = join_world
        result = similarity_self_join(engine, tau=1)
        assert exact_pairs(graphs, 1) <= set(result.pairs)
        # The index pays off: it computes far fewer mapping distances
        # than a naive join's one per unordered pair.
        n = len(graphs)
        assert result.stats.graphs_accessed < n * (n - 1) // 2

    def test_no_self_pairs_or_mirrors(self, join_world):
        graphs, engine = join_world
        result = similarity_self_join(engine, tau=2)
        assert all(a != b for a, b in result.pairs)
        seen = set(result.pairs)
        assert all((b, a) not in seen for a, b in result.pairs)

    def test_ta_cache_shared(self, join_world):
        graphs, engine = join_world
        result = similarity_self_join(engine, tau=1)
        # Shared cache: far fewer TA searches than total query stars.
        total_stars = sum(g.order for g in graphs.values())
        assert result.stats.ta_searches < total_stars


class TestProbeJoin:
    def test_probe_join_finds_sources(self, join_world):
        graphs, engine = join_world
        rng = random.Random(63)
        probes = {
            f"probe-{i}": mutate(rng, graphs[key], 1, list("abc"))
            for i, key in enumerate(list(graphs)[:3])
        }
        result = similarity_join(engine, probes, tau=1, verify="exact")
        lefts = {a for a, _ in result.matches}
        assert lefts  # every probe is 1 edit from its source

    def test_probe_join_keeps_all_pairs(self, join_world):
        graphs, engine = join_world
        gid = next(iter(graphs))
        probes = {"p": graphs[gid].copy()}
        result = similarity_join(engine, probes, tau=0, verify="exact")
        assert ("p", gid) in result.matches

    def test_validation(self, join_world):
        _, engine = join_world
        with pytest.raises(ValueError):
            similarity_self_join(engine, tau=-1)
        with pytest.raises(ValueError):
            similarity_self_join(engine, tau=1, verify="hmm")

    def test_empty_probe_set(self, join_world):
        _, engine = join_world
        result = similarity_join(engine, {}, tau=1)
        assert result.pairs == []


class TestPublicPlanRouting:
    """The join runs through the public session API — no private reach-ins."""

    @pytest.mark.filterwarnings("error::DeprecationWarning")
    def test_join_emits_no_deprecation_warnings(self, join_world):
        _, engine = join_world
        similarity_self_join(engine, tau=1)

    def test_join_identical_to_independent_range_queries(self, join_world):
        graphs, engine = join_world
        result = similarity_self_join(engine, tau=1)
        # Rebuild the join with one public range query per probe (no shared
        # session): the shared-cache path must not change a single pair.
        ordering = {gid: i for i, gid in enumerate(sorted(graphs, key=str))}
        expected = []
        for left in sorted(graphs, key=str):
            probe = engine.range_query(graphs[left], tau=1)
            for right in probe.candidates:
                if ordering[right] <= ordering[left]:
                    continue
                expected.append((left, right))
        assert sorted(result.pairs, key=str) == sorted(expected, key=str)

    def test_probe_join_shares_one_session(self, join_world):
        graphs, engine = join_world
        probes = {f"p{i}": graphs[key].copy() for i, key in enumerate(graphs)}
        shared = similarity_join(engine, probes, tau=1)
        solo = sum(
            engine.range_query(g, tau=1).stats.ta_searches for g in probes.values()
        )
        # Cache sharing must strictly reduce TA work on this clone-heavy set.
        assert shared.stats.ta_searches < solo
