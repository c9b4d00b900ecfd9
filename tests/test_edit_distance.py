"""Tests for exact GED (A*) including threshold and budget behaviour."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.linear import LinearScan
from repro.errors import SearchBudgetExceeded
from repro.graphs.edit_distance import (
    ged_within,
    graph_edit_distance,
    naive_upper_bound,
    prepare_query,
    trivial_lower_bound,
)
from repro.graphs.generators import erdos_renyi
from repro.graphs.model import Graph


class TestExactValues:
    def test_identity(self, paper_g1):
        assert graph_edit_distance(paper_g1, paper_g1) == 0

    def test_isomorphic_with_different_ids(self):
        g1 = Graph(["a", "b"], [(0, 1)])
        g2 = Graph({7: "b", 3: "a"}, [(3, 7)])
        assert graph_edit_distance(g1, g2) == 0

    def test_single_relabel(self):
        g1 = Graph(["a", "b"], [(0, 1)])
        g2 = Graph(["a", "c"], [(0, 1)])
        assert graph_edit_distance(g1, g2) == 1

    def test_single_edge_deletion(self):
        g1 = Graph(["a", "b", "c"], [(0, 1), (1, 2)])
        g2 = Graph(["a", "b", "c"], [(0, 1)])
        assert graph_edit_distance(g1, g2) == 1

    def test_vertex_insertion(self):
        g1 = Graph(["a"])
        g2 = Graph(["a", "b"])
        assert graph_edit_distance(g1, g2) == 1

    def test_vertex_with_edge_insertion(self):
        g1 = Graph(["a"])
        g2 = Graph(["a", "b"], [(0, 1)])
        assert graph_edit_distance(g1, g2) == 2

    def test_empty_vs_empty(self):
        assert graph_edit_distance(Graph(), Graph()) == 0

    def test_empty_vs_graph(self):
        g = Graph(["a", "b"], [(0, 1)])
        assert graph_edit_distance(Graph(), g) == 3
        assert graph_edit_distance(g, Graph()) == 3

    def test_symmetry(self, rng):
        for _ in range(10):
            g1 = erdos_renyi(rng, "ab", rng.randint(1, 4), 0.5)
            g2 = erdos_renyi(rng, "ab", rng.randint(1, 4), 0.5)
            assert graph_edit_distance(g1, g2) == graph_edit_distance(g2, g1)

    def test_paper_graphs(self, paper_g1, paper_g2):
        # g2 = g1 + one vertex 'd' + two edges: λ = 3.
        assert graph_edit_distance(paper_g1, paper_g2) == 3


class TestThreshold:
    def test_within_threshold_returns_value(self):
        g1 = Graph(["a", "b"], [(0, 1)])
        g2 = Graph(["a", "c"], [(0, 1)])
        assert graph_edit_distance(g1, g2, threshold=1) == 1

    def test_beyond_threshold_returns_none(self):
        g1 = Graph(["a", "b"], [(0, 1)])
        g2 = Graph(["x", "y", "z"])
        assert graph_edit_distance(g1, g2, threshold=1) is None

    def test_ged_within(self, rng):
        for _ in range(10):
            g1 = erdos_renyi(rng, "abc", rng.randint(1, 4), 0.4)
            g2 = erdos_renyi(rng, "abc", rng.randint(1, 4), 0.4)
            exact = graph_edit_distance(g1, g2)
            for tau in range(0, exact + 2):
                assert ged_within(g1, g2, tau) == (exact <= tau)

    def test_threshold_zero_is_isomorphism_test(self):
        g1 = Graph(["a", "b"], [(0, 1)])
        g2 = Graph(["b", "a"], [(0, 1)])
        assert ged_within(g1, g2, 0)

    def test_empty_graph_threshold(self):
        g = Graph(["a", "b"], [(0, 1)])
        assert graph_edit_distance(Graph(), g, threshold=2) is None
        assert graph_edit_distance(Graph(), g, threshold=3) == 3


class TestBudget:
    def test_budget_exceeded_raises(self):
        g1 = erdos_renyi(__import__("random").Random(5), "ab", 8, 0.5)
        g2 = erdos_renyi(__import__("random").Random(6), "ab", 8, 0.5)
        with pytest.raises(SearchBudgetExceeded) as exc:
            graph_edit_distance(g1, g2, budget=3)
        assert exc.value.budget == 3
        assert exc.value.expanded > 3


class TestCheapBounds:
    def test_trivial_lower_bound_is_lower(self, rng):
        for _ in range(10):
            g1 = erdos_renyi(rng, "abc", rng.randint(1, 5), 0.4)
            g2 = erdos_renyi(rng, "abc", rng.randint(1, 5), 0.4)
            exact = graph_edit_distance(g1, g2)
            assert trivial_lower_bound(g1, g2) <= exact
            assert exact <= naive_upper_bound(g1, g2)

    def test_trivial_lower_bound_identity(self, paper_g1):
        assert trivial_lower_bound(paper_g1, paper_g1) == 0

    def test_naive_upper_bound_value(self):
        g1 = Graph(["a", "b"], [(0, 1)])  # 2 vertices + 1 edge
        g2 = Graph(["c"])  # 1 vertex
        assert naive_upper_bound(g1, g2) == 4


@st.composite
def small_graph(draw, max_order=4):
    order = draw(st.integers(min_value=1, max_value=max_order))
    graph = Graph([draw(st.sampled_from("abc")) for _ in range(order)])
    for u in range(order):
        for v in range(u + 1, order):
            if draw(st.booleans()):
                graph.add_edge(u, v)
    return graph


class TestRootBound:
    """The ``threshold`` root check: ``trivial_lower_bound > τ`` returns
    ``None`` before any search state is built."""

    @settings(deadline=None, max_examples=40)
    @given(
        query=small_graph(),
        graphs=st.lists(small_graph(), min_size=1, max_size=5),
        tau=st.integers(min_value=0, max_value=4),
    )
    def test_linear_scan_is_exact(self, query, graphs, tau):
        db = {f"g{i}": graph for i, graph in enumerate(graphs)}
        got = LinearScan(db).range_query(query, tau=tau).candidates
        assert got == [
            gid for gid, graph in db.items() if graph_edit_distance(query, graph) <= tau
        ]

    @settings(deadline=None, max_examples=60)
    @given(q=small_graph(), g=small_graph(), tau=st.integers(min_value=0, max_value=4))
    def test_search_past_the_root_is_unchanged(self, q, g, tau):
        exact = graph_edit_distance(q, g)
        prepared, unprepared = {}, {}
        got = graph_edit_distance(
            q, g, threshold=tau, counters=prepared, prepared=prepare_query(q)
        )
        assert got == (exact if exact <= tau else None)
        assert graph_edit_distance(q, g, threshold=tau, counters=unprepared) == got
        if trivial_lower_bound(q, g) > tau:
            assert prepared == unprepared == {}  # no search, nothing recorded
        else:
            assert prepared == unprepared
            assert "expanded" in prepared
