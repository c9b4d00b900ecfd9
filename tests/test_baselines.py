"""Tests for the baseline methods: C-Star, κ-AT, C-Tree, linear oracle."""

from __future__ import annotations

import random

import pytest

from repro.baselines import (
    CStar,
    CTree,
    KappaAT,
    LinearScan,
    SegosMethod,
    adjacent_tree_signature,
    pattern_multiset,
)
from repro.baselines.kat import edits_affect_at_most
from repro.graphs.edit_distance import graph_edit_distance
from repro.graphs.generators import corpus, make_label_alphabet, mutate
from repro.graphs.model import Graph


@pytest.fixture(scope="module")
def corpus_setup():
    rng = random.Random(55)
    graphs = {
        f"g{i}": g
        for i, g in enumerate(
            corpus(rng, 25, kind="chemical", mean_order=7, stddev=2)
        )
    }
    return rng, graphs


def ground_truth(graphs, query, tau):
    return {
        gid
        for gid, g in graphs.items()
        if graph_edit_distance(query, g, threshold=tau) is not None
    }


class TestSoundnessAllMethods:
    @pytest.mark.parametrize("tau", [0, 1, 2, 3])
    def test_candidates_cover_truth(self, corpus_setup, tau):
        rng, graphs = corpus_setup
        labels = make_label_alphabet(63, prefix="C")
        query = mutate(
            random.Random(tau + 10), rng.choice(list(graphs.values())), 1, labels
        )
        truth = ground_truth(graphs, query, tau)
        kat = KappaAT(graphs, kappa=2)
        segos = SegosMethod(graphs, k=10, h=25)
        candidates = {}
        for method in (
            CStar(graphs),
            KappaAT(graphs, kappa=1),
            kat,
            CTree(graphs),
            LinearScan(graphs),
            segos,
        ):
            result = method.range_query(query, tau=tau)
            assert truth <= set(result.candidates), method.name
            assert result.confirmed <= truth, method.name
            candidates[method] = set(result.candidates)
        # Recall is 1 for all, so precision is |truth| / |candidates|:
        # SEGOS is at least as precise as κ-AT.
        assert len(candidates[segos]) <= len(candidates[kat])


class TestCStar:
    def test_accesses_whole_database(self, corpus_setup):
        rng, graphs = corpus_setup
        query = rng.choice(list(graphs.values())).copy()
        result = CStar(graphs).range_query(query, tau=1)
        assert result.graphs_accessed == len(graphs)

    def test_no_index(self, corpus_setup):
        _, graphs = corpus_setup
        assert CStar(graphs).index_size() == 0

    def test_validation(self, corpus_setup):
        _, graphs = corpus_setup
        method = CStar(graphs)
        with pytest.raises(ValueError):
            method.range_query(Graph(), tau=1)
        with pytest.raises(ValueError):
            method.range_query(Graph(["a"]), tau=-1)

    def test_timed_query_sets_elapsed(self, corpus_setup):
        rng, graphs = corpus_setup
        query = rng.choice(list(graphs.values())).copy()
        result = CStar(graphs).timed_range_query(query, 1)
        assert result.elapsed > 0


class TestKappaAT:
    def test_kappa_one_signature_is_star_like(self):
        g = Graph(["a", "b", "c"], [(0, 1), (0, 2)])
        assert adjacent_tree_signature(g, 0, 1) == "a(b,c)"
        assert adjacent_tree_signature(g, 1, 1) == "b(a)"

    def test_kappa_two_signature_nests(self):
        g = Graph(["a", "b", "c"], [(0, 1), (1, 2)])
        assert adjacent_tree_signature(g, 0, 2) == "a(b(c))"

    def test_signature_canonical_under_child_order(self):
        g1 = Graph(["a", "b", "c"], [(0, 1), (0, 2)])
        g2 = Graph(["a", "c", "b"], [(0, 1), (0, 2)])
        assert adjacent_tree_signature(g1, 0, 2) == adjacent_tree_signature(g2, 0, 2)

    def test_pattern_multiset_size(self, paper_g1):
        patterns = pattern_multiset(paper_g1, 2)
        assert sum(patterns.values()) == paper_g1.order

    def test_budget_growth(self):
        # δ=1, κ=1: vertex touch 1+1=2, edge touch 2·1=2 → 2.
        assert edits_affect_at_most(1, 1) == 2
        # δ=2, κ=1: vertex 1+2=3, edge 2 → 3.
        assert edits_affect_at_most(2, 1) == 3
        # δ=1, κ=2: vertex 3, edge 2·2=4 → 4 (edge ops dominate on paths).
        assert edits_affect_at_most(1, 2) == 4
        # δ=4, κ=2: vertex 1+4+16=21, edge 2·5=10 → 21.
        assert edits_affect_at_most(4, 2) == 21

    def test_identical_patterns_give_zero_tau_match(self, corpus_setup):
        rng, graphs = corpus_setup
        gid, graph = next(iter(graphs.items()))
        method = KappaAT(graphs, kappa=2)
        result = method.range_query(graph.copy(), tau=0)
        assert gid in result.candidates

    def test_index_size_counts_postings(self, corpus_setup):
        _, graphs = corpus_setup
        method = KappaAT(graphs, kappa=2)
        assert method.index_size() >= len(graphs)
        assert method.distinct_pattern_count() > 0

    def test_invalid_kappa(self, corpus_setup):
        _, graphs = corpus_setup
        with pytest.raises(ValueError):
            KappaAT(graphs, kappa=0)

    def test_weaker_than_cstar(self, corpus_setup):
        """κ-AT must be the loosest star-family filter (paper's finding)."""
        rng, graphs = corpus_setup
        query = rng.choice(list(graphs.values())).copy()
        tau = 2
        kat = set(KappaAT(graphs, kappa=2).range_query(query, tau=tau).candidates)
        cstar = set(CStar(graphs).range_query(query, tau=tau).candidates)
        assert len(kat) >= len(cstar)


class TestCTree:
    def test_bulk_load_depth(self, corpus_setup):
        _, graphs = corpus_setup
        tree = CTree(graphs, fanout=4)
        assert tree.depth() >= 2

    def test_invalid_fanout(self, corpus_setup):
        _, graphs = corpus_setup
        with pytest.raises(ValueError):
            CTree(graphs, fanout=1)

    def test_empty_database(self):
        tree = CTree({})
        assert tree.range_query(Graph(["a"]), tau=1).candidates == []
        assert tree.index_size() == 0
        assert tree.depth() == 0

    def test_index_size_positive(self, corpus_setup):
        _, graphs = corpus_setup
        assert CTree(graphs).index_size() > 0

    def test_pruning_actually_happens(self, corpus_setup):
        _, graphs = corpus_setup
        tree = CTree(graphs, fanout=4)
        query = Graph(["Z1", "Z2"], [(0, 1)])  # labels absent from corpus
        result = tree.range_query(query, tau=0)
        assert result.candidates == []
        assert result.nodes_visited < len(graphs)

    def test_validation(self, corpus_setup):
        _, graphs = corpus_setup
        tree = CTree(graphs)
        with pytest.raises(ValueError):
            tree.range_query(Graph(), tau=1)
        with pytest.raises(ValueError):
            tree.range_query(Graph(["a"]), tau=-0.5)


class TestLinearScan:
    def test_exact_answers(self, corpus_setup):
        rng, graphs = corpus_setup
        labels = make_label_alphabet(63, prefix="C")
        query = mutate(rng, rng.choice(list(graphs.values())), 1, labels)
        tau = 2
        result = LinearScan(graphs).range_query(query, tau=tau)
        assert set(result.candidates) == ground_truth(graphs, query, tau)
        assert result.confirmed == set(result.candidates)
