"""Tests for the CA graph score-list construction (Section V-B)."""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SegosIndex
from repro.core.graph_lists import (
    GraphList,
    GraphListEntry,
    build_all_lists,
    build_query_star_lists,
)
from repro.core.index import TwoLevelIndex
from repro.core.persistence import load_index, save_index
from repro.core.ta_search import top_k_stars
from repro.datasets import aids_like
from repro.graphs.model import Graph
from repro.graphs.star import Star, decompose, epsilon_distance


@pytest.fixture
def paper_index(paper_g1, paper_g2):
    index = TwoLevelIndex()
    index.add_graph("g1", paper_g1, decompose(paper_g1))
    index.add_graph("g2", paper_g2, decompose(paper_g2))
    return index


class TestBuildLists:
    def test_figure9_small_large_split(self, paper_index, paper_g1):
        """Figure 9: lists for q = g1 split at |q| = 5; g1 small, g2 large."""
        query_star = Star("c", "ab")  # q: s5
        topk = top_k_stars(paper_index, query_star, 2)
        lists = build_query_star_lists(paper_index, query_star, 5, topk)
        assert all(e.gid == "g1" for e in lists.small)
        assert all(e.gid == "g2" for e in lists.large)
        # Top-2 of s5 = {s5: 0, s2: 1}; both have postings on both sides.
        assert [e.sed for e in lists.small] == [0, 1]
        assert [e.sed for e in lists.large] == [0, 1]
        # The SED-ascending order within a side is what CA relies on.
        assert [e.freq for e in lists.small] == [2, 1]

    def test_small_side_epsilon_discard(self, paper_index):
        """Small-side segments with SED > λ(s_q, ε) are dropped (§V-B)."""
        tiny = Star("a")  # ε distance 1: almost everything exceeds it
        topk = top_k_stars(paper_index, tiny, 7)
        lists = build_query_star_lists(paper_index, tiny, 99, topk)
        eps = epsilon_distance(tiny)
        assert all(e.sed <= eps for e in lists.small)
        # The large side keeps everything (no ε alignment there).
        kept_small = {e.sid for e in lists.small}
        assert len(kept_small) < len(topk.entries)

    def test_entries_sed_ascending(self, paper_index, paper_g1):
        lists = build_all_lists(paper_index, decompose(paper_g1), 5, 5)
        for ql in lists:
            for side in (ql.small, ql.large):
                seds = [e.sed for e in side]
                assert seds == sorted(seds)

    def test_duplicate_query_stars_share_ta(self, paper_index, paper_g1):
        accesses = []
        lists = build_all_lists(
            paper_index, decompose(paper_g1), 5, 3, ta_accesses=accesses
        )
        # g1 has 5 stars but s5 appears twice: only 4 TA searches run.
        assert len(lists) == 5
        assert len(accesses) == 4

    def test_exhausted_bounds(self, paper_index):
        star = Star("c", "ab")
        topk = top_k_stars(paper_index, star, 2)
        lists = build_query_star_lists(paper_index, star, 5, topk)
        assert lists.exhausted_small_bound() <= lists.exhausted_large_bound() or (
            lists.exhausted_small_bound() == min(lists.kth_sed, lists.epsilon)
        )
        assert lists.epsilon == epsilon_distance(star)

    def test_unindexed_star_yields_empty_lists(self, paper_index):
        missing = Star("zz", ["zz"])
        topk = top_k_stars(paper_index, missing, 1)
        lists = build_query_star_lists(paper_index, missing, 5, topk)
        # Top-1 exists (some nearest star) and has postings; but a star id
        # with no postings would produce empty sides — simulate via k=1 on
        # an empty index.
        empty = TwoLevelIndex()
        empty_topk = top_k_stars(empty, missing, 1)
        empty_lists = build_query_star_lists(empty, missing, 5, empty_topk)
        assert empty_lists.small == [] and empty_lists.large == []
        assert empty_lists.kth_sed == float("inf")


# ----------------------------------------------------------------------
# Lazy lists against an eager reference, on every upper-level backend
# ----------------------------------------------------------------------
def eager_reference(index, star, query_order, topk):
    """Both sides built the eager way: one entry per posting, up front."""
    eps = epsilon_distance(star)
    small, large = [], []
    for sid, sed in topk.entries:
        for e in index.upper.postings(sid):
            entry = GraphListEntry(e.gid, e.order, sed, sid, e.freq)
            if e.order > query_order:
                large.append(entry)
            elif sed <= eps:
                small.append(entry)
    return small, large


def open_engine(backend, graphs, workdir):
    if backend in ("memory", "sqlite"):
        return SegosIndex(graphs, backend=backend)
    path = Path(workdir) / "db.segos"
    save_index(SegosIndex(graphs), path)
    engine = load_index(path)
    assert engine.disk_handle() is not None and not engine.index.promoted
    return engine


def assert_list_like(lazy, reference):
    assert len(lazy) == len(reference)
    assert list(lazy) == reference
    assert lazy == reference
    for i in range(-len(reference), len(reference)):
        assert lazy[i] == reference[i]
    for i in (len(reference), -len(reference) - 1):
        with pytest.raises(IndexError):
            lazy[i]


class TestLazyLists:
    @settings(max_examples=30, deadline=None)
    @given(
        backend=st.sampled_from(["memory", "sqlite", "mapped"]),
        seed=st.integers(0, 10_000),
        n=st.integers(2, 10),
        k=st.integers(1, 8),
        order_shift=st.integers(-3, 3),
        mutation=st.sampled_from(["add", "remove", "relabel_vertex"]),
    )
    def test_lists_match_eager_reference(
        self, backend, seed, n, k, order_shift, mutation
    ):
        graphs = aids_like(n, seed=seed, mean_order=6, stddev=2).graphs
        query = graphs[sorted(graphs)[seed % n]]
        query_order = max(1, query.order + order_shift)
        with tempfile.TemporaryDirectory() as workdir:
            engine = open_engine(backend, graphs, workdir)
            cache = {}
            stars = decompose(query)
            lists = build_all_lists(engine.index, stars, query_order, k, topk_cache=cache)
            references = [
                eager_reference(engine.index, star, query_order, cache[star.key])
                for star in stars
            ]
            for ql, (small, large) in zip(lists, references):
                assert isinstance(ql.small, GraphList)
                assert_list_like(ql.small, small)
                assert_list_like(ql.large, large)

            # Snapshot stability: a mutation after the build, aimed at a
            # graph the lists point to, changes nothing already built.
            listed = [e.gid for ql in lists for e in ql.small + ql.large]
            target = listed[0] if listed else sorted(graphs)[0]
            if mutation == "add":
                engine.add("copy-of-" + str(target), engine.graph(target).copy())
            elif mutation == "remove":
                engine.remove(target)
            else:
                engine.relabel_vertex(target, 0, "Zz")
            for ql, (small, large) in zip(lists, references):
                assert list(ql.small) == small
                assert list(ql.large) == large
