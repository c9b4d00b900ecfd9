"""Tests for the SQLite relational index backend (Section IV-C's option)."""

from __future__ import annotations

import random

import pytest

from repro.errors import (
    GraphAlreadyIndexed,
    GraphNotIndexed,
    IndexCorruptionError,
)
from repro.core.engine import SegosIndex
from repro.core.index import GraphMeta, TwoLevelIndex
from repro.core.sqlite_index import SqliteTwoLevelIndex
from repro.core.ta_search import brute_force_top_k, top_k_stars
from repro.datasets import aids_like, sample_queries
from repro.graphs.model import Graph
from repro.graphs.star import Star, decompose, star_at


def build_both(graphs):
    mem = TwoLevelIndex()
    sql = SqliteTwoLevelIndex()
    for gid, g in graphs.items():
        mem.add_graph(gid, g, decompose(g))
        sql.add_graph(gid, g, decompose(g))
    return mem, sql


@pytest.fixture(scope="module")
def corpus():
    data = aids_like(25, seed=123, mean_order=7, stddev=2)
    return {str(gid): g for gid, g in data.graphs.items()}


class TestStructuralEquivalence:
    def test_sizes_and_counts(self, corpus):
        mem, sql = build_both(corpus)
        assert len(mem) == len(sql)
        assert len(mem.catalog) == len(sql.catalog)
        assert mem.size_estimate() == sql.size_estimate()
        assert mem.database_max_degree() == sql.database_max_degree()

    def test_upper_postings_match(self, paper_g1, paper_g2):
        mem, sql = build_both({"g1": paper_g1, "g2": paper_g2})
        for star in decompose(paper_g1) + decompose(paper_g2):
            mem_sid = mem.catalog.sid(star)
            sql_sid = sql.catalog.sid(star)
            mem_postings = [(e.gid, e.freq, e.order) for e in mem.upper.postings(mem_sid)]
            sql_postings = [(e.gid, e.freq, e.order) for e in sql.upper.postings(sql_sid)]
            assert mem_postings == sql_postings

    def test_lower_lists_match(self, paper_g1, paper_g2):
        mem, sql = build_both({"g1": paper_g1, "g2": paper_g2})
        sid_map = {
            mem.catalog.sid(mem.catalog.star(s)): s for s in mem.catalog.live_sids()
        }
        for label in ("a", "b", "c", "d"):
            mem_list = [
                (mem.catalog.star(e.sid).signature, e.freq, e.leaf_size)
                for e in mem.lower.label_list(label)
            ]
            sql_list = [
                (sql.catalog.star(e.sid).signature, e.freq, e.leaf_size)
                for e in sql.lower.label_list(label)
            ]
            assert mem_list == sql_list

    def test_size_list_split_matches(self, paper_g1, paper_g2):
        mem, sql = build_both({"g1": paper_g1, "g2": paper_g2})
        for boundary in (0, 2, 4, 99):
            mem_low, mem_high = mem.lower.split_size_list(boundary)
            sql_low, sql_high = sql.lower.split_size_list(boundary)
            assert [e.leaf_size for e in mem_low] == [e.leaf_size for e in sql_low]
            assert [e.leaf_size for e in mem_high] == [e.leaf_size for e in sql_high]

    def test_ta_search_identical_results(self, corpus):
        mem, sql = build_both(corpus)
        query = Star("C00", ["C00", "C01"])
        mem_result = top_k_stars(mem, query, 5)
        sql_result = top_k_stars(sql, query, 5)
        assert [d for _, d in mem_result.entries] == [
            d for _, d in sql_result.entries
        ]


class TestUpdates:
    def test_duplicate_graph_rejected(self, paper_g1):
        sql = SqliteTwoLevelIndex()
        sql.add_graph("g", paper_g1, decompose(paper_g1))
        with pytest.raises(GraphAlreadyIndexed):
            sql.add_graph("g", paper_g1, decompose(paper_g1))

    def test_remove_unknown_rejected(self):
        with pytest.raises(GraphNotIndexed):
            SqliteTwoLevelIndex().remove_graph("nope")

    def test_meta_unknown_rejected(self):
        with pytest.raises(GraphNotIndexed):
            SqliteTwoLevelIndex().meta("nope")

    def test_remove_graph_clears_postings(self, paper_g1, paper_g2):
        sql = SqliteTwoLevelIndex()
        sql.add_graph("g1", paper_g1, decompose(paper_g1))
        sql.add_graph("g2", paper_g2, decompose(paper_g2))
        sql.remove_graph("g1")
        sql.check_consistency()
        assert sql.catalog.sid(Star("a", "bbcc")) is None  # g1-only star died
        assert sql.catalog.sid(Star("c", "ab")) is not None  # shared survives
        sql.remove_graph("g2")
        assert sql.size_estimate() == 0

    def test_star_delta_matches_memory_backend(self, paper_g1):
        mem, sql = build_both({"g": paper_g1})
        mutated = paper_g1.copy()
        touched = (1, 3)
        removed = [star_at(mutated, v) for v in touched]
        mutated.add_edge(1, 3)
        added = [star_at(mutated, v) for v in touched]
        meta = GraphMeta(mutated.order, mutated.max_degree())
        mem.apply_star_delta("g", removed, added, meta)
        sql.apply_star_delta("g", removed, added, meta)
        sql.check_consistency()
        mem_sig = sorted(
            mem.catalog.star(sid).signature
            for sid, cnt in mem.graph_star_counts("g").items()
            for _ in range(cnt)
        )
        sql_sig = sorted(
            sql.catalog.star(sid).signature
            for sid, cnt in sql.graph_star_counts("g").items()
            for _ in range(cnt)
        )
        assert mem_sig == sql_sig

    def test_delta_with_unknown_star_raises(self, paper_g1):
        sql = SqliteTwoLevelIndex()
        sql.add_graph("g", paper_g1, decompose(paper_g1))
        with pytest.raises(IndexCorruptionError):
            sql.apply_star_delta("g", [Star("zz", "zz")], [], GraphMeta(5, 4))

    def test_comma_label_round_trips(self):
        sql = SqliteTwoLevelIndex()
        graph = Graph(["a,b", "c", "b"], [(0, 1), (0, 2)])
        stars = decompose(graph)
        sql.add_graph("g", graph, stars)
        for star in stars:
            assert sql.catalog.star(sql.catalog.sid(star)) == star
        assert sql.catalog.sid(Star("a,b", ["b,c"])) is None
        sql.check_consistency()


class TestEngineOnSqlite:
    def test_equivalent_query_answers(self, corpus):
        mem = SegosIndex(corpus, k=10, h=30)
        sql = SegosIndex(corpus, k=10, h=30, backend="sqlite")
        rng = random.Random(3)
        query = rng.choice(list(corpus.values())).copy()
        for tau in (0, 1, 2):
            a = mem.range_query(query, tau=tau, verify="exact")
            b = sql.range_query(query, tau=tau, verify="exact")
            assert a.matches == b.matches
            assert set(a.candidates) == set(b.candidates)

    def test_updates_via_engine(self, corpus):
        sql = SegosIndex(corpus, backend="sqlite")
        gid = next(iter(corpus))
        vertex = next(iter(sql.graph(gid).vertices()))
        sql.relabel_vertex(gid, vertex, "C62")
        sql.check_consistency()
        probe = sql.graph(gid).copy()
        assert gid in sql.range_query(probe, tau=0, verify="exact").matches

    def test_non_string_gid_rejected(self, paper_g1):
        sql = SegosIndex(backend="sqlite")
        with pytest.raises(TypeError):
            sql.add(42, paper_g1)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            SegosIndex(backend="csv")

    def test_on_disk_database(self, corpus, tmp_path):
        path = tmp_path / "index.db"
        sql = SegosIndex(corpus, backend="sqlite", sqlite_path=str(path))
        assert path.exists()
        assert len(sql) == len(corpus)
