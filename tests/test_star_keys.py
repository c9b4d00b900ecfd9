"""Stars are keyed by ``(root, leaves)``, never by their display signature.

``Star.signature`` joins the root and the leaves with ``|`` and ``,``, so a
label containing either character makes two different stars print alike:
``Star("a|b", ["c"])`` and ``Star("a", ["b|c"])`` both read ``a|b|c``, and
``Star("a", ["b,c"])`` and ``Star("a", ["b", "c"])`` both read ``a|b,c``.
Each corpus below holds one such pair; keying the catalog, the sidecar
writers or a top-k cache by signature merges the two stars and loses
``g2`` from its own τ = 0 answer.
"""

from __future__ import annotations

import pytest

from repro.core.engine import SegosIndex
from repro.core.explain import explain_range_query
from repro.core.index import StarCatalog
from repro.core.persistence import load_index, save_index
from repro.core.pipeline import PipelinedSegos
from repro.core.subsearch import SubgraphSearch
from repro.graphs.model import Graph
from repro.graphs.star import Star

PIPE_CORPUS = (
    {"g1": Graph(["a|b", "c"], [(0, 1)]), "g2": Graph(["a", "b|c"], [(0, 1)])},
    Graph(["a", "b|c"], [(0, 1)]),
)
COMMA_CORPUS = (
    {
        "g1": Graph(["a", "b,c"], [(0, 1)]),
        "g2": Graph(["a", "b", "c"], [(0, 1), (0, 2)]),
    },
    Graph(["a", "b", "c"], [(0, 1), (0, 2)]),
)
CORPORA = {"pipe": PIPE_CORPUS, "comma": COMMA_CORPUS}


class TestStarKey:
    @pytest.mark.parametrize(
        "left, right",
        [
            (Star("a|b", ["c"]), Star("a", ["b|c"])),
            (Star("a", ["b,c"]), Star("a", ["b", "c"])),
        ],
    )
    def test_colliding_signatures_are_distinct_stars(self, left, right):
        assert left.signature == right.signature
        assert left.key != right.key and left != right
        catalog = StarCatalog()
        assert catalog.acquire(left) == (0, True)
        assert catalog.acquire(right) == (1, True)
        assert catalog.sid(left) == 0 and catalog.sid(right) == 1

    def test_key_is_root_and_sorted_leaves(self):
        star = Star("a", ["c", "b"])
        assert star.key == ("a", ("b", "c"))
        assert star.signature == "a|b,c"


def _mapped(graphs, tmp_path):
    path = tmp_path / "db.segos"
    save_index(SegosIndex(graphs), path)
    engine = load_index(path)
    assert engine.disk_handle() is not None
    return engine


def _union(corpus):
    """g1 beside the query: no two vertices of the union share a star."""
    graphs, query = corpus
    g1 = graphs["g1"]
    return Graph(
        [g1.label(v) for v in g1.vertices()] + [query.label(v) for v in query.vertices()],
        list(g1.edges()) + [(u + g1.order, v + g1.order) for u, v in query.edges()],
    )


@pytest.mark.parametrize("name", sorted(CORPORA))
class TestCollidingLabels:
    def test_memory_engine(self, name):
        graphs, query = CORPORA[name]
        result = SegosIndex(graphs).range_query(query, tau=0, verify="exact")
        assert result.matches == {"g2"}

    def test_mapped_engine(self, name, tmp_path):
        graphs, query = CORPORA[name]
        engine = _mapped(graphs, tmp_path)
        assert engine.range_query(query, tau=0, verify="exact").matches == {"g2"}
        engine.check_consistency()  # looks each star up in the mapped catalog

    def test_mapped_engine_after_promotion(self, name, tmp_path):
        # A mutation materializes the mapped catalog into a live one.
        graphs, query = CORPORA[name]
        engine = _mapped(graphs, tmp_path)
        engine.add("g3", Graph(["x"], []))
        assert engine.range_query(query, tau=0, verify="exact").matches == {"g2"}

    def test_pipelined(self, name, tmp_path):
        graphs, query = CORPORA[name]
        for engine in (SegosIndex(graphs), _mapped(graphs, tmp_path)):
            result = PipelinedSegos(engine).range_query(query, tau=0, verify="exact")
            assert result.matches == {"g2"}

    def test_batch_session_cache_keeps_stars_apart(self, name):
        # A serial batch runs one session: the second query must not reuse
        # the first one's top-k search for a star that only prints alike.
        graphs, _ = CORPORA[name]
        queries = [graphs["g1"], graphs["g2"]]
        engine = SegosIndex(graphs)
        for front in (engine, PipelinedSegos(engine)):
            results = front.batch_range_query(queries, tau=0, verify="exact")
            assert [r.matches for r in results] == [{"g1"}, {"g2"}]

    def test_explain_lists_each_star(self, name):
        union = _union(CORPORA[name])
        explanation = explain_range_query(SegosIndex(CORPORA[name][0]), union, tau=0)
        assert explanation.distinct_stars == union.order
        assert len(explanation.star_traces) == union.order

    def test_subgraph_search_runs_one_search_per_star(self, name):
        union = _union(CORPORA[name])
        search = SubgraphSearch(SegosIndex(CORPORA[name][0]), k=1)
        assert search.range_query(union, tau=0).stats.ta_searches == union.order


class TestSqliteControl:
    def test_pipe_corpus_matches(self):
        graphs, query = PIPE_CORPUS
        engine = SegosIndex(graphs, backend="sqlite")
        assert engine.range_query(query, tau=0, verify="exact").matches == {"g2"}

    def test_comma_corpus_matches(self):
        graphs, query = COMMA_CORPUS
        engine = SegosIndex(graphs, backend="sqlite")
        assert engine.range_query(query, tau=0, verify="exact").matches == {"g2"}
