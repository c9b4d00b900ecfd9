"""Composable filter tiers (repro.core.tiers + plan wiring).

Three contracts under test:

* **Soundness** — every tier's lower bound never exceeds the exact GED,
  and the anchor's upper bound never undercuts it, so adding tiers can
  only prune provable non-answers and settle provable matches.
* **Identity** — the full five-tier chain (the default) answers
  byte-identically to the paper's ``ta -> ca -> verify`` chain across
  every query mode
  (serial, batch, pipelined, kNN, join) plus subsearch.
* **Configuration** — ``filter_tiers`` validation (order, duplicates,
  unknown names, required tiers) and the env knob's degrade-to-default
  behaviour.

Plus the satellite guards: the aggregation-bound chain stays deduped in
``core/bounds.py`` (grep guard), and a sidecar predating the embedding
sections degrades loudly to an on-the-fly build with identical answers.
"""

from __future__ import annotations

import hashlib
import pathlib
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import (
    DEFAULT_FILTER_TIERS,
    ENV_FILTER_TIERS,
    FULL_TIER_CHAIN,
    PAPER_FILTER_TIERS,
    EngineConfig,
    validate_filter_tiers,
)
from repro.core.engine import SegosIndex
from repro.core.join import similarity_self_join
from repro.core.knn import knn_query
from repro.core.persistence import load_index, save_index
from repro.core.pipeline import PipelinedSegos
from repro.core.plan import EmbedStage, make_context
from repro.core.stats import QueryStats
from repro.core.subsearch import SubgraphSearch
from repro.core.tiers import anchor_bounds, resolve_tier_chain
from repro.datasets import sample_queries
from repro.graphs.edit_distance import graph_edit_distance, trivial_lower_bound
from repro.graphs.model import Graph
from repro.perf.columnar import GraphEmbeddings

LABELS = "abc"

labels_st = st.sampled_from(LABELS)


@st.composite
def graph_st(draw, max_order=5):
    order = draw(st.integers(min_value=1, max_value=max_order))
    graph = Graph([draw(labels_st) for _ in range(order)])
    for u in range(order):
        for v in range(u + 1, order):
            if draw(st.booleans()):
                graph.add_edge(u, v)
    return graph


corpus_st = st.lists(graph_st(), min_size=2, max_size=6)

FULL = ",".join(FULL_TIER_CHAIN)


def build_engine(graphs, **config) -> SegosIndex:
    engine = SegosIndex(**config)
    for i, graph in enumerate(graphs):
        engine.add(f"g{i}", graph)
    return engine


def canonical(result):
    return (sorted(map(str, result.candidates)), sorted(map(str, result.matches)))


# ----------------------------------------------------------------------
# Tier soundness (hypothesis)
# ----------------------------------------------------------------------
class TestTierSoundness:
    @settings(deadline=None, max_examples=40)
    @given(q=graph_st(), g=graph_st())
    def test_embed_bound_is_admissible(self, q, g):
        ged = graph_edit_distance(q, g)
        assert trivial_lower_bound(q, g) <= ged

    @settings(deadline=None, max_examples=40)
    @given(q=graph_st(), g=graph_st())
    def test_anchor_bounds_bracket_exact_ged(self, q, g):
        lower, upper = anchor_bounds(q, g)
        ged = graph_edit_distance(q, g)
        assert lower <= ged <= upper

    @settings(deadline=None, max_examples=40)
    @given(q=graph_st())
    def test_anchor_identity_settles_immediately(self, q):
        lower, upper = anchor_bounds(q, q)
        assert lower == upper == 0

    @settings(
        deadline=None, max_examples=25, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(corpus=corpus_st, query=graph_st())
    def test_vectorized_sweep_matches_pairwise_spec(self, corpus, query):
        # The batch sweep must agree element-wise with the pairwise
        # executable specification.
        pairs = [(f"g{i}", g) for i, g in enumerate(corpus)]
        emb = GraphEmbeddings.build(pairs, generation=0)
        swept = emb.lower_bounds(query)
        assert list(emb.gids) == [gid for gid, _ in pairs]
        for (gid, graph), value in zip(pairs, swept):
            assert int(value) == trivial_lower_bound(query, graph), gid

    @settings(
        deadline=None, max_examples=25, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        corpus=corpus_st,
        query=graph_st(),
        tau=st.sampled_from([0, 1, 2, 2.5, 4]),
    )
    def test_embed_stage_folds_like_per_graph_bounds(self, corpus, query, tau):
        # EmbedStage folds the whole sweep at once; its counters and
        # exclusions must equal a per-graph fold of the pairwise bound.
        want = QueryStats()
        excluded = set()
        for i, graph in enumerate(corpus):
            bound = float(trivial_lower_bound(query, graph))
            want.record_tier_bound("embed", bound)
            if bound > tau:
                want.count_prune("embed")
                excluded.add(f"g{i}")
        engine = build_engine(corpus)
        ctx = make_context(engine, query, tau, config=engine.config)
        ctx = EmbedStage().run(ctx)
        assert ctx.stats.tier_bounds == want.tier_bounds
        assert ctx.stats.pruned_by == want.pruned_by
        assert ctx.embed_excluded == frozenset(excluded)


# ----------------------------------------------------------------------
# Full chain == legacy chain, every query mode
# ----------------------------------------------------------------------
class TestChainIdentity:
    @settings(
        deadline=None, max_examples=15, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(corpus=corpus_st, query=graph_st(), tau=st.sampled_from([0, 1, 2, 4]))
    def test_range_query_identity(self, corpus, query, tau):
        legacy = build_engine(corpus, filter_tiers=PAPER_FILTER_TIERS)
        full = build_engine(corpus, filter_tiers=FULL)
        lhs = legacy.range_query(query, tau=tau, verify="exact")
        rhs = full.range_query(query, tau=tau, verify="exact")
        assert sorted(map(str, lhs.matches)) == sorted(map(str, rhs.matches))
        # Extra tiers may shrink the candidate pool but never the answers.
        assert set(map(str, rhs.candidates)) <= set(map(str, lhs.candidates))
        # ... and they never add work: embed keeps graphs out of CA's full
        # µ computations and anchor settles candidates before A*.
        assert rhs.stats.astar_runs <= lhs.stats.astar_runs
        assert (
            rhs.stats.full_mapping_computations
            <= lhs.stats.full_mapping_computations
        )

    def test_extra_tiers_save_work(self, small_aids, small_pdg):
        # Seeded aids/pdg queries one and three edits from a database
        # graph, τ 1–3: every chain gives the same answers, and in total
        # the full chain runs strictly fewer A* searches and full µ
        # computations than the paper chain.  Each extra tier pays on its
        # own: embed is the only tier ahead of CA, so the µ saving is
        # its; dropping anchor alone must cost A* runs.
        chains = {
            "paper": PAPER_FILTER_TIERS,
            "no anchor": "embed,ta,ca,verify",
            "full": FULL,
        }
        astar = dict.fromkeys(chains, 0)
        mu = dict.fromkeys(chains, 0)
        for data in (small_aids, small_pdg):
            engines = {
                name: SegosIndex(data.graphs, filter_tiers=chain)
                for name, chain in chains.items()
            }
            for edits in (1, 3):
                for query in sample_queries(data, 6, seed=7, edits=edits):
                    for tau in (1, 2, 3):
                        answers = set()
                        for name, engine in engines.items():
                            result = engine.range_query(query, tau=tau, verify="exact")
                            answers.add(frozenset(result.matches))
                            astar[name] += result.stats.astar_runs
                            mu[name] += result.stats.full_mapping_computations
                        assert len(answers) == 1
        assert astar["full"] < astar["paper"], astar
        assert mu["full"] < mu["paper"], mu
        assert astar["full"] < astar["no anchor"], astar

    @settings(
        deadline=None, max_examples=10, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(corpus=corpus_st, query=graph_st())
    def test_batch_pipelined_identity(self, corpus, query):
        legacy = build_engine(corpus, filter_tiers=PAPER_FILTER_TIERS)
        full = build_engine(corpus, filter_tiers=FULL)
        want = sorted(map(str, legacy.range_query(query, tau=2, verify="exact").matches))

        batch = full.batch_range_query([query], tau=2, verify="exact")[0]
        assert sorted(map(str, batch.matches)) == want

        piped = PipelinedSegos(full).range_query(query, tau=2, verify="exact")
        assert sorted(map(str, piped.matches)) == want

    @settings(
        deadline=None, max_examples=10, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(corpus=corpus_st, query=graph_st())
    def test_knn_join_subsearch_identity(self, corpus, query):
        legacy = build_engine(corpus, filter_tiers=PAPER_FILTER_TIERS)
        full = build_engine(corpus, filter_tiers=FULL)

        k = min(2, len(corpus))
        lhs = knn_query(legacy, query, k=k)
        rhs = knn_query(full, query, k=k)
        assert sorted(d for _, d in lhs.neighbours) == sorted(
            d for _, d in rhs.neighbours
        )

        assert (
            similarity_self_join(legacy, tau=1, verify="exact").matches
            == similarity_self_join(full, tau=1, verify="exact").matches
        )

        # Subsearch keeps its own adapted plan (sub-GED is not a metric;
        # the GED tiers would be unsound there) — but the engine config
        # carrying a full chain must not perturb its answers.
        sub_l = SubgraphSearch(legacy).range_query(query, tau=1, verify="exact")
        sub_r = SubgraphSearch(full).range_query(query, tau=1, verify="exact")
        assert sorted(map(str, sub_l.matches)) == sorted(map(str, sub_r.matches))

    def test_tier_stats_surface(self):
        corpus = [
            Graph(["a", "b"], [(0, 1)]),
            Graph(["a", "b", "c"], [(0, 1), (1, 2)]),
            Graph(["x", "y", "z", "x", "y"], [(0, 1), (1, 2), (2, 3), (3, 4)]),
        ]
        engine = build_engine(corpus, filter_tiers=FULL)
        result = engine.range_query(corpus[0], tau=1, verify="exact")
        assert result.stats.pruned_by.get("embed", 0) >= 1
        assert "embed" in result.stats.tier_bounds
        assert result.stats.anchor_settled >= 1
        summary = result.stats.summary()
        assert "anchor settled" in summary
        for stage in ("embed", "anchor"):
            assert stage in result.stats.stage_seconds


# ----------------------------------------------------------------------
# Configuration surface
# ----------------------------------------------------------------------
class TestTierConfig:
    def test_default_chain_is_the_full_chain(self):
        assert EngineConfig().filter_tiers == FULL_TIER_CHAIN
        assert DEFAULT_FILTER_TIERS == FULL_TIER_CHAIN
        assert resolve_tier_chain() == DEFAULT_FILTER_TIERS
        assert PAPER_FILTER_TIERS == ("ta", "ca", "verify")

    def test_accepts_comma_string_and_iterable(self):
        assert validate_filter_tiers("embed,ta,ca,verify") == (
            "embed",
            "ta",
            "ca",
            "verify",
        )
        assert validate_filter_tiers(["ta", "ca", "anchor", "verify"]) == (
            "ta",
            "ca",
            "anchor",
            "verify",
        )

    @pytest.mark.parametrize(
        "bad",
        [
            "bogus,ta,ca,verify",  # unknown tier
            "ta,ta,ca,verify",  # duplicate
            "ca,ta,verify",  # out of chain order
            "embed,anchor,verify",  # missing required ta/ca
            "ta,ca",  # missing verify
            "",
        ],
    )
    def test_rejects_malformed_chains(self, bad):
        with pytest.raises(ValueError):
            validate_filter_tiers(bad)

    def test_env_knob_applies(self, monkeypatch):
        monkeypatch.setenv(ENV_FILTER_TIERS, FULL)
        assert EngineConfig.from_env().filter_tiers == FULL_TIER_CHAIN

    def test_invalid_env_degrades_to_default(self, monkeypatch):
        monkeypatch.setenv(ENV_FILTER_TIERS, "bogus")
        assert EngineConfig.from_env().filter_tiers == DEFAULT_FILTER_TIERS

    def test_kwarg_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_FILTER_TIERS, FULL)
        engine = SegosIndex(filter_tiers="ta,ca,verify")
        assert engine.filter_tiers == PAPER_FILTER_TIERS

    def test_per_query_override(self):
        corpus = [Graph(["a", "b"], [(0, 1)]), Graph(["c"], [])]
        engine = build_engine(corpus, filter_tiers=PAPER_FILTER_TIERS)
        result = engine.range_query(
            corpus[0], tau=0, verify="exact", filter_tiers=FULL
        )
        assert "embed" in result.stats.tier_bounds
        # The engine's own config is untouched by the per-query override.
        assert engine.filter_tiers == PAPER_FILTER_TIERS

    def test_chain_survives_persistence(self, tmp_path):
        engine = build_engine(
            [Graph(["a", "b"], [(0, 1)]), Graph(["a", "c"], [(0, 1)])],
            filter_tiers=FULL,
        )
        path = tmp_path / "db.segos"
        save_index(engine, path)
        loaded = load_index(path)
        assert loaded.filter_tiers == FULL_TIER_CHAIN


# ----------------------------------------------------------------------
# Satellite guards
# ----------------------------------------------------------------------
SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


class TestBoundsDedup:
    def test_full_bound_chain_lives_only_in_bounds_module(self):
        # The ζ ≤ L_µ ≤ µ ≤ U_µ settle chain was once pasted into three
        # call sites; it now lives in core/bounds.py alone.  Nobody else
        # may import the raw mapping bounds to rebuild it.
        pattern = re.compile(r"from\s+\.\.?matching\.mapping\s+import\s+.*\bbounds\b")
        offenders = []
        for path in (SRC / "core").glob("*.py"):
            if path.name == "bounds.py":
                continue
            if pattern.search(path.read_text()):
                offenders.append(path.name)
        assert not offenders, f"raw bound-chain import leaked into {offenders}"

    def test_settlers_route_through_shared_helper(self):
        for module in ("ca_search.py", "pipeline.py", "verify.py"):
            text = (SRC / "core" / module).read_text()
            assert "settle_by_full_bounds" in text, module


class TestStaleSidecarDegradation:
    def _engine(self):
        return build_engine(
            [
                Graph(["a", "b"], [(0, 1)]),
                Graph(["a", "b", "c"], [(0, 1), (1, 2)]),
                Graph(["x", "y"], [(0, 1)]),
            ],
            filter_tiers=FULL,
        )

    def test_pre_embedding_sidecar_degrades_loudly(self, tmp_path):
        import dataclasses

        from repro.perf import diskcat

        engine = self._engine()
        path = tmp_path / "db.segos"
        save_index(engine, path)
        sidecar = pathlib.Path(str(path) + ".segosx")
        assert sidecar.exists()

        fresh = load_index(path)
        query = Graph(["a", "b"], [(0, 1)])
        want = fresh.range_query(query, tau=1, verify="exact")
        assert not want.stats.degradations

        # Rewrite the sidecar in the pre-embedding layout, as an index
        # built by an older release would have left it.
        data = path.read_bytes()
        diskcat.write_sidecar(
            sidecar,
            list(fresh._graphs.items()),
            config=dataclasses.asdict(fresh.config),
            generation=0,
            source_size=len(data),
            source_sha=hashlib.sha256(data).digest(),
            embeddings=False,
        )
        stale = load_index(path)
        got = stale.range_query(query, tau=1, verify="exact")
        assert canonical(got) == canonical(want)
        events = [e for e in got.stats.degradations if e.point == "embeddings.sidecar"]
        assert events, "missing-embeddings fallback must be loud"
        assert events[0].fallback == "recompute"

    def test_fresh_sidecar_carries_embeddings(self, tmp_path):
        from repro.perf import diskcat

        engine = self._engine()
        path = tmp_path / "db.segos"
        save_index(engine, path)
        disk = diskcat.DiskCatalog(pathlib.Path(str(path) + ".segosx"))
        try:
            assert disk.has_embeddings()
            assert disk.embedding_bytes() > 0
        finally:
            disk.close()
