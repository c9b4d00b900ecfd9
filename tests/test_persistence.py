"""Tests for saving/loading SEGOS databases."""

from __future__ import annotations

import pytest

from repro.config import FULL_TIER_CHAIN, PAPER_FILTER_TIERS
from repro.core.engine import SegosIndex
from repro.core.persistence import load_index, save_index
from repro.errors import ParseError
from repro.graphs import io as gio
from repro.graphs.model import Graph

# Verbatim first line of a database saved before catalog sharding was
# removed: the v2 header still records the three retired sharding knobs,
# and the equally retired ``sed_cache_size`` and ``mmap``.
RETIRED_KNOBS_HEADER = (
    '#segos {"config": {"assignment_backend": null, "batch_workers": 1, '
    '"delta_compact": 0.25, "fault_plan": null, "filter_tiers": ["ta", "ca", '
    '"verify"], "fsync_policy": "batch", "h": 1000, "index_path": null, '
    '"k": 100, "max_pool_retries": 2, "metrics": false, "mmap": false, '
    '"partial_fraction": 0.5, "retry_backoff": 0.05, "sed_cache_size": 262144, '
    '"shard_by": "auto", "shard_pivots": 2, "shards": 2, "task_timeout": null, '
    '"topk_backend": null, "trace": false, "trace_path": null, '
    '"verify_budget": 2000000, "verify_deadline": null, "verify_workers": 1}, '
    '"graphs": 4, "version": 2}\n'
)

RETIRED_KNOBS_GRAPHS = {
    "g0": Graph(["a", "b", "c"], [(0, 1), (1, 2)]),
    "g1": Graph(["a", "b", "d"], [(0, 1), (1, 2)]),
    "g2": Graph(["a", "a", "b", "c"], [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "g3": Graph(["c", "d"], [(0, 1)]),
}


@pytest.fixture
def engine(paper_g1, paper_g2):
    engine = SegosIndex(k=33, h=77, partial_fraction=0.25)
    engine.add("g1", paper_g1)
    engine.add("g2", paper_g2)
    return engine


class TestRoundTrip:
    def test_graphs_survive(self, engine, tmp_path):
        path = tmp_path / "db.segos"
        save_index(engine, path)
        loaded = load_index(path)
        assert set(loaded.gids()) == {"g1", "g2"}
        for gid in loaded.gids():
            original = engine.graph(gid)
            restored = loaded.graph(gid)
            assert restored.order == original.order
            assert restored.size == original.size
            assert restored.label_multiset() == original.label_multiset()

    def test_parameters_survive(self, engine, tmp_path):
        path = tmp_path / "db.segos"
        save_index(engine, path)
        loaded = load_index(path)
        assert loaded.k == 33
        assert loaded.h == 77
        assert loaded.partial_fraction == 0.25

    def test_queries_equivalent_after_reload(self, engine, tmp_path):
        path = tmp_path / "db.segos"
        save_index(engine, path)
        loaded = load_index(path)
        query = engine.graph("g1").copy()
        # Vertex ids are renumbered on save; compare by verified answers.
        a = engine.range_query(query, tau=3, verify="exact").matches
        b = loaded.range_query(query, tau=3, verify="exact").matches
        assert a == b == {"g1", "g2"}

    def test_index_consistent_after_reload(self, engine, tmp_path):
        path = tmp_path / "db.segos"
        save_index(engine, path)
        load_index(path).check_consistency()


class TestHeaderHandling:
    def test_plain_file_without_header(self, tmp_path, paper_g1):
        path = tmp_path / "plain.txt"
        gio.save(path, [("only", paper_g1)])
        loaded = load_index(path)
        assert set(loaded.gids()) == {"only"}
        assert loaded.k == 100  # engine defaults

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.segos"
        path.write_text("#segos {not json\n")
        with pytest.raises(ParseError):
            load_index(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "future.segos"
        path.write_text(
            '#segos {"version": 99, "k": 1, "h": 1, "partial_fraction": 0.5}\n'
        )
        with pytest.raises(ParseError):
            load_index(path)

    def test_header_is_a_comment_for_plain_io(self, engine, tmp_path):
        """The #segos line must not break the plain transaction reader."""
        path = tmp_path / "db.segos"
        save_index(engine, path)
        pairs = gio.load(path)
        assert {gid for gid, _ in pairs} == {"g1", "g2"}

    def test_empty_engine_round_trip(self, tmp_path):
        path = tmp_path / "empty.segos"
        save_index(SegosIndex(), path)
        assert len(load_index(path)) == 0

    def test_full_config_round_trips(self, tmp_path, paper_g1):
        """The v2 header persists the whole resolved EngineConfig, not just
        the paper's three structural knobs."""
        engine = SegosIndex(
            k=12,
            h=34,
            partial_fraction=0.75,
            verify_budget=4321,
            batch_workers=2,
            topk_backend="ta",
            delta_compact=0.5,
        )
        engine.add("g", paper_g1)
        path = tmp_path / "db.segos"
        save_index(engine, path)
        loaded = load_index(path)
        assert loaded.config == engine.config

    def test_v1_header_still_loads(self, tmp_path, paper_g1):
        """Databases written before the sidecar era carry only k/h/fraction."""
        path = tmp_path / "old.segos"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('#segos {"version": 1, "k": 7, "h": 9, "partial_fraction": 0.25}\n')
            gio.write_graphs(fh, [("g", paper_g1)])
        loaded = load_index(path)
        assert (loaded.k, loaded.h, loaded.partial_fraction) == (7, 9, 0.25)
        assert set(loaded.gids()) == {"g"}

    def test_retired_knobs_in_v2_header_are_dropped(self, tmp_path):
        """Headers from before sharding was removed load with equal answers."""
        path = tmp_path / "old.segos"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(RETIRED_KNOBS_HEADER)
            gio.write_graphs(fh, list(RETIRED_KNOBS_GRAPHS.items()))
        loaded = load_index(path)
        # The header records the paper chain, and candidates depend on it.
        fresh = SegosIndex(RETIRED_KNOBS_GRAPHS, filter_tiers=PAPER_FILTER_TIERS)
        assert set(loaded.gids()) == set(RETIRED_KNOBS_GRAPHS)
        for query in RETIRED_KNOBS_GRAPHS.values():
            for tau in (0, 1, 2, 3):
                want = fresh.range_query(query, tau=tau, verify="exact")
                got = loaded.range_query(query, tau=tau, verify="exact")
                assert sorted(got.candidates) == sorted(want.candidates)
                assert got.matches == want.matches
        # A re-save writes a header without the retired keys.
        resaved = tmp_path / "new.segos"
        save_index(loaded, resaved)
        header = resaved.read_text().splitlines()[0]
        for retired in ("shard", "sed_cache_size", '"mmap"'):
            assert retired not in header
        assert load_index(resaved).config == loaded.config

    def test_saved_paper_chain_is_honoured(self, tmp_path):
        """A header recording ``ta,ca,verify`` reopens with that chain,
        not the full default, and a re-save keeps it."""
        path = tmp_path / "old.segos"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(RETIRED_KNOBS_HEADER)
            gio.write_graphs(fh, list(RETIRED_KNOBS_GRAPHS.items()))
        loaded = load_index(path)
        assert SegosIndex().filter_tiers == FULL_TIER_CHAIN
        assert loaded.filter_tiers == PAPER_FILTER_TIERS
        query = RETIRED_KNOBS_GRAPHS["g0"]
        stats = loaded.range_query(query, tau=1, verify="exact").stats
        assert set(stats.stage_seconds) == set(PAPER_FILTER_TIERS)
        resaved = tmp_path / "new.segos"
        save_index(loaded, resaved)
        assert load_index(resaved).filter_tiers == PAPER_FILTER_TIERS

    def test_retired_auto_topk_backend_loads_as_default(self, tmp_path):
        """Headers saved while the top-k planner existed may say ``auto``."""
        path = tmp_path / "old.segos"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                RETIRED_KNOBS_HEADER.replace(
                    '"topk_backend": null', '"topk_backend": "auto"'
                )
            )
            gio.write_graphs(fh, list(RETIRED_KNOBS_GRAPHS.items()))
        loaded = load_index(path)
        assert loaded.config.topk_backend is None
        assert set(loaded.gids()) == set(RETIRED_KNOBS_GRAPHS)

    def test_unknown_v2_config_key_rejected(self, tmp_path):
        path = tmp_path / "bogus.segos"
        path.write_text(
            RETIRED_KNOBS_HEADER.replace('"batch_workers"', '"bogus": 1, "batch_workers"')
        )
        with pytest.raises(ParseError, match="invalid v2 #segos header"):
            load_index(path)
