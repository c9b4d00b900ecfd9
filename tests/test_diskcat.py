"""Tests for the ``.segosx`` mmap sidecar, delta segments, and disk transport."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import SegosIndex
from repro.core.join import similarity_self_join
from repro.core.knn import knn_query
from repro.core.persistence import load_index, save_index, sidecar_path_for
from repro.core.pipeline import PipelinedSegos
from repro.core.verify import verify_candidates
from repro.datasets import aids_like, sample_queries
from repro.errors import SidecarError, StaleSidecarError
from repro.graphs import io as gio
from repro.graphs.model import Graph
from repro.perf import diskcat
from repro.perf.diskcat import (
    ALIGNMENT,
    HEADER_SIZE,
    DiskCatalog,
    LazyGraphStore,
    default_sidecar_path,
    read_header,
    replay_generation_bumps,
    scan_graph_ranges,
)


def build_corpus(n=20, seed=7, **engine_kwargs):
    data = aids_like(n, seed=seed, mean_order=8, stddev=2)
    engine = SegosIndex(data.graphs, **engine_kwargs)
    return data, engine


@pytest.fixture
def saved(tmp_path):
    data, engine = build_corpus()
    path = tmp_path / "db.segos"
    save_index(engine, path)
    return data, engine, path


def answers(engine, data, tau=2):
    """Ordered answers across every query surface, for byte-identity checks."""
    queries = sample_queries(data, 2, seed=11)
    out = {
        "range": [
            (list(r.candidates), sorted(r.matches))
            for r in (engine.range_query(q, tau=tau, verify="exact") for q in queries)
        ],
        "batch": [
            list(r.candidates)
            for r in engine.batch_range_query(queries, tau=tau)
        ],
        "pipelined": [
            list(PipelinedSegos(engine).range_query(q, tau=tau).candidates)
            for q in queries
        ],
        "knn": knn_query(engine, queries[0], k=3).neighbours,
        "join": list(similarity_self_join(engine, tau=1).candidates),
    }
    return out


class TestSidecarFormat:
    def test_default_path_is_a_suffix(self, tmp_path):
        assert default_sidecar_path(tmp_path / "x.segos") == str(
            tmp_path / "x.segos.segosx"
        )

    def test_sidecar_written_next_to_text(self, saved):
        _, _, path = saved
        assert (path.parent / "db.segos.segosx").exists()

    def test_header_round_trip(self, saved):
        _, engine, path = saved
        header = read_header(default_sidecar_path(path))
        assert header.version == diskcat.FORMAT_VERSION
        assert header.generation == 0
        assert header.delta_count == 0
        assert header.source_size == path.stat().st_size

    def test_header_crc_corruption_rejected(self, saved):
        _, _, path = saved
        sidecar = default_sidecar_path(path)
        blob = bytearray(open(sidecar, "rb").read())
        blob[40] ^= 0xFF  # inside the header, past magic/version
        open(sidecar, "wb").write(blob)
        with pytest.raises(SidecarError):
            read_header(sidecar)

    def test_bad_magic_rejected(self, saved):
        _, _, path = saved
        sidecar = default_sidecar_path(path)
        blob = bytearray(open(sidecar, "rb").read())
        blob[:4] = b"NOPE"
        open(sidecar, "wb").write(blob)
        with pytest.raises(SidecarError):
            read_header(sidecar)

    def test_truncated_header_rejected(self, saved):
        _, _, path = saved
        sidecar = default_sidecar_path(path)
        blob = open(sidecar, "rb").read()
        open(sidecar, "wb").write(blob[: HEADER_SIZE // 2])
        with pytest.raises(SidecarError):
            read_header(sidecar)

    def test_sections_are_aligned(self, saved):
        _, _, path = saved
        with DiskCatalog(default_sidecar_path(path)) as disk:
            for name in diskcat.SECTION_NAMES:
                offset, _length, _crc = disk._sections[name]
                assert offset % ALIGNMENT == 0

    def test_checksums_verify_clean(self, saved):
        _, _, path = saved
        with DiskCatalog(default_sidecar_path(path)) as disk:
            assert disk.verify_checksums() == []

    def test_checksum_catches_section_corruption(self, saved):
        _, _, path = saved
        sidecar = default_sidecar_path(path)
        with DiskCatalog(sidecar) as disk:
            offset, length, _crc = disk._sections["cat_lids"]
        assert length > 0
        blob = bytearray(open(sidecar, "rb").read())
        blob[offset] ^= 0xFF
        open(sidecar, "wb").write(blob)
        with DiskCatalog(sidecar) as disk:
            assert any("cat_lids" in problem for problem in disk.verify_checksums())

    def test_sidecar_path_override_precedence(self, tmp_path):
        _, engine = build_corpus(n=4, index_path=str(tmp_path / "cfg.segosx"))
        path = tmp_path / "db.segos"
        assert sidecar_path_for(path, engine.config, None) == str(
            tmp_path / "cfg.segosx"
        )
        assert sidecar_path_for(path, engine.config, str(tmp_path / "arg.segosx")) == str(
            tmp_path / "arg.segosx"
        )

    def test_replay_generation_bumps(self):
        ops = [("add", "a", "t"), ("remove", "b", ""), ("update", "c", "t")]
        assert replay_generation_bumps(ops) == 4

    def test_int64_columns_round_trip(self):
        values = [0, 1, -1, 2**40, -(2**40)]
        packed = diskcat._pack_array(values)
        assert len(packed) == 8 * len(values)
        view = diskcat._int64_view(memoryview(packed))
        assert [int(x) for x in view] == values


class TestMmapLoad:
    def test_attaches_without_rebuilding(self, saved):
        _, _, path = saved
        loaded = load_index(path)
        assert loaded.disk_handle() is not None
        assert loaded.index.promoted is False

    def test_rebuild_when_mmap_disabled(self, saved):
        _, _, path = saved
        assert load_index(path, mmap=False).disk_handle() is None

    def test_consistency_while_mapped(self, saved):
        _, _, path = saved
        loaded = load_index(path)
        loaded.check_consistency()
        assert loaded.index.promoted is False

    @settings(
        deadline=None,
        max_examples=4,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(0, 10_000))
    def test_mapped_equals_rebuilt_across_all_query_modes(self, tmp_path, seed):
        """Acceptance bar: mmap-loaded and rebuilt engines agree byte-for-byte
        on every query surface — range, batch, pipelined, knn, and join."""
        data, engine = build_corpus(n=12, seed=seed)
        path = tmp_path / f"db-{seed}.segos"
        save_index(engine, path)
        mapped = load_index(path)
        rebuilt = load_index(path, mmap=False)
        assert mapped.disk_handle() is not None
        assert answers(mapped, data) == answers(rebuilt, data)
        mapped.check_consistency()

    def test_graphs_served_lazily_from_text(self, saved):
        data, engine, path = saved
        loaded = load_index(path)
        for gid in loaded.gids():
            assert loaded.graph(gid).label_multiset() == engine.graph(
                gid
            ).label_multiset()


def test_mmap_attach_not_slower_than_rebuild(tmp_path):
    """The zero-copy claim as a gate: attaching the sidecar is never slower
    than rebuilding from text.  No relative slack; a 10 ms absolute floor
    absorbs scheduler noise.  Best of 3 loads each."""
    _, engine = build_corpus(n=20)
    path = tmp_path / "db.segos"
    save_index(engine, path)

    def best_load_s(mmap):
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            loaded = load_index(path, mmap=mmap)
            best = min(best, time.perf_counter() - started)
            assert (loaded.disk_handle() is not None) == mmap
        return best

    rebuild = best_load_s(False)
    attach = best_load_s(True)
    assert attach <= rebuild + 0.010, f"attach {attach:.4f}s > rebuild {rebuild:.4f}s"


class TestStalenessFallbacks:
    def test_modified_text_falls_back_to_rebuild(self, saved, paper_g1):
        data, engine, path = saved
        with open(path, "a", encoding="utf-8") as fh:
            gio.write_graphs(fh, [("intruder", paper_g1)])
        loaded = load_index(path)
        assert loaded.disk_handle() is None  # stale sidecar: rebuilt instead
        assert "intruder" in set(loaded.gids())

    def test_truncated_sidecar_falls_back(self, saved):
        _, engine, path = saved
        sidecar = default_sidecar_path(path)
        blob = open(sidecar, "rb").read()
        open(sidecar, "wb").write(blob[: len(blob) // 2])
        loaded = load_index(path)
        assert loaded.disk_handle() is None
        assert set(loaded.gids()) == set(engine.gids())

    def test_missing_sidecar_falls_back(self, saved, tmp_path):
        import os

        _, engine, path = saved
        os.unlink(default_sidecar_path(path))
        loaded = load_index(path)
        assert loaded.disk_handle() is None
        assert set(loaded.gids()) == set(engine.gids())


class TestMutationPromotes:
    def test_remove_promotes_and_matches_rebuilt(self, saved):
        data, engine, path = saved
        victim = sorted(engine.gids())[0]
        mapped = load_index(path)
        rebuilt = load_index(path, mmap=False)
        mapped.remove(victim)
        rebuilt.remove(victim)
        assert mapped.index.promoted is True
        assert mapped.disk_handle() is None  # handle no longer covers state
        mapped.check_consistency()
        assert answers(mapped, data) == answers(rebuilt, data)

    def test_add_promotes(self, saved, paper_g1):
        _, _, path = saved
        mapped = load_index(path)
        mapped.add("fresh", paper_g1)
        assert mapped.index.promoted is True
        assert "fresh" in set(mapped.gids())
        mapped.check_consistency()

    def test_edge_edit_promotes(self, saved):
        _, _, path = saved
        mapped = load_index(path)
        gid = sorted(mapped.gids())[0]
        u, v = next(iter(mapped.graph(gid).edges()))
        mapped.remove_edge(gid, u, v)
        assert mapped.index.promoted is True
        mapped.check_consistency()


class TestDeltaSegments:
    def test_remove_appends_a_delta(self, saved):
        data, engine, path = saved
        victim = sorted(engine.gids())[0]
        engine.remove(victim)
        save_index(engine, path)
        header = read_header(default_sidecar_path(path))
        assert header.delta_count == 1
        assert header.generation == 1  # one remove = one bump
        reloaded = load_index(path)
        assert reloaded.disk_handle() is not None
        assert victim not in set(reloaded.gids())
        assert answers(reloaded, data) == answers(
            load_index(path, mmap=False), data
        )

    def test_update_bumps_generation_twice(self, saved):
        _, engine, path = saved
        gid = sorted(engine.gids())[0]
        u, v = next(iter(engine.graph(gid).edges()))
        engine.remove_edge(gid, u, v)
        save_index(engine, path)
        header = read_header(default_sidecar_path(path))
        assert header.delta_count == 1
        assert header.generation == 2  # update = remove + re-add of stars
        reloaded = load_index(path)
        assert reloaded.disk_handle() is not None
        assert reloaded.graph(gid).size == engine.graph(gid).size

    def test_base_graph_updated_in_two_segments_replays(self, saved):
        """A base graph relabelled in two delta segments reloads relabelled.

        Replaying the second segment removes the copy the first segment
        re-added; the base copy must stay hidden rather than show through
        and collide with the re-add.
        """
        _, _, path = saved
        first = load_index(path)
        gid = sorted(first.gids())[0]
        first.relabel_vertex(gid, 0, "X1")
        save_index(first, path)
        second = load_index(path)
        assert second.graph(gid).label(0) == "X1"
        second.relabel_vertex(gid, 0, "X2")
        save_index(second, path)
        assert read_header(default_sidecar_path(path)).delta_count == 2
        reloaded = load_index(path)
        assert reloaded.disk_handle() is not None
        assert reloaded.graph(gid).label(0) == "X2"
        assert sorted(reloaded.gids()) == sorted(second.gids())
        rebuilt = load_index(path, mmap=False)
        assert rebuilt.graph(gid).label(0) == "X2"

    def test_compact_zero_always_rewrites(self, tmp_path):
        data, engine = build_corpus(delta_compact=0.0)
        path = tmp_path / "db.segos"
        save_index(engine, path)
        engine.remove(sorted(engine.gids())[0])
        save_index(engine, path)
        header = read_header(default_sidecar_path(path))
        assert header.delta_count == 0
        assert header.generation == 0  # fresh base, no replay tail

    def test_accumulated_deltas_compact_past_threshold(self, tmp_path):
        data, engine = build_corpus(n=12, delta_compact=0.25)
        path = tmp_path / "db.segos"
        save_index(engine, path)
        gids = sorted(engine.gids())
        engine.remove(gids[0])
        save_index(engine, path)
        assert read_header(default_sidecar_path(path)).delta_count == 1
        for gid in gids[1:5]:
            engine.remove(gid)
        save_index(engine, path)  # 5 net ops > 0.25 * 12 base graphs
        header = read_header(default_sidecar_path(path))
        assert header.delta_count == 0
        assert header.generation == 0
        reloaded = load_index(path)
        assert reloaded.disk_handle() is not None
        assert set(reloaded.gids()) == set(engine.gids())

    def test_noop_save_leaves_files_untouched(self, saved):
        import os

        _, engine, path = saved
        sidecar = default_sidecar_path(path)
        before = (os.stat(path).st_mtime_ns, open(sidecar, "rb").read())
        save_index(engine, path)
        after = (os.stat(path).st_mtime_ns, open(sidecar, "rb").read())
        assert before == after

    def test_netted_out_save_keeps_the_handle(self, saved, paper_g1):
        """An add undone by a remove saves nothing, yet the engine still
        equals its files: the handle must stay current for the pools."""
        import os

        _, engine, path = saved
        sidecar = default_sidecar_path(path)
        before = (os.stat(path).st_mtime_ns, open(sidecar, "rb").read())
        engine.add("transient", paper_g1)
        engine.remove("transient")
        assert engine.disk_handle() is None
        save_index(engine, path)
        assert (os.stat(path).st_mtime_ns, open(sidecar, "rb").read()) == before
        handle = engine.disk_handle()
        assert handle is not None
        assert handle.local_generation == engine.index.generation

    def test_external_rewrite_forces_full_base(self, saved, paper_g1):
        """A second writer invalidates the first engine's delta baseline; the
        next save must fall back to a full rewrite, not corrupt the chain."""
        data, engine, path = saved
        other = load_index(path, mmap=False)
        other.add("other", paper_g1)
        save_index(other, path)
        engine.remove(sorted(engine.gids())[0])
        save_index(engine, path)  # stale baseline: full rewrite
        header = read_header(default_sidecar_path(path))
        assert header.delta_count == 0
        reloaded = load_index(path)
        assert set(reloaded.gids()) == set(engine.gids())

    def test_non_string_gids_save_without_delta_tracking(
        self, tmp_path, paper_g1, paper_g2
    ):
        """Text round-trips stringify gids, so a non-string-gid engine cannot
        claim the saved file as its own baseline — but the file itself is a
        perfectly good (stringified) mmap target for the next load."""
        engine = SegosIndex()
        engine.add(1, paper_g1)
        engine.add(2, paper_g2)
        path = tmp_path / "ints.segos"
        save_index(engine, path)
        assert engine.disk_handle() is None
        loaded = load_index(path)
        assert loaded.disk_handle() is not None
        assert set(loaded.gids()) == {"1", "2"}


class TestWorkerTransports:
    def test_batch_disk_transport_matches_serial(self, tmp_path):
        # No ambient fault plan: this run must be clean.
        data, engine = build_corpus(fault_plan="")
        save_index(engine, tmp_path / "db.segos")
        engine = load_index(tmp_path / "db.segos")
        assert engine.disk_handle() is not None
        queries = sample_queries(data, 4, seed=13)
        results = engine.batch_range_query(queries, tau=2, workers=2)
        assert [e for r in results for e in r.stats.degradations] == []
        serial = engine._serial_batch_range_query(queries, 2)
        assert [sorted(r.candidates) for r in results] == [
            sorted(r.candidates) for r in serial
        ]

    def test_verify_disk_transport_matches_serial(self, saved):
        data, _, path = saved
        engine = load_index(path)
        handle = engine.disk_handle()
        assert handle is not None
        query = sample_queries(data, 1, seed=17)[0]
        result = engine.range_query(query, tau=3)
        serial = verify_candidates(
            dict((g, engine.graph(g)) for g in engine.gids()),
            query,
            list(result.candidates),
            3,
            workers=1,
        )
        pooled = verify_candidates(
            dict((g, engine.graph(g)) for g in engine.gids()),
            query,
            list(result.candidates),
            3,
            workers=2,
            fault_plan="",  # no ambient fault plan: this run must be clean
            disk_handle=handle,
        )
        assert pooled.degradations == []
        assert pooled.matches == serial.matches

    def test_stale_handle_degrades_to_serial_same_answers(self, saved, paper_g1):
        """A handle invalidated on disk after load must degrade loudly —
        recorded degradation events — while still answering correctly."""
        data, _, path = saved
        engine = load_index(path)
        assert engine.disk_handle() is not None
        other = load_index(path, mmap=False)
        other.add("other", paper_g1)
        save_index(other, path)  # rewrites text + sidecar behind engine's back
        queries = sample_queries(data, 2, seed=19)
        results = engine.batch_range_query(queries, tau=2, workers=2)
        serial = engine._serial_batch_range_query(queries, 2)
        assert [sorted(r.candidates) for r in results] == [
            sorted(r.candidates) for r in serial
        ]
        assert results[0].stats.degradations  # loud, never silent


class TestLazyGraphStore:
    def test_scan_graph_ranges(self, tmp_path, paper_g1, paper_g2):
        path = tmp_path / "two.txt"
        gio.save(path, [("g1", paper_g1), ("g2", paper_g2)])
        blob = path.read_bytes()
        ranges = scan_graph_ranges(blob)
        assert list(ranges) == ["g1", "g2"]
        for gid, (lo, hi) in ranges.items():
            pairs = gio.loads(blob[lo:hi].decode("utf-8"))
            assert [g for g, _ in pairs] == [gid]

    def test_mapping_semantics(self, saved):
        data, engine, path = saved
        store = LazyGraphStore(str(path))
        assert len(store) == len(engine)
        assert set(store) == set(engine.gids())
        gid = sorted(engine.gids())[0]
        assert gid in store  # membership must not parse
        assert store[gid].label_multiset() == engine.graph(gid).label_multiset()
        store["extra"] = Graph(["z"])
        assert len(store) == len(engine) + 1
        del store[gid]
        assert gid not in store
        with pytest.raises(KeyError):
            store[gid]
        with pytest.raises(KeyError):
            del store["never-there"]

    def test_len_follows_mutations(self, saved):
        _, _, path = saved
        store = LazyGraphStore(str(path))
        mirror = set(store)
        pool = sorted(mirror) + ["x1", "x2", "x3"]
        rng = random.Random(4)
        for _ in range(200):
            gid = rng.choice(pool)
            if gid in mirror and rng.random() < 0.5:
                del store[gid]
                mirror.discard(gid)
            else:
                store[gid] = Graph(["z"])
                mirror.add(gid)
            assert len(store) == len(mirror)
            assert set(store) == mirror

    def test_sha_mismatch_raises_stale(self, saved):
        _, _, path = saved
        with pytest.raises(StaleSidecarError):
            LazyGraphStore(str(path), expected_sha=b"\x00" * 32)


class TestStaleSidecarDetails:
    def test_message_carries_structured_details(self):
        err = StaleSidecarError(
            "worker attached a different state",
            path="/tmp/db.segosx",
            expected_generation=4,
            found_generation=2,
            expected_sha=b"\xab" * 32,
            found_sha="deadbeef" * 8,
        )
        text = str(err)
        assert "sidecar='/tmp/db.segosx'" in text
        assert "generation expected=4 found=2" in text
        assert "sha expected=abababababab…" in text
        assert "found=deadbeefdead…" in text
        assert err.path == "/tmp/db.segosx"
        assert err.expected_generation == 4
        assert err.found_generation == 2

    def test_plain_message_unchanged_without_details(self):
        assert str(StaleSidecarError("stale")) == "stale"

    def test_lazy_store_sha_mismatch_names_the_file(self, tmp_path):
        path = tmp_path / "corpus.txt"
        gio.save(path, [("g", Graph(["a", "b", "c"], [(0, 1), (1, 2), (2, 0)]))])
        with pytest.raises(StaleSidecarError) as info:
            LazyGraphStore(path, expected_sha=b"\x00" * 32)
        text = str(info.value)
        assert str(path) in text
        assert "sha expected=000000000000…" in text
