"""Tests for the columnar star-catalog mirror and the top-k backend rule."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.index import GraphMeta, TwoLevelIndex
from repro.core.sqlite_index import SqliteTwoLevelIndex
from repro.core.engine import SegosIndex
from repro.config import ENV_TOPK_BACKEND
from repro.core.ta_search import brute_force_top_k, top_k_stars
from repro.graphs.generators import corpus
from repro.graphs.star import Star, decompose, star_edit_distance
from repro.perf.columnar import ColumnarCatalog, columnar_snapshot

LABELS = "abcd"

labels_st = st.sampled_from(LABELS)
star_st = st.builds(Star, labels_st, st.lists(labels_st, max_size=6))


def build_index(n_graphs=12, seed=5, backend="memory"):
    rng = random.Random(seed)
    graphs = corpus(rng, n_graphs, kind="chemical", mean_order=8, stddev=2)
    index = SqliteTwoLevelIndex() if backend == "sqlite" else TwoLevelIndex()
    for i, graph in enumerate(graphs):
        index.add_graph(f"g{i}", graph, decompose(graph))
    return index, graphs


@pytest.fixture(scope="module")
def catalog_setup():
    return build_index()


class TestSnapshotBuild:
    def test_rows_are_live_sids_sorted(self, catalog_setup):
        index, _ = catalog_setup
        snapshot = ColumnarCatalog.build(index)
        assert list(snapshot.sids) == sorted(index.catalog.live_sids())
        assert snapshot.n_rows == len(index.catalog)

    def test_label_ids_follow_string_order(self, catalog_setup):
        index, _ = catalog_setup
        snapshot = ColumnarCatalog.build(index)
        labels = sorted(snapshot.label_to_id)
        assert [snapshot.label_to_id[label] for label in labels] == list(
            range(len(labels))
        )

    def test_leaf_csr_mirrors_star_leaves(self, catalog_setup):
        index, _ = catalog_setup
        snapshot = ColumnarCatalog.build(index)
        id_to_label = {i: label for label, i in snapshot.label_to_id.items()}
        for row, sid in enumerate(snapshot.sids):
            star = index.catalog.star(int(sid))
            lo, hi = int(snapshot.leaf_offsets[row]), int(snapshot.leaf_offsets[row + 1])
            assert [id_to_label[int(i)] for i in snapshot.leaf_ids[lo:hi]] == list(
                star.leaves
            )
            assert int(snapshot.leaf_sizes[row]) == star.leaf_size
            assert id_to_label[int(snapshot.root_ids[row])] == star.root

    def test_sqlite_backend_columnarises_identically(self):
        """Same corpus ⇒ same columnar content (sid numbering may differ)."""

        def rows(snapshot):
            out = []
            for row in range(snapshot.n_rows):
                lo = int(snapshot.leaf_offsets[row])
                hi = int(snapshot.leaf_offsets[row + 1])
                out.append(
                    (
                        int(snapshot.root_ids[row]),
                        tuple(int(i) for i in snapshot.leaf_ids[lo:hi]),
                    )
                )
            return sorted(out)

        mem = ColumnarCatalog.build(build_index(backend="memory")[0])
        sql = ColumnarCatalog.build(build_index(backend="sqlite")[0])
        assert mem.label_to_id == sql.label_to_id
        assert rows(mem) == rows(sql)


class TestSedAgainstAll:
    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(star_st)
    def test_matches_scalar_sed(self, catalog_setup, query):
        """The vectorized kernel equals the scalar Lemma 1, row by row."""
        index, _ = catalog_setup
        snapshot = columnar_snapshot(index)
        sed = snapshot.sed_against_all(query)
        for row, sid in enumerate(snapshot.sids):
            assert int(sed[row]) == star_edit_distance(
                query, index.catalog.star(int(sid))
            )


class TestGenerationCoherence:
    def test_snapshot_cached_until_mutation(self):
        index, graphs = build_index()
        first = columnar_snapshot(index)
        assert columnar_snapshot(index) is first
        index.remove_graph("g0")
        second = columnar_snapshot(index)
        assert second is not first
        assert second.generation == index.generation
        assert list(second.sids) == sorted(index.catalog.live_sids())

    def test_all_mutators_bump_generation(self):
        index, graphs = build_index(n_graphs=3)
        start = index.generation
        extra = corpus(random.Random(99), 1, kind="chemical", mean_order=6)[0]
        index.add_graph("extra", extra, decompose(extra))
        assert index.generation == start + 1
        stars = decompose(extra)
        meta = GraphMeta(order=extra.order, max_degree=max(map(extra.degree, range(extra.order))))
        index.apply_star_delta("extra", stars, stars, meta)
        assert index.generation == start + 2
        index.remove_graph("extra")
        assert index.generation == start + 3

    def test_sqlite_backend_invalidates_on_mutation(self):
        """Generation coherence is backend-independent: the sqlite index must
        invalidate its cached mirror exactly like the in-memory one."""
        index, _ = build_index(backend="sqlite")
        first = columnar_snapshot(index)
        assert columnar_snapshot(index) is first
        index.remove_graph("g0")
        second = columnar_snapshot(index)
        assert second is not first
        assert second.generation == index.generation
        assert list(map(int, second.sids)) == sorted(index.catalog.live_sids())

    def test_concurrent_readers_get_a_coherent_snapshot(self):
        """Racing columnar_snapshot calls between mutations may build the
        mirror twice, but every snapshot handed out must be internally
        consistent and match the generation it claims.  (Memory backend
        only: sqlite connections are thread-affine by construction.)"""
        import threading

        index, _ = build_index(backend="memory")
        errors = []

        def reader(barrier):
            try:
                for _ in range(8):
                    barrier.wait()  # released together: rebuilds race
                    snapshot = columnar_snapshot(index)
                    assert snapshot.generation == index.generation
                    assert snapshot.n_rows == len(snapshot.sids)
                    assert len(snapshot.leaf_offsets) == snapshot.n_rows + 1
                    assert list(map(int, snapshot.sids)) == sorted(
                        index.catalog.live_sids()
                    )
                    barrier.wait()  # all readers done before the next mutation
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
                barrier.abort()  # fail fast rather than strand the others

        barrier = threading.Barrier(4)
        threads = [
            threading.Thread(target=reader, args=(barrier,)) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        try:
            for victim in [f"g{i}" for i in range(8)]:
                index.remove_graph(victim)  # invalidates the cached mirror
                barrier.wait(timeout=30)
                barrier.wait(timeout=30)
        except threading.BrokenBarrierError:  # pragma: no cover - failure path
            pass
        for thread in threads:
            thread.join()
        assert errors == []
        final = columnar_snapshot(index)
        assert final.generation == index.generation
        assert list(map(int, final.sids)) == sorted(index.catalog.live_sids())

    def test_scan_results_track_mutations(self):
        index, graphs = build_index()
        query = decompose(graphs[0])[0]
        before = top_k_stars(index, query, 4, backend="scan")
        index.remove_graph("g0")
        after = top_k_stars(index, query, 4, backend="scan")
        live = set(index.catalog.live_sids())
        assert all(sid in live for sid, _ in after.entries)
        assert [sed for _, sed in after.entries] == [
            sed for _, sed in brute_force_top_k(index, query, 4)
        ]
        assert before.entries != after.entries or before.scan_width != after.scan_width


class TestBackendAgreement:
    @pytest.mark.parametrize("k", [1, 3, 10, 500])
    @pytest.mark.parametrize("seed", range(3))
    def test_identical_entries_and_floors(self, k, seed):
        """Acceptance criterion: both backends are byte-identical."""
        index, graphs = build_index(seed=seed)
        query_graph = corpus(
            random.Random(seed + 100), 1, kind="chemical", mean_order=8, stddev=2
        )[0]
        for query in decompose(query_graph):
            ta = top_k_stars(index, query, k, backend="ta")
            scan = top_k_stars(index, query, k, backend="scan")
            assert ta.entries == scan.entries
            assert ta.kth_sed == scan.kth_sed
            assert ta.backend == "ta" and scan.backend == "scan"
            assert scan.accesses == 0 and scan.scan_width == len(index.catalog)

    def test_unknown_label_and_leafless_queries(self, catalog_setup):
        index, _ = catalog_setup
        for query in (Star("z", "yy"), Star("a")):
            ta = top_k_stars(index, query, 3, backend="ta")
            scan = top_k_stars(index, query, 3, backend="scan")
            assert ta.entries == scan.entries
            assert ta.kth_sed == scan.kth_sed


class TestPlanner:
    """The default rule of ``top_k_stars(backend=None)``: ``scan``, or TA
    on an index without a generation counter (no columnar mirror).  Every
    case answers like ``brute_force_top_k``."""

    QUERY = Star("a", "bbcc")

    def default_backend(self, target, index):
        result = top_k_stars(target, self.QUERY, 3)
        assert result.entries == brute_force_top_k(index, self.QUERY, 3)
        return result.backend

    def test_k_at_catalog_size_prefers_scan(self, catalog_setup):
        index, _ = catalog_setup
        assert self.default_backend(index, index) == "scan"
        result = top_k_stars(index, self.QUERY, len(index.catalog))
        assert result.backend == "scan"
        assert result.entries == brute_force_top_k(
            index, self.QUERY, len(index.catalog)
        )

    def test_no_generation_counter_means_ta(self, catalog_setup):
        index, _ = catalog_setup

        class Shim:
            catalog = index.catalog
            lower = index.lower

        assert self.default_backend(Shim(), index) == "ta"


class TestBackendResolution:
    def test_explicit_unknown_raises(self, catalog_setup):
        index, _ = catalog_setup
        with pytest.raises(ValueError):
            top_k_stars(index, Star("a"), 1, backend="simd")

    def test_env_selects_backend(self, monkeypatch):
        """The variable is read once, by EngineConfig, never per search."""
        _, graphs = build_index()
        query = Star("a", "bbcc")
        for name in ("scan", "ta"):
            monkeypatch.setenv(ENV_TOPK_BACKEND, name)
            engine = SegosIndex(dict(enumerate(graphs)))
            assert engine.top_k_sub_units(query, 2).backend == name
            default = top_k_stars(engine.index, query, 2).backend
            assert default == "scan"

    def test_explicit_argument_beats_env(self, monkeypatch):
        _, graphs = build_index()
        monkeypatch.setenv(ENV_TOPK_BACKEND, "scan")
        engine = SegosIndex(dict(enumerate(graphs)), topk_backend="ta")
        assert engine.top_k_sub_units(Star("a", "bbcc"), 2).backend == "ta"
