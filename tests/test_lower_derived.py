"""The lower level is derived from the star catalog on read.

``LowerLevelIndex`` keeps no postings of its own: the first read after a
star is created or retired derives every label list and the size list
from the catalog's live stars.  Its lists must equal a fresh build's on
every kind of engine (in memory, mapped from a sidecar, promoted by a
mutation, and reopened with a delta to replay), and TA search over them
must still return the exact top-k.  Promotion builds the in-memory index
from whole sidecar columns and must equal a fresh build too.  On the
default scan path nothing derives the lower level at all.
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import SegosIndex
from repro.core.index import LowerEntry, LowerLevelIndex, TwoLevelIndex
from repro.core.persistence import load_index, save_index, sidecar_path_for
from repro.core.pipeline import PipelinedSegos
from repro.core.ta_search import brute_force_top_k, top_k_stars
from repro.graphs.model import Graph
from repro.graphs.star import Star
from repro.perf import columnar, diskcat

LABELS = "abcd"
ENGINE_KINDS = ("memory", "mapped", "promoted", "replayed")


def random_graph(rng: random.Random) -> Graph:
    order = rng.randint(1, 5)
    graph = Graph([rng.choice(LABELS) for _ in range(order)])
    for u in range(order):
        for v in range(u + 1, order):
            if rng.random() < 0.4:
                graph.add_edge(u, v)
    return graph


def mutate(engine: SegosIndex, rng: random.Random, serial: int) -> None:
    """One random update; the rare label ``z`` creates and retires stars."""
    gids = sorted(engine.gids())
    gid = rng.choice(gids)
    vertices = sorted(engine.graph(gid).vertices())
    kind = rng.choice(("add", "remove", "add_edge", "relabel", "add_vertex"))
    if kind == "add":
        engine.add(f"n{serial}", random_graph(rng))
    elif kind == "remove" and len(gids) > 2:
        engine.remove(gid)
    elif kind == "add_edge":
        graph = engine.graph(gid)
        free = [(u, v) for u in vertices for v in vertices if u < v]
        free = [pair for pair in free if not graph.has_edge(*pair)]
        if free:
            engine.add_edge(gid, *rng.choice(free))
    elif kind == "add_vertex":
        engine.add_vertex(gid, max(vertices) + 1, rng.choice(LABELS + "z"))
    else:
        engine.relabel_vertex(gid, rng.choice(vertices), rng.choice(LABELS + "z"))


def start_engine(kind: str, rng: random.Random, workdir: Path) -> SegosIndex:
    engine = SegosIndex(
        {f"g{i}": random_graph(rng) for i in range(8)}, delta_compact=100.0
    )
    if kind == "memory":
        return engine
    path = workdir / "db.segos"
    save_index(engine, path)
    if kind == "replayed":
        engine = load_index(path)
        for serial in range(3):
            mutate(engine, rng, 1000 + serial)
        save_index(engine, path)
        assert engine.disk_handle().delta_count > 0
    engine = load_index(path)
    assert engine.index.promoted == (kind == "replayed")
    return engine


def keyed(index, entry: LowerEntry):
    return (index.catalog.star(entry.sid).key, entry.freq, entry.leaf_size)


def assert_lower_fresh(engine: SegosIndex) -> None:
    """The lower level equals a fresh build's, matched by ``Star.key``.

    Sids differ between the two engines, so each list is compared as its
    (leaf size, frequency) sequence plus its set of keyed entries; its own
    order must still follow the Figure-6 key.
    """
    index = engine.index
    fresh = SegosIndex({gid: engine.graph(gid) for gid in engine.gids()}).index
    assert sorted(index.lower.labels()) == sorted(fresh.lower.labels())
    for label in fresh.lower.labels():
        got, want = index.lower.label_list(label), fresh.lower.label_list(label)
        assert [(e.leaf_size, e.freq) for e in got] == [
            (e.leaf_size, e.freq) for e in want
        ]
        assert got == sorted(got, key=lambda e: (e.leaf_size, -e.freq, e.sid))
        assert {keyed(index, e) for e in got} == {keyed(fresh, e) for e in want}
    for boundary in (0, 1, 2, 99):
        for got, want in zip(
            index.lower.split_size_list(boundary), fresh.lower.split_size_list(boundary)
        ):
            assert [e.leaf_size for e in got] == [e.leaf_size for e in want]
            assert {keyed(index, e) for e in got} == {keyed(fresh, e) for e in want}
    assert index.lower.stats() == fresh.lower.stats()
    assert index.size_estimate() == fresh.size_estimate()


def assert_ta_exact(engine: SegosIndex, rng: random.Random) -> None:
    index = engine.index
    for _ in range(3):
        leaves = [rng.choice(LABELS + "z") for _ in range(rng.randint(0, 4))]
        query = Star(rng.choice(LABELS), leaves)
        for k in (1, 3, len(index.catalog) + 1):
            result = top_k_stars(index, query, k, backend="ta")
            assert result.entries == brute_force_top_k(index, query, k)


@pytest.fixture(params=["numpy", "pure"])
def numpy_branch(request, monkeypatch):
    if request.param == "numpy":
        if not columnar.numpy_available():
            pytest.skip("numpy not installed")
    else:
        monkeypatch.setattr(columnar, "_np", None)
        monkeypatch.setattr(diskcat, "_np", None)
    return request.param


class TestDerivedEqualsBuild:
    @pytest.mark.parametrize("engine_kind", ENGINE_KINDS)
    @settings(
        deadline=None,
        max_examples=15,
        suppress_health_check=[
            HealthCheck.function_scoped_fixture,
            HealthCheck.too_slow,
        ],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        checks=st.lists(st.booleans(), min_size=1, max_size=8),
    )
    def test_after_every_mutation(self, numpy_branch, engine_kind, seed, checks):
        rng = random.Random(seed)
        with tempfile.TemporaryDirectory() as workdir:
            engine = start_engine(engine_kind, rng, Path(workdir))
            # Derive before the first mutation, so the later checks read
            # a view that promotion handed over and mutations dropped.
            assert_lower_fresh(engine)
            assert_ta_exact(engine, rng)
            if engine_kind == "mapped":
                assert not engine.index.promoted
                return
            for serial, check in enumerate(checks):
                mutate(engine, rng, serial)
                if check:
                    assert_lower_fresh(engine)
            assert_lower_fresh(engine)
            assert_ta_exact(engine, rng)


def index_state(index) -> dict:
    """Everything promotion builds, keyed by ``Star.key`` and gid."""
    catalog = index.catalog
    key = {sid: catalog.star(sid).key for sid in catalog.live_sids()}
    return {
        "catalog": {key[sid]: catalog._refcount[sid] for sid in key},
        "upper": {
            key[sid]: [(e.gid, e.freq, e.order) for e in index.upper.postings(sid)]
            for sid in key
        },
        "graphs": {
            gid: {key[sid]: n for sid, n in index.graph_star_counts(gid).items()}
            for gid in index.gids()
        },
        "meta": {gid: index.meta(gid) for gid in index.gids()},
        "max_degree_hist": dict(index._max_degree_hist),
    }


class TestColumnPromotion:
    @settings(
        deadline=None,
        max_examples=15,
        suppress_health_check=[
            HealthCheck.function_scoped_fixture,
            HealthCheck.too_slow,
        ],
    )
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_materialize_equals_a_fresh_build(self, numpy_branch, seed):
        rng = random.Random(seed)
        graphs = {f"g{i}": random_graph(rng) for i in range(rng.randint(1, 10))}
        with tempfile.TemporaryDirectory() as workdir:
            path = Path(workdir) / "db.segos"
            save_index(SegosIndex(graphs), path)
            engine = load_index(path)
            promoted = engine.index._materialize()
            assert isinstance(promoted, TwoLevelIndex) and engine.index.promoted
            fresh = SegosIndex({gid: engine.graph(gid) for gid in engine.gids()})
            assert index_state(promoted) == index_state(fresh.index)
            assert promoted.lower is engine.index.lower
            promoted.check_consistency()


def legacy_columns(pairs):
    """The current sections plus the two retired lower-level permutations,
    computed as the old writers did."""
    columns = diskcat._columnarize_pure(pairs)
    lsize = [int(x) for x in diskcat._int64_view(columns["cat_lsize"])]
    poff = [int(x) for x in diskcat._int64_view(columns["cat_poff"])]
    prows = [int(x) for x in diskcat._int64_view(columns["cat_prows"])]
    pfreqs = [int(x) for x in diskcat._int64_view(columns["cat_pfreqs"])]
    low_perm = []
    for lo, hi in zip(poff, poff[1:]):
        low_perm.extend(
            sorted(range(lo, hi), key=lambda i: (lsize[prows[i]], -pfreqs[i], prows[i]))
        )
    columns["low_perm"] = diskcat._pack_int64(low_perm)
    columns["size_perm"] = diskcat._pack_int64(
        sorted(range(len(lsize)), key=lambda row: (lsize[row], row))
    )
    return columns


class TestLegacySidecar:
    def test_sidecar_with_retired_sections_attaches_and_answers_equal(
        self, monkeypatch, tmp_path
    ):
        rng = random.Random(11)
        graphs = {f"g{i}": random_graph(rng) for i in range(12)}
        engine = SegosIndex(graphs)
        path = tmp_path / "db.segos"
        with monkeypatch.context() as patch:
            patch.setattr(
                diskcat, "SECTION_NAMES", diskcat.SECTION_NAMES + ("low_perm", "size_perm")
            )
            patch.setattr(diskcat, "_columnarize", legacy_columns)
            save_index(engine, path)
        with diskcat.DiskCatalog(sidecar_path_for(path, engine.config)) as disk:
            assert disk.has_section("low_perm") and disk.has_section("size_perm")
            assert disk.verify_checksums() == []

        loaded = load_index(path)
        assert loaded.disk_handle() is not None and not loaded.index.promoted
        for gid in ("g0", "g5"):
            query = engine.graph(gid)
            for tau in (0, 2):
                got = loaded.range_query(query, tau=tau, verify="exact")
                want = engine.range_query(query, tau=tau, verify="exact")
                assert got.matches == want.matches
                assert sorted(map(str, got.candidates)) == sorted(
                    map(str, want.candidates)
                )
        star = Star("a", "bcc")
        for k in (1, 4):
            got = top_k_stars(loaded.index, star, k, backend="ta")
            want = top_k_stars(engine.index, star, k, backend="ta")
            assert [sed for _, sed in got.entries] == [sed for _, sed in want.entries]
            assert got.entries == brute_force_top_k(loaded.index, star, k)


@pytest.mark.skipif(not columnar.numpy_available(), reason="numpy not installed")
class TestScanPathDerivesNothing:
    def test_default_path_builds_no_lower_level(self, monkeypatch, tmp_path):
        """Build, mutations, a delta-replaying reopen, range queries and a
        save never derive the lower level or build a ``LowerEntry``."""
        derived, entries = [], []
        derive, init = LowerLevelIndex._derived, LowerEntry.__init__

        def counting_derive(self):
            derived.append(self)
            return derive(self)

        def counting_init(self, *args, **kwargs):
            entries.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(LowerLevelIndex, "_derived", counting_derive)
        monkeypatch.setattr(LowerEntry, "__init__", counting_init)
        rng = random.Random(4)
        engine = SegosIndex(
            {f"g{i}": random_graph(rng) for i in range(12)}, delta_compact=100.0
        )
        path = tmp_path / "db.segos"
        save_index(engine, path)
        engine = load_index(path)
        for serial in range(6):
            mutate(engine, rng, serial)
        save_index(engine, path)
        assert engine.disk_handle().delta_count > 0
        engine = load_index(path)
        assert engine.index.promoted  # the reopen replayed the delta
        query, other = engine.graph("g1"), engine.graph("g2")
        for tau in (0, 2):
            engine.range_query(query, tau=tau, verify="exact")
        engine.batch_range_query([query, other], tau=2, verify="exact")
        PipelinedSegos(engine).range_query(query, tau=2, verify="exact")
        engine.top_k_sub_units(Star("a", "bc"), 3)
        for serial in range(6, 10):
            mutate(engine, rng, serial)
        engine.range_query(other, tau=1)
        save_index(engine, path)
        assert derived == [] and entries == []

        # The probes are live: a TA search derives the view and its entries.
        top_k_stars(engine.index, Star("a", "bc"), 3, backend="ta")
        assert derived and entries
