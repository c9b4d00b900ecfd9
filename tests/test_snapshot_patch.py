"""Patched snapshots: the embed tier's embeddings and the columnar catalog.

After a batch of §IV-C updates, ``SegosIndex.embeddings`` and
``columnar_snapshot`` derive the new snapshot from the cached one instead of
rebuilding it.  A patched snapshot must equal a fresh build column for
column, on every kind of engine: in memory, mapped from a sidecar (and
promoted by the first mutation), and reopened with a delta to replay.
"""

from __future__ import annotations

import random
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.engine import SegosIndex
from repro.core.index import StarCatalog
from repro.core.persistence import load_index, save_index
from repro.errors import IndexCorruptionError
from repro.graphs.generators import corpus
from repro.graphs.model import Graph
from repro.graphs.star import Star
from repro.perf import diskcat
from repro.perf.columnar import ColumnarCatalog, GraphEmbeddings, columnar_snapshot

LABELS = "abcde"
KINDS = (
    "add",
    "remove",
    "add_edge",
    "remove_edge",
    "add_vertex",
    "remove_vertex",
    "relabel_vertex",
)
EMBEDDING_COLUMNS = ("orders", "edges", "emb_offsets", "emb_lids", "emb_counts")
CATALOG_COLUMNS = (
    "sids",
    "root_ids",
    "leaf_sizes",
    "leaf_offsets",
    "leaf_ids",
    "post_offsets",
    "post_rows",
    "post_freqs",
)


def ints(column):
    return [int(x) for x in column]


def random_graph(rng: random.Random, labels: str = LABELS) -> Graph:
    order = rng.randint(1, 5)
    graph = Graph([rng.choice(labels) for _ in range(order)])
    for u in range(order):
        for v in range(u + 1, order):
            if rng.random() < 0.4:
                graph.add_edge(u, v)
    return graph


def apply_update(
    engine: SegosIndex, rng: random.Random, kind: str, serial: int
) -> None:
    """One update of *kind* on a random graph; skipped where it cannot apply."""
    # A rare label outside the alphabet makes the vocabularies grow; the
    # removals make them shrink again.
    label = rng.choice(LABELS + "z")
    gids = sorted(engine.gids())
    gid = rng.choice(gids)
    graph = engine.graph(gid)
    vertices = sorted(graph.vertices())
    if kind == "add":
        engine.add(f"n{serial}", random_graph(rng, LABELS + "y"))
    elif kind == "remove" and len(gids) > 2:
        engine.remove(gid)
    elif kind == "add_edge":
        free = [
            (u, v)
            for u in vertices
            for v in vertices
            if u < v and not graph.has_edge(u, v)
        ]
        if free:
            engine.add_edge(gid, *rng.choice(free))
    elif kind == "remove_edge" and graph.size:
        engine.remove_edge(gid, *rng.choice(sorted(graph.edges())))
    elif kind == "add_vertex":
        engine.add_vertex(gid, max(vertices) + 1, label)
    elif kind == "remove_vertex" and len(vertices) > 1:
        engine.remove_vertex(gid, rng.choice(vertices))
    elif kind == "relabel_vertex":
        engine.relabel_vertex(gid, rng.choice(vertices), label)


def assert_snapshots_fresh(engine: SegosIndex, rng: random.Random) -> None:
    generation = engine.index.generation
    query = random_graph(rng)
    leaves = [rng.choice(LABELS) for _ in range(rng.randint(0, 4))]
    star = Star(rng.choice(LABELS), leaves)

    got = engine.embeddings()
    want = GraphEmbeddings.build(list(engine._graphs.items()), generation)
    assert got.generation == generation
    assert list(got.gids) == list(want.gids)
    assert got.label_to_id == want.label_to_id
    for name in EMBEDDING_COLUMNS:
        assert ints(getattr(got, name)) == ints(getattr(want, name)), name
    assert ints(got.lower_bounds(query)) == ints(want.lower_bounds(query))

    got = columnar_snapshot(engine.index)
    want = ColumnarCatalog.build(engine.index, generation)
    assert got.generation == generation
    assert (got.n_rows, got.max_sid) == (want.n_rows, want.max_sid)
    assert got.label_to_id == want.label_to_id
    for name in CATALOG_COLUMNS:
        assert ints(getattr(got, name)) == ints(getattr(want, name)), name
    assert ints(got.sed_against_all(star)) == ints(want.sed_against_all(star))
    for k in (1, 3, want.n_rows + 1):
        assert got.top_k(star, k) == want.top_k(star, k)


def start_engine(kind: str, rng: random.Random, workdir: Path) -> SegosIndex:
    graphs = {f"g{i}": random_graph(rng) for i in range(8)}
    engine = SegosIndex(graphs, delta_compact=100.0)
    if kind == "memory":
        return engine
    path = workdir / "db.segos"
    save_index(engine, path)
    engine = load_index(path)
    assert engine.disk_handle() is not None
    if kind == "mapped":
        return engine
    # Changes saved as a delta segment, which the reopen replays.  Any
    # draw may be a no-op, so draw on until at least one update applied.
    generation, serial = engine.index.generation, 0
    while serial < 4 or engine.index.generation == generation:
        apply_update(engine, rng, rng.choice(KINDS), 1000 + serial)
        serial += 1
    save_index(engine, path)
    assert engine.disk_handle().delta_count > 0
    engine = load_index(path)
    assert engine.disk_handle().delta_ops > 0
    return engine


class TestPatchedEqualsBuild:
    @pytest.mark.parametrize("engine_kind", ["memory", "mapped", "replayed"])
    @settings(
        deadline=None,
        max_examples=25,
        suppress_health_check=[
            HealthCheck.function_scoped_fixture,
            HealthCheck.too_slow,
        ],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        steps=st.lists(
            st.tuples(st.sampled_from(KINDS), st.booleans()), min_size=1, max_size=10
        ),
    )
    # Four no-op draws in a row once left the replayed engine no delta.
    @example(seed=31139, steps=[("add", False)])
    def test_every_update_kind(self, engine_kind, seed, steps):
        rng = random.Random(seed)
        with tempfile.TemporaryDirectory() as workdir:
            engine = start_engine(engine_kind, rng, Path(workdir))
            assert_snapshots_fresh(engine, rng)
            for serial, (kind, check) in enumerate(steps):
                apply_update(engine, rng, kind, serial)
                # Unchecked steps pile up, so one patch spans several updates.
                if check:
                    assert_snapshots_fresh(engine, rng)
            assert_snapshots_fresh(engine, rng)

    def test_sqlite_backend(self):
        rng = random.Random(3)
        graphs = {f"g{i}": random_graph(rng) for i in range(8)}
        engine = SegosIndex(graphs, backend="sqlite")
        assert_snapshots_fresh(engine, rng)
        for serial in range(30):
            apply_update(engine, rng, KINDS[serial % len(KINDS)], serial)
            if serial % 3 == 0:
                assert_snapshots_fresh(engine, rng)
        assert_snapshots_fresh(engine, rng)

    def test_failed_mutation_still_re_embeds_its_graph(self, monkeypatch):
        rng = random.Random(5)
        engine = SegosIndex({f"g{i}": random_graph(rng) for i in range(6)})
        engine.embeddings()

        def corrupt(*args, **kwargs):
            # As apply_star_delta does: the counter moves, then the check fails.
            engine.index.generation += 1
            raise IndexCorruptionError("injected")

        monkeypatch.setattr(engine.index, "apply_star_delta", corrupt)
        with pytest.raises(IndexCorruptionError):
            engine.relabel_vertex("g0", 0, "z")
        monkeypatch.undo()
        assert_snapshots_fresh(engine, rng)


class TestChangeRecordBound:
    def test_never_queried_engine_keeps_a_bounded_record(self):
        """A write-only engine adding fresh gids and removing old ones must
        not remember every gid it ever saw."""
        rng = random.Random(6)
        engine = SegosIndex({f"g{i}": random_graph(rng) for i in range(10)})
        engine.embeddings()
        for serial in range(200):
            engine.add(f"n{serial}", random_graph(rng))
            engine.remove(sorted(engine.gids())[0])
            assert len(engine._graph_changes.ids) <= len(engine)
        assert_snapshots_fresh(engine, rng)


class TestRacingReaders:
    def test_readers_racing_between_updates_agree_with_a_build(self):
        """Readers that race on one patch must each return the new state:
        a reader that paired the old snapshot with a record already
        restarted would lose the update."""
        rng = random.Random(8)
        engine = SegosIndex({f"g{i}": random_graph(rng) for i in range(12)})
        barrier = threading.Barrier(5)
        errors = []

        def reader():
            try:
                for _ in range(10):
                    barrier.wait(timeout=30)
                    emb = engine.embeddings()
                    snap = columnar_snapshot(engine.index)
                    assert emb.generation == snap.generation == engine.index.generation
                    assert list(emb.gids) == list(engine.gids())
                    assert ints(snap.sids) == sorted(engine.index.catalog.live_sids())
                    barrier.wait(timeout=30)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
                barrier.abort()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=reader) for _ in range(4)]
        try:
            for thread in threads:
                thread.start()
            for serial in range(10):
                apply_update(engine, rng, KINDS[serial % len(KINDS)], serial)
                barrier.wait(timeout=30)
                barrier.wait(timeout=30)
        except threading.BrokenBarrierError:  # pragma: no cover - failure path
            pass
        finally:
            sys.setswitchinterval(interval)
            for thread in threads:
                thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert_snapshots_fresh(engine, rng)


class Counting:
    """Wrap ``owner.name`` so each call is counted while ``active``."""

    def __init__(self, monkeypatch, owner, name):
        self.calls = 0
        self.active = False
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            if self.active:
                self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    def during(self, fn):
        self.calls, self.active = 0, True
        try:
            return fn()
        finally:
            self.active = False


def pdg_engine(n: int = 40) -> SegosIndex:
    graphs = corpus(random.Random(11), n, kind="pdg", mean_order=8, stddev=2)
    return SegosIndex({f"g{i}": g for i, g in enumerate(graphs)}, delta_compact=100.0)


def churn(engine: SegosIndex, rng: random.Random, count: int, serial: int = 0) -> set:
    """*count* updates on distinct graphs; returns the gids still present."""
    touched = set()
    for step in range(count):
        gid = rng.choice(sorted(set(engine.gids()) - touched))
        kind = ("relabel_vertex", "add_vertex", "remove", "add")[step % 4]
        if kind == "relabel_vertex":
            engine.relabel_vertex(gid, min(engine.graph(gid).vertices()), "zz")
        elif kind == "add_vertex":
            engine.add_vertex(gid, max(engine.graph(gid).vertices()) + 1, "a")
        elif kind == "remove":
            engine.remove(gid)
            continue
        else:
            gid = f"new-{serial}-{step}"
            engine.add(gid, random_graph(rng))
        touched.add(gid)
    return touched


class TestPatchWork:
    def test_embeds_only_the_changed_graphs(self, monkeypatch):
        multisets = Counting(monkeypatch, Graph, "label_multiset")
        engine = pdg_engine()
        multisets.during(engine.embeddings)
        assert multisets.calls == len(engine)
        changed = churn(engine, random.Random(1), 8)
        patched = multisets.during(engine.embeddings)
        assert multisets.calls == len(changed) < len(engine)
        assert patched.n_graphs == len(engine)

    def test_columnarises_only_the_changed_stars(self, monkeypatch):
        engine = pdg_engine()
        columnar_snapshot(engine.index)
        churn(engine, random.Random(2), 8)
        changes = len(engine.index.star_changes.ids)
        stars = Counting(monkeypatch, StarCatalog, "star")
        stars.during(lambda: columnar_snapshot(engine.index))
        assert 0 < stars.calls <= changes < len(engine.index.catalog)

    def test_replayed_reopen_parses_no_base_graph(self, monkeypatch, tmp_path):
        path = tmp_path / "db.segos"
        engine = pdg_engine()
        save_index(engine, path)
        engine = load_index(path)
        churn(engine, random.Random(3), 6, serial=1)
        save_index(engine, path)
        engine = load_index(path)
        assert engine.disk_handle().delta_ops > 0
        changed = churn(engine, random.Random(4), 6, serial=2)
        replayed = set(engine._graph_changes.ids) - changed
        parses = Counting(monkeypatch, diskcat.LazyGraphStore, "parse_from_text")
        multisets = Counting(monkeypatch, Graph, "label_multiset")
        multisets.during(lambda: parses.during(engine.embeddings))
        assert parses.calls == 0
        assert multisets.calls <= len(changed | replayed) < len(engine)
        assert_snapshots_fresh(engine, random.Random(5))

    def test_read_only_engine_keeps_its_snapshots(self, tmp_path):
        path = tmp_path / "db.segos"
        save_index(pdg_engine(), path)
        engine = load_index(path)
        embeddings = engine.embeddings()
        catalog = columnar_snapshot(engine.index)
        queries = corpus(random.Random(6), 5, kind="pdg", mean_order=8, stddev=2)
        for query in queries:
            engine.range_query(query, tau=2, verify="exact")
        assert engine.embeddings() is embeddings
        assert columnar_snapshot(engine.index) is catalog
        assert not engine.index.promoted
