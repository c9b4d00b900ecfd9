"""The ``.segosx`` writer: the numpy section kernels against the pure loops.

``diskcat._columnarize`` builds every sidecar section with numpy when it
imports and with the original per-section loops otherwise.  Both writers
must emit the same bytes, section for section, or a sidecar written on
one host would number stars or order postings differently from a
rebuild on another.  The pinned corpus and the compaction test also run
without numpy, where they check the pure writer by itself.
"""

from __future__ import annotations

import random
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import SegosIndex
from repro.core.persistence import load_index, save_index, sidecar_path_for
from repro.graphs.model import Graph
from repro.perf import diskcat

# Multi-character and non-ASCII labels: the string table is UTF-8 and
# labels sort by code point.
#: ``"b,c"`` and ``"a|b"`` hold the separators of ``Star.signature``: stars
#: over them print like other stars, and the writers must still tell them
#: apart.
LABELS = ("a", "b", "c", "Cl", "Na", "é", "ß", "鉄", "αβ", "b,c", "a|b")

needs_numpy = pytest.mark.skipif(diskcat._np is None, reason="numpy not installed")


def writers():
    """The writers this host can run: the pure loops, plus numpy if present."""
    found = [diskcat._columnarize_pure]
    if diskcat._np is not None:
        found.append(diskcat._columnarize_numpy)
    return found


def ints(raw: bytes):
    return list(struct.unpack(f"<{len(raw) // 8}q", raw))


def assert_same_sections(got, want) -> None:
    assert set(got) == set(want)
    for name in want:
        assert got[name] == want[name], name


@st.composite
def graphs(draw) -> Graph:
    """A graph with non-contiguous vertex ids inserted in drawn order."""
    ids = draw(st.lists(st.integers(0, 40), unique=True, max_size=6))
    graph = Graph({vid: draw(st.sampled_from(LABELS)) for vid in ids})
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1 :]]
    for u, v in draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else ():
        graph.add_edge(u, v)
    return graph


# Gids are str()-ed by the writer: ints and strings mix, 1 and "1" tie on
# the (order, gid string) key of the upper postings, and "10" < "9".
gid_lists = st.lists(
    st.one_of(st.integers(0, 12), st.text(alphabet="ab19é", min_size=1, max_size=3)),
    unique=True,
    max_size=10,
)


class TestNumpyWriterMatchesPure:
    @needs_numpy
    @settings(deadline=None, max_examples=150)
    @given(gids=gid_lists, data=st.data())
    def test_every_section_byte_identical(self, gids, data):
        pairs = [(gid, data.draw(graphs())) for gid in gids]
        assert_same_sections(
            diskcat._columnarize_numpy(pairs), diskcat._columnarize_pure(pairs)
        )

    @needs_numpy
    @pytest.mark.parametrize(
        "pairs",
        [
            [],
            [("e", Graph())],
            [("e", Graph()), ("f", Graph())],
            [("one", Graph.single_vertex("鉄"))],
            [("bare", Graph({7: "a", 3: "Cl", 11: "a"}))],
        ],
        ids=["empty-engine", "empty-graph", "two-empty-graphs", "single-vertex", "edgeless"],
    )
    def test_degenerate_corpora(self, pairs):
        numpy_columns = diskcat._columnarize_numpy(pairs)
        assert_same_sections(numpy_columns, diskcat._columnarize_pure(pairs))
        if not any(graph.order for _, graph in pairs):
            assert numpy_columns["_counts"]["n_stars"] == 0

    def test_dispatch_follows_numpy(self, monkeypatch):
        pairs = [("g", Graph(["a", "b"], [(0, 1)]))]
        want = diskcat._columnarize_pure(pairs)
        assert_same_sections(diskcat._columnarize(pairs), want)
        monkeypatch.setattr(diskcat, "_np", None)
        assert_same_sections(diskcat._columnarize(pairs), want)


class TestPinnedCorpus:
    """Five graphs whose sections were worked out by hand."""

    PAIRS = [
        ("b0", Graph(["a", "b"], [(0, 1)])),
        ("a1", Graph({5: "b", 9: "a", 7: "b"}, [(5, 9), (9, 7)])),
        ("c2", Graph(["c"])),
        ("d3", Graph()),
        # Ties "b0" on order: the upper postings put the smaller gid first.
        ("a4", Graph(["b", "a"], [(0, 1)])),
    ]
    # Stars, canonically numbered: 0 = a|b, 1 = b|a, 2 = a|b,b, 3 = c|.
    EXPECTED = {
        "labels_off": [0, 1, 2, 3],
        "gids_off": [0, 2, 4, 6, 8, 10],
        "g_order": [2, 3, 1, 0, 2],
        "g_maxdeg": [1, 2, 0, 0, 1],
        "gs_off": [0, 2, 4, 5, 5, 7],
        "gs_sids": [0, 1, 1, 2, 3, 0, 1],
        "gs_cnts": [1, 1, 2, 1, 1, 1, 1],
        "cat_sids": [0, 1, 2, 3],
        "cat_root": [0, 1, 0, 2],
        "cat_lsize": [1, 1, 2, 0],
        "cat_loff": [0, 1, 2, 4, 4],
        "cat_lids": [1, 0, 1, 1],
        "cat_poff": [0, 1, 3, 3],
        "cat_prows": [1, 0, 2],
        "cat_pfreqs": [1, 1, 2],
        "cat_ref": [2, 4, 1, 1],
        "up_off": [0, 2, 5, 6, 7],
        "up_gids": [4, 0, 4, 0, 1, 1, 2],
        "up_freqs": [1, 1, 1, 1, 2, 1, 1],
        "up_orders": [2, 2, 2, 2, 3, 3, 1],
        "emb_off": [0, 2, 4, 5, 5, 7],
        "emb_lids": [0, 1, 0, 1, 2, 0, 1],
        "emb_cnts": [1, 1, 1, 2, 1, 1, 1],
        "emb_edges": [1, 2, 0, 0, 1],
    }

    @pytest.mark.parametrize("writer", writers(), ids=lambda w: w.__name__)
    def test_sections_match_the_worked_example(self, writer):
        columns = writer(self.PAIRS)
        assert columns["labels_blob"] == b"abc"
        assert columns["gids_blob"] == b"b0a1c2d3a4"
        for name, values in self.EXPECTED.items():
            assert ints(columns[name]) == values, name
        assert columns["_counts"] == {
            "n_graphs": 5,
            "n_stars": 4,
            "n_labels": 3,
            "n_leaf_ids": 4,
            "n_postings": 3,
            "n_upper": 7,
        }


def read_sections(index_path) -> dict:
    with diskcat.DiskCatalog(index_path) as disk:
        names = diskcat.SECTION_NAMES + diskcat.OPTIONAL_SECTION_NAMES
        return {name: bytes(disk.blob(name)) for name in names}


def random_graph(rng: random.Random) -> Graph:
    ids = rng.sample(range(30), rng.randint(1, 6))
    graph = Graph({vid: rng.choice(LABELS) for vid in ids})
    for i, u in enumerate(ids):
        for v in ids[i + 1 :]:
            if rng.random() < 0.4:
                graph.add_edge(u, v)
    return graph


class TestCompactedMappedEngine:
    @settings(
        deadline=None,
        max_examples=15,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_compaction_equals_a_fresh_build(self, seed):
        """Removals, adds and relabels on a mapped engine, then a full
        rewrite: its sections equal a fresh engine's over the same graphs
        in the same order, and (with numpy) the pure writer's."""
        rng = random.Random(seed)
        graphs = {f"g{i}": random_graph(rng) for i in range(8)}
        with tempfile.TemporaryDirectory() as workdir:
            path = Path(workdir) / "db.segos"
            save_index(SegosIndex(graphs, delta_compact=0.0), path)
            engine = load_index(path)
            assert engine.disk_handle() is not None
            for serial in range(rng.randint(1, 6)):
                gids = sorted(engine.gids())
                kind = rng.choice(("add", "remove", "relabel"))
                if kind == "add":
                    engine.add(f"n{serial}", random_graph(rng))
                elif kind == "remove" and len(gids) > 1:
                    engine.remove(rng.choice(gids))
                else:
                    gid = rng.choice(gids)
                    vertex = rng.choice(sorted(engine.graph(gid).vertices()))
                    engine.relabel_vertex(gid, vertex, rng.choice(LABELS))
            save_index(engine, path)
            assert engine.disk_handle().delta_count == 0  # a full rewrite
            compacted = read_sections(sidecar_path_for(path, engine.config))

            pairs = [(gid, engine.graph(gid)) for gid in engine.gids()]
            fresh_path = Path(workdir) / "fresh.segos"
            fresh = SegosIndex(dict(pairs))
            assert list(fresh.gids()) == [gid for gid, _ in pairs]
            save_index(fresh, fresh_path)
            assert compacted == read_sections(sidecar_path_for(fresh_path, fresh.config))
            pure = diskcat._columnarize_pure(pairs)
            assert compacted == {name: pure[name] for name in compacted}
