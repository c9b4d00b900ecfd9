"""The ``.segosx`` writer: the numpy section kernels against the pure loops.

``diskcat._columnarize`` builds every sidecar section with numpy kernels.
:func:`_columnarize_pure` below is the reference it is held to: the
original loops, one plain walk per section.  Both must emit the same
bytes, section for section: the reference spells out the canonical star
numbering and posting order that keep a mapped engine byte-identical to
a rebuilt one.
"""

from __future__ import annotations

import random
import struct
import tempfile
from collections import Counter
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import SegosIndex
from repro.core.persistence import load_index, save_index, sidecar_path_for
from repro.graphs.model import Graph
from repro.graphs.star import Star, StarKey, decompose
from repro.perf import diskcat

# Multi-character and non-ASCII labels: the string table is UTF-8 and
# labels sort by code point.
#: ``"b,c"`` and ``"a|b"`` hold the separators of ``Star.signature``: stars
#: over them print like other stars, and the writers must still tell them
#: apart.
LABELS = ("a", "b", "c", "Cl", "Na", "é", "ß", "鉄", "αβ", "b,c", "a|b")


def pack_int64(values: Sequence[int]) -> bytes:
    values = list(values)
    return struct.pack(f"<{len(values)}q", *values)


def ints(raw: bytes):
    return list(struct.unpack(f"<{len(raw) // 8}q", raw))


def _columnarize_pure(pairs: Sequence[Tuple[str, Graph]]) -> Dict[str, object]:
    """The reference writer: one loop per section, no numpy.

    :func:`diskcat._columnarize` must emit exactly these bytes.
    """
    key_to_sid: Dict[StarKey, int] = {}
    stars: List[Star] = []
    refcount: List[int] = []
    upper: List[Dict[int, int]] = []  # sid -> {graph index -> freq}
    orders: List[int] = []
    maxdegs: List[int] = []
    graph_counts: List[List[Tuple[int, int]]] = []
    for gidx, (_, graph) in enumerate(pairs):
        orders.append(graph.order)
        maxdegs.append(graph.max_degree())
        counts: Counter = Counter()
        for star in decompose(graph):
            sid = key_to_sid.get(star.key)
            if sid is None:
                sid = len(stars)
                key_to_sid[star.key] = sid
                stars.append(star)
                refcount.append(0)
                upper.append({})
            counts[sid] += 1
            refcount[sid] += 1
        graph_counts.append(sorted(counts.items()))
        for sid, freq in counts.items():
            upper[sid][gidx] = freq

    vocabulary = set()
    for star in stars:
        vocabulary.add(star.root)
        vocabulary.update(star.leaves)
    labels = sorted(vocabulary)
    label_to_id = {label: i for i, label in enumerate(labels)}

    root_ids: List[int] = []
    leaf_sizes: List[int] = []
    leaf_offsets = [0]
    leaf_ids: List[int] = []
    per_label: Dict[int, List[Tuple[int, int]]] = {}
    for row, star in enumerate(stars):
        root_ids.append(label_to_id[star.root])
        leaf_sizes.append(star.leaf_size)
        leaf_ids.extend(label_to_id[leaf] for leaf in star.leaves)
        leaf_offsets.append(len(leaf_ids))
        for label, freq in Counter(star.leaves).items():
            per_label.setdefault(label_to_id[label], []).append((row, freq))

    post_offsets = [0]
    post_rows: List[int] = []
    post_freqs: List[int] = []
    for lid in range(len(labels)):
        for row, freq in per_label.get(lid, ()):
            post_rows.append(row)
            post_freqs.append(freq)
        post_offsets.append(len(post_rows))

    gid_strings = [str(gid) for gid, _ in pairs]
    up_off = [0]
    up_gids: List[int] = []
    up_freqs: List[int] = []
    up_orders: List[int] = []
    for sid in range(len(stars)):
        postings = sorted(
            upper[sid].items(), key=lambda kv: (orders[kv[0]], gid_strings[kv[0]])
        )
        for gidx, freq in postings:
            up_gids.append(gidx)
            up_freqs.append(freq)
            up_orders.append(orders[gidx])
        up_off.append(len(up_gids))

    gs_off = [0]
    gs_sids: List[int] = []
    gs_cnts: List[int] = []
    for counts_list in graph_counts:
        for sid, freq in counts_list:
            gs_sids.append(sid)
            gs_cnts.append(freq)
        gs_off.append(len(gs_sids))

    # Embedding columns (the ``embed`` tier): per-graph label-multiset CSR
    # + edge counts.  Every vertex label is some star's root label, so the
    # star vocabulary covers the graph multisets.
    emb_off = [0]
    emb_lids: List[int] = []
    emb_cnts: List[int] = []
    emb_edges: List[int] = []
    for _, graph in pairs:
        emb_edges.append(graph.size)
        for label, freq in sorted(Counter(graph.label_multiset()).items()):
            emb_lids.append(label_to_id[label])
            emb_cnts.append(freq)
        emb_off.append(len(emb_lids))

    labels_off, labels_blob = diskcat._pack_string_table(labels)
    gids_off, gids_blob = diskcat._pack_string_table(gid_strings)
    return {
        "labels_off": labels_off,
        "labels_blob": labels_blob,
        "gids_off": gids_off,
        "gids_blob": gids_blob,
        "g_order": pack_int64(orders),
        "g_maxdeg": pack_int64(maxdegs),
        "gs_off": pack_int64(gs_off),
        "gs_sids": pack_int64(gs_sids),
        "gs_cnts": pack_int64(gs_cnts),
        "cat_sids": pack_int64(range(len(stars))),
        "cat_root": pack_int64(root_ids),
        "cat_lsize": pack_int64(leaf_sizes),
        "cat_loff": pack_int64(leaf_offsets),
        "cat_lids": pack_int64(leaf_ids),
        "cat_poff": pack_int64(post_offsets),
        "cat_prows": pack_int64(post_rows),
        "cat_pfreqs": pack_int64(post_freqs),
        "cat_ref": pack_int64(refcount),
        "up_off": pack_int64(up_off),
        "up_gids": pack_int64(up_gids),
        "up_freqs": pack_int64(up_freqs),
        "up_orders": pack_int64(up_orders),
        "emb_off": pack_int64(emb_off),
        "emb_lids": pack_int64(emb_lids),
        "emb_cnts": pack_int64(emb_cnts),
        "emb_edges": pack_int64(emb_edges),
        "_counts": {
            "n_graphs": len(pairs),
            "n_stars": len(stars),
            "n_labels": len(labels),
            "n_leaf_ids": len(leaf_ids),
            "n_postings": len(post_rows),
            "n_upper": len(up_gids),
        },
    }


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
    @settings(deadline=None, max_examples=150)
    @given(gids=gid_lists, data=st.data())
    def test_every_section_byte_identical(self, gids, data):
        pairs = [(gid, data.draw(graphs())) for gid in gids]
        assert_same_sections(diskcat._columnarize(pairs), _columnarize_pure(pairs))

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
        numpy_columns = diskcat._columnarize(pairs)
        assert_same_sections(numpy_columns, _columnarize_pure(pairs))
        if not any(graph.order for _, graph in pairs):
            assert numpy_columns["_counts"]["n_stars"] == 0


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

    @pytest.mark.parametrize(
        "writer", [_columnarize_pure, diskcat._columnarize], ids=lambda w: w.__name__
    )
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
        in the same order, and the reference writer's."""
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
            pure = _columnarize_pure(pairs)
            assert compacted == {name: pure[name] for name in compacted}
