"""Zero-copy on-disk index: the ``.segosx`` sidecar format.

``core/persistence.py`` keeps the *graphs* in the portable transaction
text format and, before this module, rebuilt the two-level index from
scratch on every load — a full decompose-and-insert pass per process.
That is the right durability story (the text file stays diff-able and
interoperable) but the wrong cold-start story for a warm, multi-process
engine: every worker paid the rebuild.  With the sidecar, a pool worker
attaches the saved index by its :class:`DiskHandle` instead.

This module adds a derived, disposable **index sidecar** next to the
graph file (``db.segos`` → ``db.segos.segosx``), following the jn
byte-offset-index design: the sidecar is never authoritative, carries an
explicit staleness check against its source (size + SHA-256), and can be
deleted at any time at the cost of one rebuild.

File layout (all integers little-endian ``int64`` unless noted)::

    ┌────────────────────────────────────────────────────────┐
    │ header: 256 bytes, fixed struct                        │
    │   magic "SEGX" · format version · header CRC32         │
    │   generation · base_generation                         │
    │   source size · source SHA-256                         │
    │   meta JSON offset/length                              │
    │   section-table offset/count                           │
    │   delta region offset/count/bytes                      │
    ├────────────────────────────────────────────────────────┤
    │ meta: JSON (counts + the full resolved EngineConfig)   │
    ├────────────────────────────────────────────────────────┤
    │ section table: (name[16], offset, length, CRC32) × N   │
    ├────────────────────────────────────────────────────────┤
    │ sections: 64-byte-aligned int64 arrays / UTF-8 blobs   │
    │   label + gid string tables (offsets into blobs)       │
    │   per-graph order / max-degree columns                 │
    │   graph → star-count CSR                               │
    │   the eight ColumnarCatalog columns (see below)        │
    │   star refcounts                                       │
    │   upper-level CSR (per-sid postings in Figure-5 order) │
    ├────────────────────────────────────────────────────────┤
    │ delta region: append-only op journal (see DeltaSegment)│
    └────────────────────────────────────────────────────────┘

Star ids in a sidecar are **canonical**: the writer renumbers stars in
first-occurrence order over the graphs as serialised, which is exactly
the numbering a rebuild of the same text file would assign.  Since sids
participate in the deterministic ``(sed, sid)`` tie-break of both top-k
backends, this makes a mapped engine return *byte-identical* results to
a rebuilt one — candidates, matches, orderings, all five query modes (a
hypothesis test pins this).

A full write builds its sections in one Python pass plus numpy kernels:
the pass decomposes each graph and emits flat ``(graph, sid)`` star
occurrences plus each distinct star's root and leaves, and ``unique``,
``bincount``, ``lexsort`` and ``cumsum`` build every section from those
arrays.  ``tests/test_sidecar_writer.py`` compares the bytes with a
per-section reference writer.

Reads are zero-copy: :class:`DiskCatalog` mmaps the file and exposes the
arrays as ``numpy.frombuffer`` views, :class:`MappedTwoLevelIndex`
materialises per-sid views lazily on first touch (the lower level is not
stored; it is derived from the star columns when TA search first reads
it), and :class:`LazyGraphStore` parses graphs on demand from byte
ranges of the text file.  Worker processes that attach the same sidecar share its
pages.  §IV-C mutations *promote* the mapped index to a plain in-memory
:class:`~repro.core.index.TwoLevelIndex` transparently.

Updates append :class:`DeltaSegment` op journals instead of rewriting
the base arrays; once the accumulated ops exceed ``delta_compact`` ×
base graph count, the next save compacts (full rewrite).  Ops carry the
mutated graphs' transaction text, so replay never depends on the (since
rewritten) graph file, and generation accounting stays deterministic:
every process replaying the same sidecar lands on the same counter —
the freshness token the pool paths compare.
"""

from __future__ import annotations

import hashlib
import json
import mmap as _mmaplib
import os
import re
import struct
import zlib
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    MutableMapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as _np

from ..errors import GraphNotIndexed, IndexCorruptionError, SidecarError, StaleSidecarError
from ..graphs import io as gio
from ..graphs.model import Graph
from ..graphs.star import Star, StarKey, decompose
from .columnar import ColumnarCatalog, GraphEmbeddings
from .durability import (
    fsync_dir,
    guarded_fsync,
    guarded_replace,
    guarded_truncate,
    guarded_write,
    resolve_fsync_policy,
    resolve_io_plan,
)

MAGIC = b"SEGX"
DELTA_MAGIC = b"SEGD"
FORMAT_VERSION = 1
HEADER_SIZE = 256
ALIGNMENT = 64

# magic, version, header_crc, generation, base_generation, source_size,
# source_sha256, meta_off, meta_len, table_off, section_count, delta_off,
# delta_count, delta_bytes, padding to 256.
_HEADER = struct.Struct("<4sIIQQQ32sQQQIQIQ140x")
assert _HEADER.size == HEADER_SIZE

# name (16 bytes, NUL-padded ASCII), offset, length in bytes, CRC32.
_SECTION = struct.Struct("<16sQQI")

# magic "SEGD", op count, payload CRC32, payload length in bytes.
_DELTA = struct.Struct("<4sIIQ")

#: Generation bumps a strict replay of one delta op performs (``update``
#: goes through remove + add, hence two).  The writer sums these so every
#: process replaying the same journal computes the same counter.
_OP_BUMPS = {"add": 1, "remove": 1, "update": 2}

#: Section names, in file order.  Arrays are int64 unless named ``*_blob``.
SECTION_NAMES = (
    "labels_off",
    "labels_blob",
    "gids_off",
    "gids_blob",
    "g_order",
    "g_maxdeg",
    "gs_off",
    "gs_sids",
    "gs_cnts",
    "cat_sids",
    "cat_root",
    "cat_lsize",
    "cat_loff",
    "cat_lids",
    "cat_poff",
    "cat_prows",
    "cat_pfreqs",
    "cat_ref",
    "up_off",
    "up_gids",
    "up_freqs",
    "up_orders",
)

#: Optional sections: the per-graph label/degree embedding vectors of the
#: ``embed`` filter tier (a label-multiset CSR plus per-graph edge counts;
#: orders are already in ``g_order``).  Written by default, but a sidecar
#: without them still opens — :class:`DiskCatalog` only hard-requires
#: :data:`SECTION_NAMES`, and the engine degrades *loudly* to computing
#: embeddings on the fly from the graph store.
OPTIONAL_SECTION_NAMES = (
    "emb_off",
    "emb_lids",
    "emb_cnts",
    "emb_edges",
)


def default_sidecar_path(graph_path) -> str:
    """The derived sidecar path for *graph_path* (``<file>.segosx``)."""
    return os.fspath(graph_path) + ".segosx"


def file_sha256(path) -> bytes:
    """SHA-256 digest of a file's bytes (streamed, constant memory)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.digest()


# ---------------------------------------------------------------------------
# int64 columns: little-endian on disk, numpy in memory
# ---------------------------------------------------------------------------

def _int64_view(buffer):
    """A zero-copy int64 ndarray over *buffer* (little-endian on disk)."""
    return _np.frombuffer(buffer, dtype="<i8")


def _pack_array(values) -> bytes:
    """Pack integers (a sequence or an array) as little-endian int64 bytes."""
    return _np.ascontiguousarray(values, dtype="<i8").tobytes()


def _pack_string_table(strings: Sequence[str]) -> Tuple[bytes, bytes]:
    """Encode *strings* as (int64 offsets array, UTF-8 blob) bytes."""
    offsets = [0]
    chunks = []
    total = 0
    for text in strings:
        raw = text.encode("utf-8")
        chunks.append(raw)
        total += len(raw)
        offsets.append(total)
    return _pack_array(offsets), b"".join(chunks)


# ---------------------------------------------------------------------------
# Header / delta records
# ---------------------------------------------------------------------------

@dataclass
class SidecarHeader:
    """The fixed 256-byte header of a ``.segosx`` sidecar."""

    version: int
    generation: int
    base_generation: int
    source_size: int
    source_sha: bytes
    meta_off: int
    meta_len: int
    table_off: int
    section_count: int
    delta_off: int
    delta_count: int
    delta_bytes: int

    def pack(self) -> bytes:
        """Serialise, computing the CRC over the CRC-zeroed header bytes."""
        def _render(crc: int) -> bytes:
            return _HEADER.pack(
                MAGIC,
                self.version,
                crc,
                self.generation,
                self.base_generation,
                self.source_size,
                self.source_sha,
                self.meta_off,
                self.meta_len,
                self.table_off,
                self.section_count,
                self.delta_off,
                self.delta_count,
                self.delta_bytes,
            )

        return _render(zlib.crc32(_render(0)))

    @classmethod
    def unpack(cls, raw: bytes) -> "SidecarHeader":
        if len(raw) < HEADER_SIZE:
            raise SidecarError("sidecar truncated before the header")
        (
            magic,
            version,
            crc,
            generation,
            base_generation,
            source_size,
            source_sha,
            meta_off,
            meta_len,
            table_off,
            section_count,
            delta_off,
            delta_count,
            delta_bytes,
        ) = _HEADER.unpack(raw[:HEADER_SIZE])
        if magic != MAGIC:
            raise SidecarError(f"bad sidecar magic {magic!r}")
        if version != FORMAT_VERSION:
            raise SidecarError(f"unsupported sidecar format version {version}")
        header = cls(
            version,
            generation,
            base_generation,
            source_size,
            source_sha,
            meta_off,
            meta_len,
            table_off,
            section_count,
            delta_off,
            delta_count,
            delta_bytes,
        )
        if header.pack() != raw[:HEADER_SIZE]:
            raise SidecarError(f"sidecar header CRC mismatch (stored {crc})")
        return header


def read_header(path) -> SidecarHeader:
    """Read and validate just the header of a sidecar file."""
    with open(path, "rb") as handle:
        return SidecarHeader.unpack(handle.read(HEADER_SIZE))


@dataclass(frozen=True)
class DeltaSegment:
    """One append-only journal entry: the net graph ops of one save.

    ``ops`` are per-gid and independent of each other: ``("add", gid,
    text)`` / ``("update", gid, text)`` carry the graph's transaction
    text so replay never depends on the (since rewritten) graph file;
    ``("remove", gid, None)`` needs none — the mapped index already
    knows the graph's star counts.

    ``source_size``/``source_sha`` record the graph file the segment
    brought the sidecar in sync with.  Recovery hangs on them: a complete
    record the header does not cover yet (the writer died between the
    record write and the header rewrite) can be *adopted* when its
    recorded source still matches the text on disk, and a scrub that
    truncates a torn tail can revert the header's freshness token to the
    last surviving segment.  Segments written before this field existed
    carry ``None`` — they still replay, but cannot be adopted.
    """

    generation: int
    ops: Tuple[Tuple[str, str, Optional[str]], ...]
    source_size: Optional[int] = None
    source_sha: Optional[bytes] = None


def replay_generation_bumps(ops: Iterable[Tuple[str, str, Optional[str]]]) -> int:
    """Generation increments a strict replay of *ops* performs."""
    return sum(_OP_BUMPS[kind] for kind, _, _ in ops)


@dataclass(frozen=True)
class DiskHandle:
    """A shippable ``(paths, generation)`` ticket for worker attachment.

    The only way an engine reaches a pool worker: the parent sends this
    tiny handle, the worker re-opens the two files and
    verifies it reconstructed the *same* state — ``disk_generation`` is
    deterministic across processes (base generation + replay bumps), so
    an out-of-band writer is caught by a simple equality check.

    ``local_generation`` is the parent engine's own mutation counter at
    the last sync; the handle is only handed out while the engine still
    sits at it (see ``SegosIndex.disk_handle``).
    """

    graph_path: str
    index_path: str
    local_generation: int
    disk_generation: int
    source_sha: str  # hex
    source_size: int
    delta_count: int
    base_graphs: int
    delta_ops: int


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------

def _star_occurrences(pairs: Sequence[Tuple[str, Graph]]):
    """The Python pass of :func:`_columnarize`: one walk per graph.

    Decomposes each graph and numbers its stars canonically (first
    occurrence wins).  Returns the per-graph ``orders``, ``maxdegs`` and
    ``edges`` lists; ``occ``, the sid of every star occurrence in graph
    order (graph ``i`` owns ``orders[i]`` of them, one per vertex); and,
    per distinct star in sid order, its ``roots`` label and sorted
    ``leaves`` tuple.
    """
    key_to_sid: Dict[StarKey, int] = {}
    roots: List[str] = []
    leaves: List[Tuple[str, ...]] = []
    occ: List[int] = []
    orders: List[int] = []
    maxdegs: List[int] = []
    edges: List[int] = []
    for _, graph in pairs:
        orders.append(graph.order)
        maxdegs.append(graph.max_degree())
        edges.append(graph.size)
        for star in decompose(graph):
            sid = key_to_sid.get(star.key)
            if sid is None:
                sid = key_to_sid[star.key] = len(roots)
                roots.append(star.root)
                leaves.append(star.leaves)
            occ.append(sid)
    return orders, maxdegs, edges, occ, roots, leaves


def _csr_offsets(owners, count: int):
    """CSR offsets (``count + 1`` of them) of entries grouped by *owners*."""
    offsets = _np.zeros(count + 1, dtype=_np.int64)
    _np.cumsum(_np.bincount(owners, minlength=count), out=offsets[1:])
    return offsets


def _columnarize(pairs: Sequence[Tuple[str, Graph]]) -> Dict[str, object]:
    """Decompose *pairs* into the canonical column arrays.

    Works purely from the graphs (not from a live index), assigning star
    ids in first-occurrence order — the numbering a rebuild of the same
    serialisation would produce, which keeps the ``(sed, sid)``
    tie-breaks byte-identical between mapped and rebuilt engines.

    Every section is a sort or a count over the ``(graph, sid)`` star
    occurrences, or over the ``(star, leaf label)`` entries of the
    distinct stars, so ``unique``/``bincount``/``lexsort`` build each one
    in a single call.
    """
    np = _np
    orders, maxdegs, edges, occ, roots, leaves = _star_occurrences(pairs)
    n_graphs, n_stars = len(pairs), len(roots)
    labels = sorted(set(roots).union(*leaves))
    n_labels = len(labels)
    label_to_id = {label: i for i, label in enumerate(labels)}

    order_col = np.array(orders, dtype=np.int64)
    occ_sids = np.array(occ, dtype=np.int64)
    occ_graph = np.repeat(np.arange(n_graphs, dtype=np.int64), order_col)
    root_ids = np.array([label_to_id[root] for root in roots], dtype=np.int64)
    leaf_sizes = np.array([len(star) for star in leaves], dtype=np.int64)
    leaf_ids = np.array(
        [label_to_id[leaf] for star in leaves for leaf in star], dtype=np.int64
    )
    leaf_star = np.repeat(np.arange(n_stars, dtype=np.int64), leaf_sizes)

    # Graph -> star counts, sid ascending within each graph.  A stride of
    # at least 1 keeps the key split defined when there are no stars.
    stride = max(n_stars, 1)
    keys, gs_cnts = np.unique(occ_graph * stride + occ_sids, return_counts=True)
    gs_graph = keys // stride
    gs_sids = keys - gs_graph * stride

    # Lower-level postings: (label, star) pairs with the leaf frequency,
    # label-major and row ascending within a label.
    keys, post_freqs = np.unique(leaf_ids * stride + leaf_star, return_counts=True)
    post_lids = keys // stride
    post_rows = keys - post_lids * stride

    # Upper-level postings: per sid, graphs by (order, gid string) — one
    # rank per graph replaces a sort per sid.
    gid_strings = [str(gid) for gid, _ in pairs]
    by_order = sorted(range(n_graphs), key=lambda g: (orders[g], gid_strings[g]))
    rank = np.empty(n_graphs, dtype=np.int64)
    rank[by_order] = np.arange(n_graphs, dtype=np.int64)
    up = np.lexsort((rank[gs_graph], gs_sids))
    up_gids = gs_graph[up]

    # Embedding columns: every vertex label is its star's root label.
    label_stride = max(n_labels, 1)
    emb_keys, emb_cnts = np.unique(
        occ_graph * label_stride + root_ids[occ_sids], return_counts=True
    )
    emb_graph = emb_keys // label_stride

    labels_off, labels_blob = _pack_string_table(labels)
    gids_off, gids_blob = _pack_string_table(gid_strings)
    return {
        "labels_off": labels_off,
        "labels_blob": labels_blob,
        "gids_off": gids_off,
        "gids_blob": gids_blob,
        "g_order": _pack_array(order_col),
        "g_maxdeg": _pack_array(maxdegs),
        "gs_off": _pack_array(_csr_offsets(gs_graph, n_graphs)),
        "gs_sids": _pack_array(gs_sids),
        "gs_cnts": _pack_array(gs_cnts),
        "cat_sids": _pack_array(np.arange(n_stars)),
        "cat_root": _pack_array(root_ids),
        "cat_lsize": _pack_array(leaf_sizes),
        "cat_loff": _pack_array(_csr_offsets(leaf_star, n_stars)),
        "cat_lids": _pack_array(leaf_ids),
        "cat_poff": _pack_array(_csr_offsets(post_lids, n_labels)),
        "cat_prows": _pack_array(post_rows),
        "cat_pfreqs": _pack_array(post_freqs),
        "cat_ref": _pack_array(np.bincount(occ_sids, minlength=n_stars)),
        "up_off": _pack_array(_csr_offsets(gs_sids, n_stars)),
        "up_gids": _pack_array(up_gids),
        "up_freqs": _pack_array(gs_cnts[up]),
        "up_orders": _pack_array(order_col[up_gids]),
        "emb_off": _pack_array(_csr_offsets(emb_graph, n_graphs)),
        "emb_lids": _pack_array(emb_keys - emb_graph * label_stride),
        "emb_cnts": _pack_array(emb_cnts),
        "emb_edges": _pack_array(edges),
        "_counts": {
            "n_graphs": n_graphs,
            "n_stars": n_stars,
            "n_labels": n_labels,
            "n_leaf_ids": len(leaf_ids),
            "n_postings": len(post_rows),
            "n_upper": len(up_gids),
        },
    }


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def write_sidecar(
    index_path,
    pairs: Sequence[Tuple[str, Graph]],
    *,
    config: Dict[str, object],
    generation: int,
    source_size: int,
    source_sha: bytes,
    embeddings: bool = True,
    fsync_policy: Optional[str] = None,
    fault_plan=None,
) -> None:
    """Write a full (delta-free) sidecar atomically (temp + rename).

    Durability: the temp file is flushed and fsynced (policy-gated)
    before the ``os.replace``, and the directory entry after it — a
    crash at any point leaves either the old sidecar or the new one,
    plus at worst a stray temp file.

    ``embeddings=False`` omits the optional embedding sections — the
    pre-embedding file layout, kept writable so the loud-degradation path
    (and its test) can produce a stale-layout sidecar on demand.
    """
    index_path = os.fspath(index_path)
    policy = resolve_fsync_policy(fsync_policy)
    plan = resolve_io_plan(fault_plan)
    columns = _columnarize(pairs)
    counts = columns.pop("_counts")
    meta = json.dumps(
        {
            "counts": counts,
            "config": config,
            # The base state's own salvage token: a scrub that truncates
            # every delta segment can revert the header's freshness token
            # to the state the sections describe.
            "source": {"size": source_size, "sha": source_sha.hex()},
        },
        sort_keys=True,
    ).encode("utf-8")
    names = SECTION_NAMES + (OPTIONAL_SECTION_NAMES if embeddings else ())

    meta_off = HEADER_SIZE
    table_off = _align(meta_off + len(meta))
    cursor = _align(table_off + _SECTION.size * len(names))
    table_entries = []
    for name in names:
        payload = columns[name]
        table_entries.append((name, cursor, len(payload), zlib.crc32(payload)))
        cursor = _align(cursor + len(payload))
    delta_off = cursor

    header = SidecarHeader(
        version=FORMAT_VERSION,
        generation=generation,
        base_generation=generation,
        source_size=source_size,
        source_sha=source_sha,
        meta_off=meta_off,
        meta_len=len(meta),
        table_off=table_off,
        section_count=len(names),
        delta_off=delta_off,
        delta_count=0,
        delta_bytes=0,
    )

    tmp_path = f"{index_path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "wb") as out:
            guarded_write(out, header.pack(), stage="sidecar.header", plan=plan)
            out.write(meta)
            out.write(b"\0" * (table_off - meta_off - len(meta)))
            for name, offset, length, crc in table_entries:
                out.write(_SECTION.pack(name.encode("ascii"), offset, length, crc))
            position = table_off + _SECTION.size * len(table_entries)
            for name, offset, length, _ in table_entries:
                out.write(b"\0" * (offset - position))
                out.write(columns[name])
                position = offset + length
            out.write(b"\0" * (delta_off - position))
            # The whole file must be durable before the rename publishes
            # it — otherwise a crash could leave a named, empty sidecar.
            guarded_fsync(
                out, stage="sidecar.tmp", plan=plan, policy=policy, critical=True
            )
        guarded_replace(tmp_path, index_path, stage="sidecar.replace", plan=plan)
        fsync_dir(index_path, stage="sidecar.dir", plan=plan, policy=policy)
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)


def append_delta(
    index_path,
    ops: Sequence[Tuple[str, str, Optional[str]]],
    *,
    generation: int,
    source_size: int,
    source_sha: bytes,
    fsync_policy: Optional[str] = None,
    fault_plan=None,
) -> None:
    """Append one journal segment and refresh the header in place.

    Ordering contract: the record is written **and flushed/fsynced**
    (policy-gated) before the header rewrite that claims it, so the OS
    can never persist a header covering ``delta_bytes`` it does not have.
    A crash before the barrier leaves the header blind to the partial
    record (``delta_bytes`` bounds every read); a crash after it leaves a
    complete, un-adopted record that recovery salvages by matching its
    recorded source hash against the text (see ``DeltaScan``).  Either
    way: the old or the new state, never wrong answers.

    The payload records the post-append source ``(size, sha)`` — the
    salvage token — alongside the ops.
    """
    index_path = os.fspath(index_path)
    policy = resolve_fsync_policy(fsync_policy)
    plan = resolve_io_plan(fault_plan)
    header = read_header(index_path)
    payload = json.dumps(
        {
            "generation": generation,
            "ops": [list(op) for op in ops],
            "source_size": source_size,
            "source_sha": source_sha.hex(),
        },
        sort_keys=True,
    ).encode("utf-8")
    record = _DELTA.pack(DELTA_MAGIC, len(ops), zlib.crc32(payload), len(payload))
    with open(index_path, "r+b") as out:
        out.seek(header.delta_off + header.delta_bytes)
        guarded_write(out, record + payload, stage="delta.record", plan=plan)
        # The ordering barrier (the satellite bug this PR fixes): without
        # it, record and header share one unflushed userspace buffer and
        # the kernel may persist the new header first.
        guarded_fsync(
            out, stage="delta.record", plan=plan, policy=policy, critical=True
        )
        header.generation = generation
        header.source_size = source_size
        header.source_sha = source_sha
        header.delta_count += 1
        header.delta_bytes += len(record) + len(payload)
        out.seek(0)
        guarded_write(out, header.pack(), stage="delta.header", plan=plan)
        # Trailing hardening only: losing this sync costs tail freshness
        # (salvage re-adopts the record), never consistency.
        guarded_fsync(
            out, stage="delta.header", plan=plan, policy=policy, critical=False
        )


# ---------------------------------------------------------------------------
# Delta-record parsing, torn-tail scanning, and scrub
# ---------------------------------------------------------------------------

def _parse_delta_record(buf, cursor: int, limit: int) -> Tuple[DeltaSegment, int]:
    """Parse one ``SEGD`` record at *cursor*; returns ``(segment, end)``.

    Raises :class:`SidecarError` unless the bytes at *cursor* form a
    complete, CRC-valid, self-consistent record ending at or before
    *limit*.  Shared by the strict reader (:meth:`DiskCatalog.delta_segments`)
    and the tolerant recovery scanner (:func:`scan_delta_region`).
    """
    if cursor + _DELTA.size > limit:
        raise SidecarError("delta journal truncated")
    magic, op_count, crc, length = _DELTA.unpack_from(buf, cursor)
    if magic != DELTA_MAGIC:
        raise SidecarError(f"bad delta magic {magic!r}")
    cursor += _DELTA.size
    if cursor + length > limit:
        raise SidecarError("delta payload truncated")
    payload = bytes(buf[cursor : cursor + length])
    cursor += length
    if zlib.crc32(payload) != crc:
        raise SidecarError("delta payload CRC mismatch")
    try:
        decoded = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SidecarError(f"malformed delta payload: {exc}") from exc
    ops = tuple(
        (op[0], op[1], op[2] if len(op) > 2 else None) for op in decoded["ops"]
    )
    if len(ops) != op_count or any(kind not in _OP_BUMPS for kind, _, _ in ops):
        raise SidecarError("delta op list inconsistent with its record")
    sha_hex = decoded.get("source_sha")
    segment = DeltaSegment(
        int(decoded["generation"]),
        ops,
        source_size=(
            int(decoded["source_size"]) if "source_size" in decoded else None
        ),
        source_sha=bytes.fromhex(sha_hex) if sha_hex else None,
    )
    return segment, cursor


@dataclass
class DeltaScan:
    """A tolerant walk of the whole delta region, for crash recovery.

    ``covered`` is the valid record prefix inside the header-claimed
    region (``covered_ok`` when it accounts for *exactly* the claimed
    bytes and count).  ``tail`` holds complete, CRC-valid records found
    *beyond* the claimed region — the signature of a writer killed between
    the record write and the header rewrite; ``tail_ends`` gives each tail
    record's absolute end offset so a repair can adopt a prefix of them.
    ``valid_end`` is one past the last valid record anywhere; anything
    between it and the file end is torn garbage (``torn_bytes``).
    """

    covered: List[DeltaSegment]
    covered_ok: bool
    covered_end: int
    tail: List[DeltaSegment]
    tail_ends: List[int]
    valid_end: int
    torn_bytes: int
    problems: List[str]


def scan_delta_region(buf, header: SidecarHeader, file_size: int) -> DeltaScan:
    """Walk the delta region tolerantly: valid prefix, salvageable tail.

    Never raises on torn bytes — recovery needs the report, not the
    exception.  *buf* may be the raw file bytes or the open mmap.
    """
    problems: List[str] = []
    covered: List[DeltaSegment] = []
    cursor = header.delta_off
    claimed_end = header.delta_off + header.delta_bytes
    covered_ok = True
    while len(covered) < header.delta_count:
        try:
            segment, cursor = _parse_delta_record(
                buf, cursor, min(claimed_end, file_size)
            )
        except SidecarError as exc:
            covered_ok = False
            problems.append(
                f"torn delta record inside the header-claimed region "
                f"(segment {len(covered) + 1} of {header.delta_count}): {exc}"
            )
            break
        covered.append(segment)
    if covered_ok and cursor != claimed_end:
        covered_ok = False
        problems.append(
            f"header claims {header.delta_bytes} delta bytes but its "
            f"{header.delta_count} record(s) end {claimed_end - cursor} "
            f"byte(s) early"
        )
    covered_end = cursor
    tail: List[DeltaSegment] = []
    tail_ends: List[int] = []
    valid_end = covered_end
    if covered_ok:
        cursor = claimed_end
        valid_end = claimed_end
        while cursor < file_size:
            try:
                segment, cursor = _parse_delta_record(buf, cursor, file_size)
            except SidecarError:
                break
            tail.append(segment)
            tail_ends.append(cursor)
            valid_end = cursor
        if tail:
            problems.append(
                f"{len(tail)} complete delta record(s) beyond the header "
                f"(writer died before the header rewrite)"
            )
    torn_bytes = file_size - valid_end
    if torn_bytes:
        problems.append(
            f"{torn_bytes} torn byte(s) past the last valid delta record"
        )
    return DeltaScan(
        covered,
        covered_ok,
        covered_end,
        tail,
        tail_ends,
        valid_end,
        torn_bytes,
        problems,
    )


def adoptable_tail(scan: DeltaScan) -> List[DeltaSegment]:
    """The tail prefix that recovery may adopt: records carrying the
    source ``(size, sha)`` salvage token (legacy records without one
    cannot vouch for the header's freshness, so adoption stops there)."""
    adopted: List[DeltaSegment] = []
    for segment in scan.tail:
        if segment.source_sha is None or segment.source_size is None:
            break
        adopted.append(segment)
    return adopted


@dataclass
class ScrubReport:
    """What ``scrub_sidecar`` found and what it did (or would do).

    ``problems`` lists every inconsistency found; ``actions`` the repairs
    — performed when ``repaired`` is set, proposed otherwise.  ``fatal``
    means in-place repair cannot help (header or section payloads are
    gone): rebuild with ``repro index build``.
    """

    path: str
    problems: List[str]
    actions: List[str]
    repaired: bool = False
    fatal: bool = False

    @property
    def clean(self) -> bool:
        return not self.problems


def _rebuild_action() -> str:
    return "rebuild the sidecar from the text (repro index build)"


def scrub_sidecar(
    path,
    *,
    repair: bool = False,
    fsync_policy: Optional[str] = None,
    fault_plan=None,
) -> ScrubReport:
    """Audit (and with ``repair=True``, fix in place) one sidecar file.

    Checks the header CRC, meta/table/section bounds, every section CRC,
    and the delta journal.  Repairable damage — torn delta tails, orphan
    records a crashed append left beyond the header — is fixed *in place*:
    complete tail records whose salvage token is intact are adopted into
    the header, torn bytes are truncated, and the header's generation and
    freshness token are reverted to the last surviving segment (or the
    base state recorded in the meta block).  The repair sequence is
    crash-safe itself: surviving data is fsynced before the header vouches
    for it, and the header is corrected before garbage is truncated, so a
    scrub killed midway leaves a state a second scrub (or plain load)
    still handles.
    """
    path = os.fspath(path)
    policy = resolve_fsync_policy(fsync_policy)
    plan = resolve_io_plan(fault_plan)
    problems: List[str] = []
    actions: List[str] = []
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        return ScrubReport(path, [f"unreadable: {exc}"], [], fatal=True)
    size = len(raw)
    try:
        header = SidecarHeader.unpack(raw)
    except SidecarError as exc:
        return ScrubReport(
            path, [f"header: {exc}"], [_rebuild_action()], fatal=True
        )

    fatal = False
    if header.meta_off + header.meta_len > size:
        problems.append("meta block extends past end of file")
        fatal = True
    if header.table_off + header.section_count * _SECTION.size > size:
        problems.append("section table extends past end of file")
        fatal = True
    meta = None
    if not fatal:
        try:
            meta = json.loads(
                raw[header.meta_off : header.meta_off + header.meta_len].decode(
                    "utf-8"
                )
            )
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            problems.append(f"malformed meta block: {exc}")
            fatal = True
    if not fatal:
        for i in range(header.section_count):
            start = header.table_off + i * _SECTION.size
            raw_name, offset, length, crc = _SECTION.unpack_from(raw, start)
            name = raw_name.rstrip(b"\0").decode("ascii", "replace")
            if offset + length > size:
                problems.append(f"section {name!r} extends past end of file")
                fatal = True
            elif zlib.crc32(raw[offset : offset + length]) != crc:
                problems.append(
                    f"section {name!r}: CRC mismatch (stored {crc})"
                )
                fatal = True
    if fatal:
        return ScrubReport(path, problems, [_rebuild_action()], fatal=True)

    scan = scan_delta_region(raw, header, size)
    problems.extend(scan.problems)
    if not problems:
        return ScrubReport(path, [], [])

    # Desired end state: header covering covered-prefix + adoptable tail,
    # file truncated after the last kept record.
    adopted = adoptable_tail(scan)
    if scan.covered_ok:
        kept = scan.covered + adopted
        new_end = scan.tail_ends[len(adopted) - 1] if adopted else scan.covered_end
    else:
        kept = list(scan.covered)
        new_end = scan.covered_end
    new_header = SidecarHeader(**{
        f: getattr(header, f) for f in (
            "version",
            "generation",
            "base_generation",
            "source_size",
            "source_sha",
            "meta_off",
            "meta_len",
            "table_off",
            "section_count",
            "delta_off",
            "delta_count",
            "delta_bytes",
        )
    })
    new_header.delta_count = len(kept)
    new_header.delta_bytes = new_end - header.delta_off
    if kept:
        last = kept[-1]
        new_header.generation = last.generation
        if last.source_sha is not None and last.source_size is not None:
            new_header.source_size = last.source_size
            new_header.source_sha = last.source_sha
        elif len(kept) != header.delta_count:
            # Reverting to a legacy segment that recorded no salvage
            # token: the freshness claim is unknowable, so poison it —
            # the next load degrades to a rebuild instead of trusting it.
            new_header.source_size = 0
            new_header.source_sha = b"\0" * 32
            problems.append(
                "recovered state predates the salvage token; freshness "
                "poisoned, next load rebuilds"
            )
    else:
        new_header.generation = header.base_generation
        base_source = (meta or {}).get("source") or {}
        if base_source.get("sha"):
            new_header.source_size = int(base_source["size"])
            new_header.source_sha = bytes.fromhex(base_source["sha"])
        elif header.delta_count:
            new_header.source_size = 0
            new_header.source_sha = b"\0" * 32
            problems.append(
                "base state records no salvage token; freshness poisoned, "
                "next load rebuilds"
            )

    header_changed = new_header.pack() != header.pack()
    if adopted:
        actions.append(
            f"adopt {len(adopted)} recovered delta record(s) into the header "
            f"(generation {header.generation} -> {new_header.generation})"
        )
    if not scan.covered_ok:
        actions.append(
            f"revert the header to the last intact segment "
            f"(generation {header.generation} -> {new_header.generation}, "
            f"{header.delta_count} -> {new_header.delta_count} segment(s))"
        )
    if new_end < size:
        actions.append(f"truncate {size - new_end} torn byte(s) at offset {new_end}")

    if not repair:
        return ScrubReport(path, problems, actions)

    with open(path, "r+b") as out:
        # Everything the new header vouches for must be durable first.
        guarded_fsync(out, stage="scrub.data", plan=plan, policy=policy, critical=True)
        if header_changed:
            out.seek(0)
            guarded_write(out, new_header.pack(), stage="scrub.header", plan=plan)
            guarded_fsync(
                out, stage="scrub.header", plan=plan, policy=policy, critical=True
            )
        if new_end < size:
            # Header first, truncate second: a crash in between leaves
            # benign garbage beyond the (already-corrected) header.
            guarded_truncate(out, new_end, stage="scrub.truncate", plan=plan)
            guarded_fsync(
                out, stage="scrub.truncate", plan=plan, policy=policy, critical=False
            )
    return ScrubReport(path, problems, actions, repaired=True)


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------

class DiskCatalog:
    """A memory-mapped, read-only view of one ``.segosx`` sidecar.

    Sections come back as zero-copy int64 views (:meth:`ints`) or raw
    ``memoryview`` slices (:meth:`blob`); string tables decode lazily and
    cache.  Section CRCs are *not* verified on open (that would fault in
    every page, defeating the lazy mmap) — run :meth:`verify_checksums`
    (``repro index inspect --verify``) for an integrity audit.
    """

    def __init__(self, path) -> None:
        self.path = os.fspath(path)
        self._file = open(self.path, "rb")
        try:
            self._mmap = _mmaplib.mmap(self._file.fileno(), 0, access=_mmaplib.ACCESS_READ)
        except ValueError as exc:  # empty file cannot be mapped
            self._file.close()
            raise SidecarError(f"cannot map sidecar {self.path!r}: {exc}") from exc
        try:
            self.header = SidecarHeader.unpack(self._mmap[:HEADER_SIZE])
            # Bound every header-claimed region against the actual file
            # size *before* dereferencing it: a short or corrupt file must
            # surface as SidecarError (-> rebuild), never a raw
            # struct.error from unpacking past EOF.
            size = len(self._mmap)
            if self.header.meta_off + self.header.meta_len > size:
                raise SidecarError("sidecar meta block extends past end of file")
            if (
                self.header.table_off + self.header.section_count * _SECTION.size
                > size
            ):
                raise SidecarError("sidecar section table extends past end of file")
            if self.header.delta_off + self.header.delta_bytes > size:
                raise SidecarError("sidecar delta region extends past end of file")
            meta_raw = bytes(
                self._mmap[self.header.meta_off : self.header.meta_off + self.header.meta_len]
            )
            try:
                self.meta = json.loads(meta_raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise SidecarError(f"malformed sidecar meta block: {exc}") from exc
            self._sections: Dict[str, Tuple[int, int, int]] = {}
            for i in range(self.header.section_count):
                start = self.header.table_off + i * _SECTION.size
                raw_name, offset, length, crc = _SECTION.unpack_from(self._mmap, start)
                name = raw_name.rstrip(b"\0").decode("ascii")
                if offset + length > len(self._mmap):
                    raise SidecarError(f"section {name!r} extends past end of file")
                self._sections[name] = (offset, length, crc)
            missing = [n for n in SECTION_NAMES if n not in self._sections]
            if missing:
                raise SidecarError(f"sidecar missing sections {missing}")
        except Exception:
            self.close()
            raise
        self._ints_cache: Dict[str, object] = {}
        self._labels: Optional[List[str]] = None
        self._label_to_id: Optional[Dict[str, int]] = None
        self._gids: Optional[List[str]] = None
        self._gid_index: Optional[Dict[str, int]] = None

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "DiskCatalog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Best-effort close; a map with exported views stays alive."""
        try:
            self._mmap.close()
        except (BufferError, ValueError):
            pass
        try:
            self._file.close()
        except OSError:  # pragma: no cover - defensive
            pass

    # -- counts / meta -------------------------------------------------
    @property
    def n_graphs(self) -> int:
        return int(self.meta["counts"]["n_graphs"])

    @property
    def n_stars(self) -> int:
        return int(self.meta["counts"]["n_stars"])

    @property
    def n_labels(self) -> int:
        return int(self.meta["counts"]["n_labels"])

    def config(self) -> Dict[str, object]:
        """The engine config knobs recorded at write time."""
        return dict(self.meta.get("config", {}))

    def is_fresh(self, source_path) -> bool:
        """True when the graph file still matches the recorded size+hash."""
        try:
            if os.path.getsize(source_path) != self.header.source_size:
                return False
            return file_sha256(source_path) == self.header.source_sha
        except OSError:
            return False

    # -- raw access ----------------------------------------------------
    def blob(self, name: str) -> memoryview:
        offset, length, _ = self._sections[name]
        return memoryview(self._mmap)[offset : offset + length]

    def ints(self, name: str):
        view = self._ints_cache.get(name)
        if view is None:
            view = self._ints_cache[name] = _int64_view(self.blob(name))
        return view

    def _strings(self, offsets_name: str, blob_name: str) -> List[str]:
        offsets = self.ints(offsets_name)
        blob = self.blob(blob_name)
        return [
            bytes(blob[int(offsets[i]) : int(offsets[i + 1])]).decode("utf-8")
            for i in range(len(offsets) - 1)
        ]

    def labels(self) -> List[str]:
        if self._labels is None:
            self._labels = self._strings("labels_off", "labels_blob")
        return self._labels

    def label_to_id(self) -> Dict[str, int]:
        if self._label_to_id is None:
            self._label_to_id = {label: i for i, label in enumerate(self.labels())}
        return self._label_to_id

    def gid_list(self) -> List[str]:
        if self._gids is None:
            self._gids = self._strings("gids_off", "gids_blob")
        return self._gids

    def gid_index(self) -> Dict[str, int]:
        if self._gid_index is None:
            self._gid_index = {gid: i for i, gid in enumerate(self.gid_list())}
        return self._gid_index

    # -- deltas --------------------------------------------------------
    def delta_segments(self) -> List[DeltaSegment]:
        """Parse the journal region (bounded by the header's byte count)."""
        segments: List[DeltaSegment] = []
        cursor = self.header.delta_off
        end = self.header.delta_off + self.header.delta_bytes
        for _ in range(self.header.delta_count):
            segment, cursor = _parse_delta_record(self._mmap, cursor, end)
            segments.append(segment)
        return segments

    def salvage_scan(self) -> DeltaScan:
        """Tolerant scan of the whole delta region (for crash recovery)."""
        return scan_delta_region(self._mmap, self.header, len(self._mmap))

    def total_delta_ops(self) -> int:
        return sum(len(segment.ops) for segment in self.delta_segments())

    # -- integrity -----------------------------------------------------
    def verify_checksums(self) -> List[str]:
        """Full CRC audit; returns human-readable problems (empty = clean)."""
        problems: List[str] = []
        for name, (offset, length, crc) in self._sections.items():
            actual = zlib.crc32(self._mmap[offset : offset + length])
            if actual != crc:
                problems.append(
                    f"section {name!r}: CRC mismatch (stored {crc}, actual {actual})"
                )
        try:
            self.delta_segments()
        except SidecarError as exc:
            problems.append(f"delta journal: {exc}")
        return problems

    # -- columnar snapshot --------------------------------------------
    def columnar(self, generation: int) -> ColumnarCatalog:
        """Zero-copy :class:`ColumnarCatalog` over the mapped columns."""
        n = self.n_stars
        return ColumnarCatalog.from_columns(
            generation,
            self.ints("cat_sids"),
            self.ints("cat_root"),
            self.ints("cat_lsize"),
            self.ints("cat_loff"),
            self.ints("cat_lids"),
            self.ints("cat_poff"),
            self.ints("cat_prows"),
            self.ints("cat_pfreqs"),
            self.label_to_id(),
            n - 1 if n else 0,
        )

    # -- graph embeddings ---------------------------------------------
    def has_section(self, name: str) -> bool:
        """True when an (optional) section is present in this sidecar."""
        return name in self._sections

    def has_embeddings(self) -> bool:
        """True when every ``embed``-tier section is present."""
        return all(name in self._sections for name in OPTIONAL_SECTION_NAMES)

    def embedding_bytes(self) -> int:
        """Total payload bytes of the embedding sections (0 when absent)."""
        return sum(
            self._sections[name][1]
            for name in OPTIONAL_SECTION_NAMES
            if name in self._sections
        )

    def embeddings(self, generation: int) -> GraphEmbeddings:
        """Zero-copy :class:`GraphEmbeddings` over the mapped columns.

        Raises ``KeyError`` when the sidecar predates the embedding
        sections — callers check :meth:`has_embeddings` first and degrade
        to an on-the-fly build.
        """
        return GraphEmbeddings.from_columns(
            generation,
            self.gid_list(),
            self.ints("g_order"),
            self.ints("emb_edges"),
            self.ints("emb_off"),
            self.ints("emb_lids"),
            self.ints("emb_cnts"),
            self.label_to_id(),
        )


# ---------------------------------------------------------------------------
# Lazy graph store (text-file byte ranges, parse on demand)
# ---------------------------------------------------------------------------

_GRAPH_HEADER_RE = re.compile(rb"^t[ \t]+(?:#[ \t]+)?(\S+)", re.MULTILINE)


def scan_graph_ranges(data) -> "Dict[str, Tuple[int, int]]":
    """gid → (start, end) byte ranges of each ``t``-block in *data*.

    A light single regex pass over the mapped bytes — the same order of
    work as the SHA-256 freshness check, far below a full parse.
    """
    ranges: Dict[str, Tuple[int, int]] = {}
    matches = list(_GRAPH_HEADER_RE.finditer(data))
    for i, match in enumerate(matches):
        start = match.start()
        end = matches[i + 1].start() if i + 1 < len(matches) else len(data)
        ranges[match.group(1).decode("utf-8")] = (start, end)
    return ranges


class LazyGraphStore(MutableMapping):
    """``gid → Graph`` over a mapped transaction file, parsed on demand.

    Base entries come from byte ranges of the graph file (found by
    :func:`scan_graph_ranges`); nothing is parsed until a query actually
    touches a graph, and the parse result is cached.  Mutations go to an
    overlay (additions/re-additions) and a tombstone set (removals) with
    plain-dict ordering semantics, so an engine holding this store
    behaves exactly like one holding a ``dict``.
    """

    def __init__(
        self,
        text_path,
        *,
        base_gids: Optional[Sequence[str]] = None,
        expected_sha: Optional[bytes] = None,
    ) -> None:
        self._path = os.fspath(text_path)
        with open(self._path, "rb") as handle:
            self._data: bytes = handle.read()
        if expected_sha is not None:
            found_sha = hashlib.sha256(self._data).digest()
            if found_sha != expected_sha:
                raise StaleSidecarError(
                    f"graph file {self._path!r} changed since the index was written",
                    path=self._path,
                    expected_sha=expected_sha,
                    found_sha=found_sha,
                )
        self._ranges = scan_graph_ranges(self._data)
        base = list(base_gids) if base_gids is not None else list(self._ranges)
        self._base: Dict[str, None] = dict.fromkeys(base)
        self._cache: Dict[str, Graph] = {}
        self._overlay: Dict[object, Graph] = {}
        self._removed: set = set()
        # Kept by the mutators, so len() costs no walk of the overlay.
        self._len = len(self._base)

    # -- parsing -------------------------------------------------------
    def parse_from_text(self, gid: str) -> Graph:
        """Parse *gid*'s block from the text bytes (uncached)."""
        span = self._ranges.get(gid)
        if span is None:
            raise StaleSidecarError(
                f"graph {gid!r} is indexed in the sidecar but absent from the text",
                path=self._path,
            )
        parsed = gio.loads(self._data[span[0] : span[1]].decode("utf-8"))
        if len(parsed) != 1 or parsed[0][0] != gid:
            raise StaleSidecarError(
                f"byte range for graph {gid!r} is inconsistent", path=self._path
            )
        return parsed[0][1]

    def unparsed_text(self, gid: object) -> Optional[str]:
        """*gid*'s block of the graph file, if it was never parsed.

        A base graph that was never parsed was never handed out, so it
        cannot have been mutated in place, and its text still describes
        it.  ``None`` for every other graph.
        """
        if (
            gid not in self._base
            or gid in self._removed
            or gid in self._overlay
            or gid in self._cache
            or gid not in self._ranges
        ):
            return None
        start, end = self._ranges[gid]
        text = self._data[start:end].decode("utf-8")
        return text if text.endswith("\n") else text + "\n"

    # -- MutableMapping ------------------------------------------------
    def __getitem__(self, gid: object) -> Graph:
        if gid in self._overlay:
            return self._overlay[gid]
        if gid in self._base and gid not in self._removed:
            graph = self._cache.get(gid)
            if graph is None:
                graph = self._cache[gid] = self.parse_from_text(gid)
            return graph
        raise KeyError(gid)

    def __setitem__(self, gid: object, graph: Graph) -> None:
        if gid not in self:
            self._len += 1
        self._removed.discard(gid)
        self._overlay.pop(gid, None)  # re-insertion moves the key to the end
        self._overlay[gid] = graph

    def __delitem__(self, gid: object) -> None:
        if gid in self._overlay:
            del self._overlay[gid]
        elif gid not in self._base or gid in self._removed:
            raise KeyError(gid)
        self._len -= 1
        # An overlay copy only shadowed the base copy; hide that one too.
        if gid in self._base:
            self._removed.add(gid)
            self._cache.pop(gid, None)

    def __contains__(self, gid: object) -> bool:  # no parse for membership
        if gid in self._overlay:
            return True
        return gid in self._base and gid not in self._removed

    def __iter__(self) -> Iterator[object]:
        for gid in self._base:
            if gid not in self._removed and gid not in self._overlay:
                yield gid
        yield from self._overlay

    def __len__(self) -> int:
        return self._len


# ---------------------------------------------------------------------------
# Mapped two-level index
# ---------------------------------------------------------------------------

class _MappedCatalog:
    """Star-catalog facade: lazy Star materialisation over the columns."""

    def __init__(self, owner: "MappedTwoLevelIndex") -> None:
        self._owner = owner
        self._stars: Dict[int, Star] = {}
        self._key_to_sid: Optional[Dict[StarKey, int]] = None

    def __len__(self) -> int:
        inner = self._owner._inner
        if inner is not None:
            return len(inner.catalog)
        return self._owner._disk.n_stars

    def star(self, sid: int) -> Star:
        inner = self._owner._inner
        if inner is not None:
            return inner.catalog.star(sid)
        star = self._stars.get(sid)
        if star is None:
            disk = self._owner._disk
            if not 0 <= sid < disk.n_stars:
                raise IndexCorruptionError(f"star id {sid} is not live")
            labels = disk.labels()
            loff = disk.ints("cat_loff")
            lids = disk.ints("cat_lids")
            leaves = [
                labels[int(lids[i])]
                for i in range(int(loff[sid]), int(loff[sid + 1]))
            ]
            star = self._stars[sid] = Star(
                labels[int(disk.ints("cat_root")[sid])], leaves
            )
        return star

    def sid(self, star: Star) -> Optional[int]:
        inner = self._owner._inner
        if inner is not None:
            return inner.catalog.sid(star)
        if self._key_to_sid is None:
            self._key_to_sid = {
                self.star(row).key: row
                for row in range(self._owner._disk.n_stars)
            }
        return self._key_to_sid.get(star.key)

    def live_sids(self) -> List[int]:
        inner = self._owner._inner
        if inner is not None:
            return inner.catalog.live_sids()
        return list(range(self._owner._disk.n_stars))

    # Mutation primitives are only ever driven by TwoLevelIndex itself;
    # reaching them through the facade promotes first.
    def acquire(self, star: Star, count: int = 1):
        return self._owner._materialize().catalog.acquire(star, count)

    def release(self, sid: int, count: int = 1):
        return self._owner._materialize().catalog.release(sid, count)


class _MappedPostings:
    """One star's size-sorted postings, read from the upper-level CSR.

    An :class:`~repro.core.index.UpperEntry` is built only when a
    position is read; nothing is cached.
    """

    __slots__ = ("_entry", "_gid_list", "_gids", "_freqs", "_orders", "_lo", "_hi")

    def __init__(self, disk: "DiskCatalog", lo: int, hi: int) -> None:
        from ..core.index import UpperEntry

        self._entry = UpperEntry
        self._gid_list = disk.gid_list()
        self._gids = disk.ints("up_gids")
        self._freqs = disk.ints("up_freqs")
        self._orders = disk.ints("up_orders")
        self._lo = lo
        self._hi = hi

    def __len__(self) -> int:
        return self._hi - self._lo

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        at = i + (self._hi if i < 0 else self._lo)
        if not self._lo <= at < self._hi:
            raise IndexError("posting index out of range")
        return self._entry(
            self._gid_list[int(self._gids[at])],
            int(self._freqs[at]),
            int(self._orders[at]),
        )


class _MappedUpper:
    """Upper-level facade over the ``up_*`` CSR columns."""

    def __init__(self, owner: "MappedTwoLevelIndex") -> None:
        self._owner = owner

    def __contains__(self, sid: int) -> bool:
        inner = self._owner._inner
        if inner is not None:
            return sid in inner.upper
        return 0 <= sid < self._owner._disk.n_stars

    def sids(self):
        inner = self._owner._inner
        if inner is not None:
            return inner.upper.sids()
        return range(self._owner._disk.n_stars)

    def postings(self, sid: int) -> List:
        inner = self._owner._inner
        if inner is not None:
            return inner.upper.postings(sid)
        postings, _ = self.cut(sid, 0)
        return list(postings)

    def cut(self, sid: int, order: int):
        """*sid*'s postings as a CSR view, and the end of its ``≤ order`` prefix."""
        inner = self._owner._inner
        if inner is not None:
            return inner.upper.cut(sid, order)
        disk = self._owner._disk
        if not 0 <= sid < disk.n_stars:
            return (), 0
        off = disk.ints("up_off")
        lo, hi = int(off[sid]), int(off[sid + 1])
        cut = bisect_right(disk.ints("up_orders"), order, lo, hi)
        return _MappedPostings(disk, lo, hi), cut - lo

    def split_by_order(self, sid: int, order: int):
        postings, cut = self.cut(sid, order)
        return list(postings[:cut]), list(postings[cut:])

    def stats(self) -> Tuple[int, int]:
        inner = self._owner._inner
        if inner is not None:
            return inner.upper.stats()
        disk = self._owner._disk
        return disk.n_stars, len(disk.ints("up_gids"))


class MappedTwoLevelIndex:
    """A read-optimised two-level index backed by a mapped sidecar.

    Presents the exact surface of :class:`~repro.core.index.TwoLevelIndex`
    (catalog and upper facades, the derived lower level, graph metadata,
    the generation counter, the three mutators) but starts fully
    *mapped*: reads materialise only the views they touch.  The first
    §IV-C mutation **promotes** the whole structure to a plain in-memory
    ``TwoLevelIndex`` built straight from the arrays — no text parsing —
    after which every call delegates.  Promotion is invisible:
    identical answers before and after.
    """

    def __init__(self, disk: DiskCatalog) -> None:
        from ..core.index import ChangeSet, LowerLevelIndex

        self._disk = disk
        self._inner = None  # type: Optional[object]
        self._generation = disk.header.base_generation
        self._star_changes = ChangeSet(self._generation)
        self.catalog = _MappedCatalog(self)
        self.upper = _MappedUpper(self)
        # Derived from the catalog facade on first read; promotion hands
        # it to the in-memory index, whose mutators invalidate it.
        self.lower = LowerLevelIndex(self.catalog)
        self._counts_cache: Dict[object, Counter] = {}
        self._max_degree: Optional[int] = None

    # -- generation ----------------------------------------------------
    @property
    def generation(self) -> int:
        inner = self._inner
        return inner.generation if inner is not None else self._generation

    @generation.setter
    def generation(self, value: int) -> None:
        inner = self._inner
        if inner is not None:
            inner.generation = value
        else:
            self._generation = value

    @property
    def star_changes(self):
        """Star ids created or retired since the cached columnar snapshot.

        Promotion keeps the sidecar's sids, so the mapped columns stay a
        valid patch base for the promoted index.
        """
        inner = self._inner
        return inner.star_changes if inner is not None else self._star_changes

    @star_changes.setter
    def star_changes(self, value) -> None:
        inner = self._inner
        if inner is not None:
            inner.star_changes = value
        else:
            self._star_changes = value

    @property
    def promoted(self) -> bool:
        """True once a mutation has forced full materialisation."""
        return self._inner is not None

    # -- promotion -----------------------------------------------------
    def _materialize(self):
        """Build the in-memory index from whole columns (idempotent).

        Each column is read once with ``.tolist()``.  No lower level is
        built: the promoted index shares this index's derived view,
        which promotion leaves valid (the live stars do not change).
        """
        if self._inner is None:
            from ..core.index import (
                GraphMeta,
                TwoLevelIndex,
                UpperEntry,
                _LazySortedList,
                _upper_sort_key,
            )

            disk = self._disk
            index = TwoLevelIndex()
            index.generation = self._generation
            index.star_changes = self._star_changes
            index.lower = self.lower

            labels = disk.labels()
            loff = disk.ints("cat_loff").tolist()
            leaves = [labels[lid] for lid in disk.ints("cat_lids").tolist()]
            stars = [
                Star(labels[root], leaves[loff[sid] : loff[sid + 1]])
                for sid, root in enumerate(disk.ints("cat_root").tolist())
            ]
            catalog = index.catalog
            catalog._stars = stars
            catalog._refcount = disk.ints("cat_ref").tolist()
            catalog._sid_by_key = {star.key: sid for sid, star in enumerate(stars)}

            # The CSR already holds each star's postings in Figure-5
            # order, so every list starts with its sorted view in place.
            gid_list = disk.gid_list()
            entries = [
                UpperEntry(gid_list[gidx], freq, order)
                for gidx, freq, order in zip(
                    disk.ints("up_gids").tolist(),
                    disk.ints("up_freqs").tolist(),
                    disk.ints("up_orders").tolist(),
                )
            ]
            up_off = disk.ints("up_off").tolist()
            for sid in range(len(stars)):
                postings = _LazySortedList(key=_upper_sort_key)
                view = entries[up_off[sid] : up_off[sid + 1]]
                postings.data = {entry.gid: entry for entry in view}
                postings._view = view
                index.upper._lists[sid] = postings

            gs_off = disk.ints("gs_off").tolist()
            gs_sids = disk.ints("gs_sids").tolist()
            gs_cnts = disk.ints("gs_cnts").tolist()
            maxdegs = disk.ints("g_maxdeg").tolist()
            rows = zip(gid_list, disk.ints("g_order").tolist(), maxdegs)
            for gidx, (gid, order, maxdeg) in enumerate(rows):
                lo, hi = gs_off[gidx], gs_off[gidx + 1]
                counts = dict(zip(gs_sids[lo:hi], gs_cnts[lo:hi]))
                index._graph_stars[gid] = Counter(counts)
                index._meta[gid] = GraphMeta(order, maxdeg)
            index._max_degree_hist = Counter(maxdegs)

            self._inner = index
        return self._inner

    # -- introspection -------------------------------------------------
    def __len__(self) -> int:
        inner = self._inner
        if inner is not None:
            return len(inner)
        return self._disk.n_graphs

    def __contains__(self, gid: object) -> bool:
        inner = self._inner
        if inner is not None:
            return gid in inner
        return gid in self._disk.gid_index()

    def gids(self):
        inner = self._inner
        if inner is not None:
            return inner.gids()
        return list(self._disk.gid_list())

    def meta(self, gid: object):
        inner = self._inner
        if inner is not None:
            return inner.meta(gid)
        from ..core.index import GraphMeta

        gidx = self._disk.gid_index().get(gid)
        if gidx is None:
            raise GraphNotIndexed(gid)
        return GraphMeta(
            int(self._disk.ints("g_order")[gidx]),
            int(self._disk.ints("g_maxdeg")[gidx]),
        )

    def graph_star_counts(self, gid: object) -> Counter:
        inner = self._inner
        if inner is not None:
            return inner.graph_star_counts(gid)
        counts = self._counts_cache.get(gid)
        if counts is None:
            disk = self._disk
            gidx = disk.gid_index().get(gid)
            if gidx is None:
                raise GraphNotIndexed(gid)
            gs_off = disk.ints("gs_off")
            gs_sids = disk.ints("gs_sids")
            gs_cnts = disk.ints("gs_cnts")
            counts = Counter()
            for i in range(int(gs_off[gidx]), int(gs_off[gidx + 1])):
                counts[int(gs_sids[i])] = int(gs_cnts[i])
            self._counts_cache[gid] = counts
        return Counter(counts)

    def database_max_degree(self) -> int:
        inner = self._inner
        if inner is not None:
            return inner.database_max_degree()
        if self._max_degree is None:
            degrees = self._disk.ints("g_maxdeg")
            self._max_degree = int(degrees.max()) if len(degrees) else 0
        return self._max_degree

    def size_estimate(self) -> int:
        inner = self._inner
        if inner is not None:
            return inner.size_estimate()
        _, upper_postings = self.upper.stats()
        _, lower_postings = self.lower.stats()
        return upper_postings + lower_postings + len(self.catalog)

    # -- mutators: promote, then delegate ------------------------------
    def add_graph(self, gid: object, graph: Graph, stars: Sequence[Star]) -> None:
        self._materialize().add_graph(gid, graph, stars)

    def remove_graph(self, gid: object) -> None:
        self._materialize().remove_graph(gid)

    def apply_star_delta(self, gid, removed, added, new_meta) -> None:
        self._materialize().apply_star_delta(gid, removed, added, new_meta)

    # -- consistency ---------------------------------------------------
    def check_consistency(self) -> None:
        """Structural invariants of the mapped arrays (or the inner index)."""
        inner = self._inner
        if inner is not None:
            inner.check_consistency()
            return
        disk = self._disk
        n = disk.n_stars
        ref = disk.ints("cat_ref")
        off = disk.ints("up_off")
        up_freqs = disk.ints("up_freqs")
        for sid in range(n):
            lo, hi = int(off[sid]), int(off[sid + 1])
            if hi <= lo:
                raise IndexCorruptionError(f"star {sid} has no upper postings")
            total = sum(int(up_freqs[i]) for i in range(lo, hi))
            if total != int(ref[sid]):
                raise IndexCorruptionError(
                    f"star {sid}: refcount {int(ref[sid])} != posting total {total}"
                )
        gs_off = disk.ints("gs_off")
        gs_cnts = disk.ints("gs_cnts")
        occurrences = sum(int(c) for c in gs_cnts)
        if occurrences != sum(int(r) for r in ref):
            raise IndexCorruptionError("graph star counts disagree with refcounts")
        if len(gs_off) != disk.n_graphs + 1:
            raise IndexCorruptionError("graph CSR length mismatch")
