"""Columnar star-catalog mirror and vectorized batch-SED kernels.

The TA top-k search (Algorithm 2) pays a Python-level price per sorted
access: iterator dispatch, heap pushes, a scalar Lemma 1 evaluation per
newly seen star.  MSQ-Index-style systems show that a succinct,
cache-friendly array layout of the q-gram/star catalog beats
pointer-chasing postings once a query has to touch a large fraction of the
catalog anyway.  This module provides that layout for SEGOS:

:class:`ColumnarCatalog` snapshots the live :class:`~repro.core.index.StarCatalog`
/ :class:`~repro.core.index.LowerLevelIndex` content into contiguous arrays:

* an interned label vocabulary (ids assigned in sorted label order, so id
  order equals string order);
* a CSR layout of every star's sorted leaf-label multiset
  (``leaf_offsets`` / ``leaf_ids``);
* per-star ``leaf_sizes``, ``root_ids`` and ``sids`` columns;
* a second CSR keyed by label id mirroring the lower-level postings
  (``post_offsets`` / ``post_rows`` / ``post_freqs``) — the column the
  vectorized common-leaf count ψ is computed from.

Snapshots are immutable.  Coherence with the live index is by *generation
counter*: every §IV-C update bumps ``index.generation`` (all seven update
kinds funnel through three mutators), and the mutators record the star ids
they create or retire in ``index.star_changes``.  On the next query that
needs the mirror, :func:`columnar_snapshot` patches the cached snapshot:
only the changed stars are re-columnarised, and the rest of the rows are
carried over in a few O(n) numpy passes.  Nothing is patched while the
index is only read.  :class:`GraphEmbeddings` follows the engine's graphs
the same way (:meth:`GraphEmbeddings.patched`).

On top of the snapshot, :meth:`ColumnarCatalog.sed_against_all` evaluates
Lemma 1 in the ``2·max(|L_q|, |L_i|) − min(|L_q|, |L_i|) − ψ`` form (plus
the 0/1 root term) against **every** live star in a handful of numpy
operations, and :meth:`ColumnarCatalog.top_k` turns that into a full-scan
top-k via ``argpartition`` on a composite ``(sed, sid)`` key — byte-identical
ordering to the TA backend's tie-break.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

import numpy as _np

from ..errors import IndexCorruptionError
from ..graphs.star import Star


def _segments(offsets, rows):
    """Positions of the CSR segments of *rows*, concatenated in *rows* order."""
    starts = offsets[rows]
    lengths = offsets[rows + 1] - starts
    ends = _np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    shift = _np.repeat(starts - ends + lengths, lengths)
    return _np.arange(total, dtype=_np.int64) + shift


def _interleave(kept_pos, fresh_pos, kept_values, fresh_values):
    """One int64 column with *kept_values* and *fresh_values* at their rows."""
    out = _np.empty(len(kept_pos) + len(fresh_pos), dtype=_np.int64)
    out[kept_pos] = kept_values
    out[fresh_pos] = fresh_values
    return out


def _offsets(lengths):
    out = _np.zeros(len(lengths) + 1, dtype=_np.int64)
    _np.cumsum(lengths, out=out[1:])
    return out


def _revocabulary(label_to_id: Dict[str, int], used_ids, fresh_labels):
    """The vocabulary after a patch, and the old-id → new-id map.

    Old labels stay only where a kept row still uses them (*used_ids*, a
    boolean mask over old ids); *fresh_labels* join.  Ids are reassigned in
    sorted label order, exactly as a fresh build interns them.
    """
    old_labels = sorted(label_to_id, key=label_to_id.__getitem__)
    kept_ids = _np.flatnonzero(used_ids)
    vocabulary = set(fresh_labels)
    vocabulary.update(old_labels[i] for i in kept_ids)
    new_to_id = {label: i for i, label in enumerate(sorted(vocabulary))}
    remap = _np.full(len(old_labels), -1, dtype=_np.int64)
    remap[kept_ids] = [new_to_id[old_labels[i]] for i in kept_ids]
    return new_to_id, remap


class ColumnarCatalog:
    """An immutable columnar snapshot of the star catalog.

    Rows are live stars ordered by increasing sid; all columns are parallel
    to that row order.  Build with :meth:`ColumnarCatalog.build` (or the
    cached :func:`columnar_snapshot`), never mutate.
    """

    __slots__ = (
        "generation",
        "n_rows",
        "sids",
        "root_ids",
        "leaf_sizes",
        "leaf_offsets",
        "leaf_ids",
        "post_offsets",
        "post_rows",
        "post_freqs",
        "label_to_id",
        "max_sid",
    )

    def __init__(
        self,
        generation: int,
        sids: List[int],
        root_ids: List[int],
        leaf_sizes: List[int],
        leaf_offsets: List[int],
        leaf_ids: List[int],
        post_offsets: List[int],
        post_rows: List[int],
        post_freqs: List[int],
        label_to_id: Dict[str, int],
    ) -> None:
        self.generation = generation
        self.n_rows = len(sids)
        self.label_to_id = label_to_id
        self.max_sid = max(sids) if sids else 0
        self.sids = _np.asarray(sids, dtype=_np.int64)
        self.root_ids = _np.asarray(root_ids, dtype=_np.int64)
        self.leaf_sizes = _np.asarray(leaf_sizes, dtype=_np.int64)
        self.leaf_offsets = _np.asarray(leaf_offsets, dtype=_np.int64)
        self.leaf_ids = _np.asarray(leaf_ids, dtype=_np.int64)
        self.post_offsets = _np.asarray(post_offsets, dtype=_np.int64)
        self.post_rows = _np.asarray(post_rows, dtype=_np.int64)
        self.post_freqs = _np.asarray(post_freqs, dtype=_np.int64)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, index, generation: Optional[int] = None) -> "ColumnarCatalog":
        """Snapshot *index* (an in-memory or sqlite two-level index).

        Only the catalog surface is read (``live_sids`` + ``star``), so both
        backends columnarise identically.
        """
        if generation is None:
            generation = getattr(index, "generation", 0)
        catalog = index.catalog
        sids = sorted(catalog.live_sids())
        stars = [catalog.star(sid) for sid in sids]

        # Pass 1: the label vocabulary, interned in sorted order so that
        # id order coincides with the string order Star.leaves guarantees.
        vocabulary = set()
        for star in stars:
            vocabulary.add(star.root)
            vocabulary.update(star.leaves)
        label_to_id = {label: i for i, label in enumerate(sorted(vocabulary))}

        # Pass 2: the per-star CSR columns.
        root_ids: List[int] = []
        leaf_sizes: List[int] = []
        leaf_offsets: List[int] = [0]
        leaf_ids: List[int] = []
        per_label: Dict[int, List[Tuple[int, int]]] = {}
        for row, star in enumerate(stars):
            root_ids.append(label_to_id[star.root])
            leaf_sizes.append(star.leaf_size)
            leaf_ids.extend(label_to_id[leaf] for leaf in star.leaves)
            leaf_offsets.append(len(leaf_ids))
            for label, freq in Counter(star.leaves).items():
                per_label.setdefault(label_to_id[label], []).append((row, freq))

        # Pass 3: the label-keyed postings CSR (the ψ column).
        post_offsets: List[int] = [0]
        post_rows: List[int] = []
        post_freqs: List[int] = []
        for lid in range(len(label_to_id)):
            for row, freq in per_label.get(lid, ()):
                post_rows.append(row)
                post_freqs.append(freq)
            post_offsets.append(len(post_rows))

        return cls(
            generation,
            sids,
            root_ids,
            leaf_sizes,
            leaf_offsets,
            leaf_ids,
            post_offsets,
            post_rows,
            post_freqs,
            label_to_id,
        )

    @classmethod
    def from_columns(
        cls,
        generation: int,
        sids,
        root_ids,
        leaf_sizes,
        leaf_offsets,
        leaf_ids,
        post_offsets,
        post_rows,
        post_freqs,
        label_to_id: Dict[str, int],
        max_sid: int,
    ) -> "ColumnarCatalog":
        """Wrap already-built int64 columns without copying.

        ``repro.perf.diskcat`` hands in zero-copy numpy ``frombuffer``
        views over mapped pages, and :meth:`patched` its new arrays, each
        with the precomputed ``max_sid`` so nothing here walks the columns.
        Over a sidecar the kernels run directly on the mapped pages, which
        processes opening the same sidecar share.
        """
        snapshot = object.__new__(cls)
        snapshot.generation = generation
        snapshot.n_rows = len(sids)
        snapshot.label_to_id = label_to_id
        snapshot.max_sid = max_sid
        snapshot.sids = sids
        snapshot.root_ids = root_ids
        snapshot.leaf_sizes = leaf_sizes
        snapshot.leaf_offsets = leaf_offsets
        snapshot.leaf_ids = leaf_ids
        snapshot.post_offsets = post_offsets
        snapshot.post_rows = post_rows
        snapshot.post_freqs = post_freqs
        return snapshot

    def patched(self, index, changed, generation: int) -> "ColumnarCatalog":
        """This snapshot advanced to *generation* of *index*.

        *changed* holds every sid created or retired since this snapshot's
        generation (``index.star_changes``).  Their rows are dropped and the
        live ones re-read from the catalog; every other row is carried over,
        with label ids remapped and the postings CSR re-derived in numpy.
        The result equals :meth:`build` column for column.
        """
        catalog = index.catalog
        fresh: List[Tuple[int, Star]] = []
        for sid in sorted(changed):
            try:
                fresh.append((sid, catalog.star(sid)))
            except IndexCorruptionError:
                continue  # retired and not re-created
        changed_sids = _np.fromiter(changed, dtype=_np.int64, count=len(changed))
        kept_rows = _np.flatnonzero(~_np.isin(self.sids, changed_sids))
        kept_sids = self.sids[kept_rows]
        fresh_sids = _np.array([sid for sid, _ in fresh], dtype=_np.int64)
        # Both row sets ascend by sid: the fresh rows' final positions are
        # their insertion points among the kept rows, shifted by their rank.
        fresh_pos = _np.searchsorted(kept_sids, fresh_sids) + _np.arange(len(fresh))
        is_fresh = _np.zeros(len(kept_rows) + len(fresh), dtype=bool)
        is_fresh[fresh_pos] = True
        kept_pos = _np.flatnonzero(~is_fresh)

        kept_leaves = _segments(self.leaf_offsets, kept_rows)
        used = _np.zeros(len(self.label_to_id), dtype=bool)
        used[self.root_ids[kept_rows]] = True
        used[self.leaf_ids[kept_leaves]] = True
        fresh_labels = {star.root for _, star in fresh}
        for _, star in fresh:
            fresh_labels.update(star.leaves)
        label_to_id, remap = _revocabulary(self.label_to_id, used, fresh_labels)

        sids = _interleave(kept_pos, fresh_pos, kept_sids, fresh_sids)
        root_ids = _interleave(
            kept_pos,
            fresh_pos,
            remap[self.root_ids[kept_rows]],
            [label_to_id[star.root] for _, star in fresh],
        )
        leaf_sizes = _interleave(
            kept_pos,
            fresh_pos,
            self.leaf_sizes[kept_rows],
            [star.leaf_size for _, star in fresh],
        )
        leaf_offsets = _offsets(leaf_sizes)
        leaf_ids = _np.empty(int(leaf_offsets[-1]), dtype=_np.int64)
        leaf_ids[_segments(leaf_offsets, kept_pos)] = remap[self.leaf_ids[kept_leaves]]
        leaf_ids[_segments(leaf_offsets, fresh_pos)] = [
            label_to_id[leaf] for _, star in fresh for leaf in star.leaves
        ]

        # The label-keyed postings: a stable sort by label keeps rows
        # ascending, and a star's equal leaves stay adjacent, so each run
        # of equal (label, row) pairs is one posting and its length the
        # frequency.
        rows = _np.repeat(_np.arange(len(sids), dtype=_np.int64), leaf_sizes)
        by_label = _np.argsort(leaf_ids, kind="stable")
        lids, rows = leaf_ids[by_label], rows[by_label]
        starts = _np.flatnonzero(
            (_np.diff(lids, prepend=-1) != 0) | (_np.diff(rows, prepend=-1) != 0)
        )
        post_freqs = _np.diff(_np.append(starts, len(lids)))
        post_offsets = _offsets(_np.bincount(lids[starts], minlength=len(label_to_id)))
        return ColumnarCatalog.from_columns(
            generation,
            sids,
            root_ids,
            leaf_sizes,
            leaf_offsets,
            leaf_ids,
            post_offsets,
            rows[starts],
            post_freqs,
            label_to_id,
            int(sids[-1]) if len(sids) else 0,
        )

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def common_leaves_against_all(self, query: Star):
        """ψ against every row: vectorized multiset-intersection sizes.

        For each distinct query leaf label the label's postings column gives
        ``(row, freq)`` pairs; the star-side contribution is
        ``min(freq, query multiplicity)`` scattered into a ψ accumulator.
        Each row appears at most once per label, so the scatter is a plain
        fancy-indexed ``+=`` (no ``np.add.at`` needed).
        """
        psi = _np.zeros(self.n_rows, dtype=_np.int64)
        for label, count in query.leaf_counter().items():
            lid = self.label_to_id.get(label)
            if lid is None:
                continue
            lo = int(self.post_offsets[lid])
            hi = int(self.post_offsets[lid + 1])
            rows = self.post_rows[lo:hi]
            psi[rows] += _np.minimum(self.post_freqs[lo:hi], count)
        return psi

    def sed_against_all(self, query: Star):
        """Lemma 1 against every live star in one vectorized sweep.

        Returns an int64 ndarray parallel to :attr:`sids`, element-wise
        equal to ``star_edit_distance(query, catalog.star(sid))`` — a
        hypothesis property test pins this.
        """
        psi = self.common_leaves_against_all(query)
        lq = query.leaf_size
        rid = self.label_to_id.get(query.root, -1)
        t = (self.root_ids != rid).astype(_np.int64)
        sizes = self.leaf_sizes
        return t + 2 * _np.maximum(sizes, lq) - _np.minimum(sizes, lq) - psi

    def top_k(self, query: Star, k: int) -> Tuple[List[Tuple[int, int]], int]:
        """Full-scan top-k: the k smallest ``(sed, sid)`` pairs.

        Returns ``(entries, scan_width)`` where *entries* are ``(sid, sed)``
        sorted ascending by ``(sed, sid)`` — the same deterministic
        tie-break the TA backend's heap uses — and *scan_width* is the
        number of rows scored (the whole catalog).
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        n = self.n_rows
        if n == 0:
            return [], 0
        sed = self.sed_against_all(query)
        # Composite (sed, sid) key: sed is O(catalog max degree), sid is
        # dense, so the product stays far inside int64.
        key = sed * (self.max_sid + 1) + self.sids
        if k < n:
            picked = _np.argpartition(key, k - 1)[:k]
        else:
            picked = _np.arange(n)
        picked = picked[_np.argsort(key[picked])]
        return [(int(self.sids[i]), int(sed[i])) for i in picked], n


class GraphEmbeddings:
    """Per-graph label/degree embedding vectors for the ``embed`` tier.

    Each database graph is summarised by its vertex-label multiset (a CSR
    of ``(label id, multiplicity)`` pairs), its order, and its edge count.
    From these, :meth:`lower_bounds` evaluates the admissible bound

        ``max(|V_q|, |V_g|) − |Ψ(V_q) ∩ Ψ(V_g)| + | |E_q| − |E_g| |``

    (the A* root heuristic of :func:`repro.graphs.edit_distance`) against
    *every* graph in one vectorized sweep — a constant-time-per-graph
    pre-filter that runs before TA ever touches the index.  Bounds are
    independent of the label-id assignment (query labels outside the
    vocabulary simply contribute nothing to the intersection), so mapped
    and rebuilt embeddings score identically.

    Rows follow the engine's gid order.  Like :class:`ColumnarCatalog`,
    snapshots are immutable and keyed by the index generation counter;
    :meth:`from_columns` wraps zero-copy views over ``.segosx`` sections,
    and :meth:`patched` advances a snapshot past a batch of mutations.
    """

    __slots__ = (
        "generation",
        "n_graphs",
        "gids",
        "orders",
        "edges",
        "emb_offsets",
        "emb_lids",
        "emb_counts",
        "label_to_id",
    )

    def __init__(
        self,
        generation: int,
        gids: List[object],
        orders: List[int],
        edges: List[int],
        emb_offsets: List[int],
        emb_lids: List[int],
        emb_counts: List[int],
        label_to_id: Dict[str, int],
    ) -> None:
        self.generation = generation
        self.n_graphs = len(orders)
        self.gids = list(gids)
        self.label_to_id = label_to_id
        self.orders = _np.asarray(orders, dtype=_np.int64)
        self.edges = _np.asarray(edges, dtype=_np.int64)
        self.emb_offsets = _np.asarray(emb_offsets, dtype=_np.int64)
        self.emb_lids = _np.asarray(emb_lids, dtype=_np.int64)
        self.emb_counts = _np.asarray(emb_counts, dtype=_np.int64)

    @classmethod
    def build(cls, pairs, generation: int) -> "GraphEmbeddings":
        """Embed ``(gid, graph)`` *pairs* (in engine gid order)."""
        gids: List[object] = []
        orders: List[int] = []
        edges: List[int] = []
        multisets: List[List[Tuple[str, int]]] = []
        vocabulary = set()
        for gid, graph in pairs:
            gids.append(gid)
            orders.append(graph.order)
            edges.append(graph.size)
            counts = sorted(Counter(graph.label_multiset()).items())
            multisets.append(counts)
            vocabulary.update(label for label, _ in counts)
        label_to_id = {label: i for i, label in enumerate(sorted(vocabulary))}
        emb_offsets: List[int] = [0]
        emb_lids: List[int] = []
        emb_counts: List[int] = []
        for counts in multisets:
            for label, freq in counts:
                emb_lids.append(label_to_id[label])
                emb_counts.append(freq)
            emb_offsets.append(len(emb_lids))
        return cls(
            generation,
            gids,
            orders,
            edges,
            emb_offsets,
            emb_lids,
            emb_counts,
            label_to_id,
        )

    @classmethod
    def from_columns(
        cls,
        generation: int,
        gids,
        orders,
        edges,
        emb_offsets,
        emb_lids,
        emb_counts,
        label_to_id: Dict[str, int],
    ) -> "GraphEmbeddings":
        """Wrap already-built int64 columns (mapped views or a patch's
        arrays) without copying."""
        snapshot = object.__new__(cls)
        snapshot.generation = generation
        snapshot.n_graphs = len(orders)
        snapshot.gids = gids
        snapshot.label_to_id = label_to_id
        snapshot.orders = orders
        snapshot.edges = edges
        snapshot.emb_offsets = emb_offsets
        snapshot.emb_lids = emb_lids
        snapshot.emb_counts = emb_counts
        return snapshot

    def patched(self, graphs, changed, generation: int) -> "GraphEmbeddings":
        """These embeddings advanced to *generation* of the engine's *graphs*.

        *graphs* is the engine's ``gid → Graph`` mapping, whose iteration
        order is the row order; *changed* holds every gid added, removed
        or updated since this snapshot's generation.  Only those graphs are
        re-embedded (and only they are read from *graphs*); every other row
        is carried over, with label ids remapped in numpy.  The result
        equals :meth:`build` over ``graphs.items()`` column for column.
        """
        old_row = {gid: row for row, gid in enumerate(self.gids)}
        gids = list(graphs)
        kept_pos: List[int] = []
        kept_rows: List[int] = []
        fresh_pos: List[int] = []
        fresh = []
        for pos, gid in enumerate(gids):
            row = None if gid in changed else old_row.get(gid)
            if row is None:
                graph = graphs[gid]
                fresh_pos.append(pos)
                fresh.append(
                    (graph, sorted(Counter(graph.label_multiset()).items()))
                )
            else:
                kept_pos.append(pos)
                kept_rows.append(row)
        kept_rows_arr = _np.array(kept_rows, dtype=_np.int64)
        kept_pos_arr = _np.array(kept_pos, dtype=_np.int64)
        fresh_pos_arr = _np.array(fresh_pos, dtype=_np.int64)

        kept_entries = _segments(self.emb_offsets, kept_rows_arr)
        used = _np.zeros(len(self.label_to_id), dtype=bool)
        used[self.emb_lids[kept_entries]] = True
        label_to_id, remap = _revocabulary(
            self.label_to_id,
            used,
            {label for _, counts in fresh for label, _ in counts},
        )
        lengths = _interleave(
            kept_pos_arr,
            fresh_pos_arr,
            _np.diff(self.emb_offsets)[kept_rows_arr],
            [len(counts) for _, counts in fresh],
        )
        emb_offsets = _offsets(lengths)
        kept_at = _segments(emb_offsets, kept_pos_arr)
        fresh_at = _segments(emb_offsets, fresh_pos_arr)
        emb_lids = _np.empty(int(emb_offsets[-1]), dtype=_np.int64)
        emb_lids[kept_at] = remap[self.emb_lids[kept_entries]]
        emb_lids[fresh_at] = [
            label_to_id[label] for _, counts in fresh for label, _ in counts
        ]
        emb_counts = _np.empty(len(emb_lids), dtype=_np.int64)
        emb_counts[kept_at] = self.emb_counts[kept_entries]
        emb_counts[fresh_at] = [freq for _, counts in fresh for _, freq in counts]
        return GraphEmbeddings.from_columns(
            generation,
            gids,
            _interleave(
                kept_pos_arr,
                fresh_pos_arr,
                self.orders[kept_rows_arr],
                [graph.order for graph, _ in fresh],
            ),
            _interleave(
                kept_pos_arr,
                fresh_pos_arr,
                self.edges[kept_rows_arr],
                [graph.size for graph, _ in fresh],
            ),
            emb_offsets,
            emb_lids,
            emb_counts,
            label_to_id,
        )

    def lower_bounds(self, query):
        """The embedding GED lower bound against every graph, in row order.

        Returns an int64 ndarray, element-wise equal to
        :func:`repro.graphs.edit_distance.trivial_lower_bound` between the
        query and each database graph — the soundness test pins this.
        """
        qvec = _np.zeros(len(self.label_to_id) + 1, dtype=_np.int64)
        for label, count in Counter(query.label_multiset()).items():
            lid = self.label_to_id.get(label)
            if lid is not None:
                qvec[lid] = count
        terms = _np.minimum(self.emb_counts, qvec[self.emb_lids])
        prefix = _np.zeros(len(terms) + 1, dtype=_np.int64)
        _np.cumsum(terms, out=prefix[1:])
        common = prefix[self.emb_offsets[1:]] - prefix[self.emb_offsets[:-1]]
        return (
            _np.maximum(self.orders, query.order)
            - common
            + _np.abs(self.edges - query.size)
        )


def columnar_snapshot(index) -> Optional["ColumnarCatalog"]:
    """The current columnar mirror of *index*, patched lazily on mutation.

    Returns ``None`` for index objects that do not expose a ``generation``
    counter (nothing in-tree — both backends do — but duck-typed stand-ins
    used in tests may not).  The snapshot is cached on the index object.
    When the index moved on, the cached snapshot is patched with the star
    ids in ``index.star_changes`` if that record starts at the cached
    generation, and rebuilt otherwise; the record then restarts.
    """
    generation = getattr(index, "generation", None)
    if generation is None:
        return None
    # Read the record before the snapshot and publish the snapshot before
    # the new record: a reader racing another then either patches from a
    # matching pair or sees a mismatch and rebuilds.
    changes = getattr(index, "star_changes", None)
    snapshot = getattr(index, "_columnar_snapshot", None)
    if snapshot is not None and snapshot.generation == generation:
        return snapshot
    if (
        snapshot is not None
        and changes is not None
        and changes.base == snapshot.generation
    ):
        snapshot = snapshot.patched(index, changes.ids, generation)
    else:
        snapshot = ColumnarCatalog.build(index, generation)
    try:
        index._columnar_snapshot = snapshot
        if changes is not None:
            from ..core.index import ChangeSet

            index.star_changes = ChangeSet(generation)
    except AttributeError:  # pragma: no cover - slotted stand-ins
        pass
    return snapshot
