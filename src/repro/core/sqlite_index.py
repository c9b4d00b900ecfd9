"""Relational (SQLite) backend for the two-level inverted index.

Section IV-C: "such inverted indexes can be implemented either with a
special purpose inverted list engine or in commercial relational database
systems … building on various query optimization, concurrency control
techniques".  :class:`SqliteTwoLevelIndex` is that second option, over the
standard library's ``sqlite3``: both index levels live in B-tree-backed
tables, every Op1–Op4 primitive is one or two indexed statements (the
O(log N) page-access cost the paper quotes), and sorted-list reads are
``ORDER BY`` scans over covering indexes.

The class exposes the same surface as the in-memory
:class:`repro.core.index.TwoLevelIndex` — including the ``catalog`` /
``upper`` / ``lower`` sub-objects the TA/CA algorithms touch — so
:class:`repro.core.engine.SegosIndex` can run unmodified on either backend
(``SegosIndex(backend="sqlite")``); an equivalence test drives both with
the same workload.

Schema::

    stars(sid PK, root, leaves, leaf_size, refcount)   -- the star catalog
    star_leaves(sid, label, freq)                      -- lower-level postings
    graphs(gid PK, ord, max_degree)                    -- graph metadata
    upper(sid, gid, freq, ord)                         -- upper-level postings
    graph_stars(gid, sid, cnt)                         -- S(g) multisets

A star's leaves are stored as a JSON array of labels, so any label the
transaction format allows (``,`` and ``|`` included) round-trips.
"""

from __future__ import annotations

import json
import sqlite3
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import (
    GraphAlreadyIndexed,
    GraphNotIndexed,
    IndexCorruptionError,
)
from ..graphs.model import Graph
from ..graphs.star import Star
from .index import ChangeSet, GraphMeta, LowerEntry, UpperEntry, order_cut

_SCHEMA = """
CREATE TABLE IF NOT EXISTS stars (
    sid INTEGER PRIMARY KEY,
    root TEXT NOT NULL,
    leaves TEXT NOT NULL,
    leaf_size INTEGER NOT NULL,
    refcount INTEGER NOT NULL,
    UNIQUE (root, leaves)
);
CREATE TABLE IF NOT EXISTS star_leaves (
    sid INTEGER NOT NULL,
    label TEXT NOT NULL,
    freq INTEGER NOT NULL,
    PRIMARY KEY (label, sid)
);
CREATE INDEX IF NOT EXISTS star_leaves_by_sid ON star_leaves (sid);
CREATE TABLE IF NOT EXISTS graphs (
    gid TEXT PRIMARY KEY,
    ord INTEGER NOT NULL,
    max_degree INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS upper_postings (
    sid INTEGER NOT NULL,
    gid TEXT NOT NULL,
    freq INTEGER NOT NULL,
    ord INTEGER NOT NULL,
    PRIMARY KEY (sid, gid)
);
CREATE INDEX IF NOT EXISTS upper_by_sid_order ON upper_postings (sid, ord, gid);
CREATE TABLE IF NOT EXISTS graph_stars (
    gid TEXT NOT NULL,
    sid INTEGER NOT NULL,
    cnt INTEGER NOT NULL,
    PRIMARY KEY (gid, sid)
);
"""


def _encode_leaves(star: Star) -> str:
    # A JSON array: unlike a joined string, no label can make two leaf
    # tuples encode alike, so ``UNIQUE (root, leaves)`` keys by Star.key.
    return json.dumps(star.leaves, ensure_ascii=False)


def _decode_star(root: str, leaves: str) -> Star:
    return Star(root, json.loads(leaves))


class _SqliteCatalog:
    """Star-catalog facade over the ``stars`` table."""

    def __init__(self, conn: sqlite3.Connection) -> None:
        self._conn = conn

    def __len__(self) -> int:
        (count,) = self._conn.execute(
            "SELECT COUNT(*) FROM stars WHERE refcount > 0"
        ).fetchone()
        return count

    def star(self, sid: int) -> Star:
        row = self._conn.execute(
            "SELECT root, leaves FROM stars WHERE sid = ? AND refcount > 0", (sid,)
        ).fetchone()
        if row is None:
            raise IndexCorruptionError(f"star id {sid} is not live")
        return _decode_star(*row)

    def sid(self, star: Star) -> Optional[int]:
        row = self._conn.execute(
            "SELECT sid FROM stars WHERE root = ? AND leaves = ? AND refcount > 0",
            (star.root, _encode_leaves(star)),
        ).fetchone()
        return row[0] if row else None

    def live_sids(self) -> List[int]:
        return [
            sid
            for (sid,) in self._conn.execute(
                "SELECT sid FROM stars WHERE refcount > 0 ORDER BY sid"
            )
        ]


class _SqliteUpper:
    """Upper-level facade over ``upper_postings``."""

    def __init__(self, conn: sqlite3.Connection) -> None:
        self._conn = conn

    def postings(self, sid: int) -> List[UpperEntry]:
        return [
            UpperEntry(gid, freq, order)
            for gid, freq, order in self._conn.execute(
                "SELECT gid, freq, ord FROM upper_postings WHERE sid = ? "
                "ORDER BY ord, gid",
                (sid,),
            )
        ]

    def cut(self, sid: int, order: int) -> Tuple[List[UpperEntry], int]:
        """One size-ordered read of *sid*'s postings, and the ``≤ order`` boundary."""
        postings = self.postings(sid)
        return postings, order_cut(postings, order)

    def split_by_order(
        self, sid: int, order: int
    ) -> Tuple[List[UpperEntry], List[UpperEntry]]:
        postings, cut = self.cut(sid, order)
        return postings[:cut], postings[cut:]

    def stats(self) -> Tuple[int, int]:
        (lists,) = self._conn.execute(
            "SELECT COUNT(DISTINCT sid) FROM upper_postings"
        ).fetchone()
        (total,) = self._conn.execute("SELECT COUNT(*) FROM upper_postings").fetchone()
        return lists, total


class _SqliteLower:
    """Lower-level facade over ``star_leaves`` joined with ``stars``."""

    def __init__(self, conn: sqlite3.Connection) -> None:
        self._conn = conn

    def label_list(self, label: str) -> List[LowerEntry]:
        return [
            LowerEntry(sid, freq, leaf_size)
            for sid, freq, leaf_size in self._conn.execute(
                "SELECT sl.sid, sl.freq, s.leaf_size FROM star_leaves sl "
                "JOIN stars s ON s.sid = sl.sid "
                "WHERE sl.label = ? AND s.refcount > 0 "
                "ORDER BY s.leaf_size, sl.freq DESC, sl.sid",
                (label,),
            )
        ]

    def split_label_list(
        self, label: str, leaf_size: int
    ) -> Tuple[List[List[LowerEntry]], List[List[LowerEntry]]]:
        def group(rows: Iterable[Tuple[int, int, int]]) -> List[List[LowerEntry]]:
            groups: List[List[LowerEntry]] = []
            for sid, freq, size in rows:
                entry = LowerEntry(sid, freq, size)
                if groups and groups[-1][0].leaf_size == size:
                    groups[-1].append(entry)
                else:
                    groups.append([entry])
            return groups

        low = group(
            self._conn.execute(
                "SELECT sl.sid, sl.freq, s.leaf_size FROM star_leaves sl "
                "JOIN stars s ON s.sid = sl.sid "
                "WHERE sl.label = ? AND s.refcount > 0 AND s.leaf_size <= ? "
                "ORDER BY s.leaf_size, sl.freq DESC, sl.sid",
                (label, leaf_size),
            )
        )
        high = group(
            self._conn.execute(
                "SELECT sl.sid, sl.freq, s.leaf_size FROM star_leaves sl "
                "JOIN stars s ON s.sid = sl.sid "
                "WHERE sl.label = ? AND s.refcount > 0 AND s.leaf_size > ? "
                "ORDER BY s.leaf_size, sl.freq DESC, sl.sid",
                (label, leaf_size),
            )
        )
        return low, high

    def split_size_list(
        self, leaf_size: int
    ) -> Tuple[List[LowerEntry], List[LowerEntry]]:
        low = [
            LowerEntry(sid, 0, size)
            for sid, size in self._conn.execute(
                "SELECT sid, leaf_size FROM stars "
                "WHERE refcount > 0 AND leaf_size <= ? "
                "ORDER BY leaf_size DESC, sid DESC",
                (leaf_size,),
            )
        ]
        high = [
            LowerEntry(sid, 0, size)
            for sid, size in self._conn.execute(
                "SELECT sid, leaf_size FROM stars "
                "WHERE refcount > 0 AND leaf_size > ? "
                "ORDER BY leaf_size, sid",
                (leaf_size,),
            )
        ]
        return low, high

    def stats(self) -> Tuple[int, int]:
        (labels,) = self._conn.execute(
            "SELECT COUNT(DISTINCT sl.label) FROM star_leaves sl "
            "JOIN stars s ON s.sid = sl.sid WHERE s.refcount > 0"
        ).fetchone()
        (postings,) = self._conn.execute(
            "SELECT COUNT(*) FROM star_leaves sl "
            "JOIN stars s ON s.sid = sl.sid WHERE s.refcount > 0"
        ).fetchone()
        (size_entries,) = self._conn.execute(
            "SELECT COUNT(*) FROM stars WHERE refcount > 0"
        ).fetchone()
        return labels, postings + size_entries


class SqliteTwoLevelIndex:
    """Drop-in relational implementation of the two-level index.

    Parameters
    ----------
    path:
        SQLite database path, or ``":memory:"`` (the default) for an
        in-process database.
    """

    def __init__(self, path: str = ":memory:") -> None:
        self._conn = sqlite3.connect(path)
        self._conn.executescript(_SCHEMA)
        self.catalog = _SqliteCatalog(self._conn)
        self.upper = _SqliteUpper(self._conn)
        self.lower = _SqliteLower(self._conn)
        #: Mutation counter mirroring :attr:`TwoLevelIndex.generation`; the
        #: columnar snapshot cache keys on it (see repro.perf.columnar).
        self.generation = 0
        #: Star ids created, resurrected or retired since the cached
        #: columnar snapshot.
        self.star_changes = ChangeSet(0)

    def close(self) -> None:
        self._conn.close()

    # ------------------------------------------------------------------
    # Introspection (mirrors TwoLevelIndex)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        (count,) = self._conn.execute("SELECT COUNT(*) FROM graphs").fetchone()
        return count

    def __contains__(self, gid: object) -> bool:
        return (
            self._conn.execute(
                "SELECT 1 FROM graphs WHERE gid = ?", (str(gid),)
            ).fetchone()
            is not None
        )

    def gids(self) -> List[str]:
        return [
            gid for (gid,) in self._conn.execute("SELECT gid FROM graphs ORDER BY gid")
        ]

    def meta(self, gid: object) -> GraphMeta:
        row = self._conn.execute(
            "SELECT ord, max_degree FROM graphs WHERE gid = ?", (str(gid),)
        ).fetchone()
        if row is None:
            raise GraphNotIndexed(gid)
        return GraphMeta(*row)

    def graph_star_counts(self, gid: object) -> Counter:
        if str(gid) not in self:
            raise GraphNotIndexed(gid)
        return Counter(
            {
                sid: cnt
                for sid, cnt in self._conn.execute(
                    "SELECT sid, cnt FROM graph_stars WHERE gid = ?", (str(gid),)
                )
            }
        )

    def database_max_degree(self) -> int:
        (value,) = self._conn.execute(
            "SELECT COALESCE(MAX(max_degree), 0) FROM graphs"
        ).fetchone()
        return value

    def size_estimate(self) -> int:
        _, upper_total = self.upper.stats()
        _, lower_total = self.lower.stats()
        return upper_total + lower_total + len(self.catalog)

    # ------------------------------------------------------------------
    # Star bookkeeping
    # ------------------------------------------------------------------
    def _acquire_star(self, star: Star, count: int = 1) -> int:
        leaves = _encode_leaves(star)
        row = self._conn.execute(
            "SELECT sid, refcount FROM stars WHERE root = ? AND leaves = ?",
            (star.root, leaves),
        ).fetchone()
        if row is not None:
            sid, refcount = row
            if refcount == 0:
                # Op4: the star is resurrected — re-add its label postings.
                self._insert_leaves(sid, star)
            self._conn.execute(
                "UPDATE stars SET refcount = refcount + ? WHERE sid = ?", (count, sid)
            )
            return sid
        cursor = self._conn.execute(
            "INSERT INTO stars (root, leaves, leaf_size, refcount) VALUES (?, ?, ?, ?)",
            (star.root, leaves, star.leaf_size, count),
        )
        sid = cursor.lastrowid
        self._insert_leaves(sid, star)
        return sid

    def _insert_leaves(self, sid: int, star: Star) -> None:
        self.star_changes.ids.add(sid)
        self._conn.executemany(
            "INSERT INTO star_leaves (sid, label, freq) VALUES (?, ?, ?)",
            [(sid, label, freq) for label, freq in Counter(star.leaves).items()],
        )

    def _release_star(self, sid: int, count: int = 1) -> None:
        row = self._conn.execute(
            "SELECT refcount FROM stars WHERE sid = ?", (sid,)
        ).fetchone()
        if row is None or row[0] < count:
            raise IndexCorruptionError(f"over-release of star {sid}")
        self._conn.execute(
            "UPDATE stars SET refcount = refcount - ? WHERE sid = ?", (count, sid)
        )
        if row[0] == count:
            # Op4: dead star — drop its lower-level postings.
            self._conn.execute("DELETE FROM star_leaves WHERE sid = ?", (sid,))
            self.star_changes.ids.add(sid)

    # ------------------------------------------------------------------
    # Graph updates (mirrors TwoLevelIndex)
    # ------------------------------------------------------------------
    def add_graph(self, gid: object, graph: Graph, stars: Sequence[Star]) -> None:
        gid = str(gid)
        if gid in self:
            raise GraphAlreadyIndexed(gid)
        self.generation += 1
        with self._conn:
            self._conn.execute(
                "INSERT INTO graphs (gid, ord, max_degree) VALUES (?, ?, ?)",
                (gid, graph.order, graph.max_degree()),
            )
            counts: Counter = Counter()
            for star in stars:
                counts[self._acquire_star(star)] += 1
            self._conn.executemany(
                "INSERT INTO graph_stars (gid, sid, cnt) VALUES (?, ?, ?)",
                [(gid, sid, cnt) for sid, cnt in counts.items()],
            )
            self._conn.executemany(
                "INSERT INTO upper_postings (sid, gid, freq, ord) VALUES (?, ?, ?, ?)",
                [(sid, gid, cnt, graph.order) for sid, cnt in counts.items()],
            )

    def remove_graph(self, gid: object) -> None:
        gid = str(gid)
        if gid not in self:
            raise GraphNotIndexed(gid)
        self.generation += 1
        with self._conn:
            for sid, cnt in self._conn.execute(
                "SELECT sid, cnt FROM graph_stars WHERE gid = ?", (gid,)
            ).fetchall():
                self._release_star(sid, cnt)
            self._conn.execute("DELETE FROM upper_postings WHERE gid = ?", (gid,))
            self._conn.execute("DELETE FROM graph_stars WHERE gid = ?", (gid,))
            self._conn.execute("DELETE FROM graphs WHERE gid = ?", (gid,))

    def apply_star_delta(
        self,
        gid: object,
        removed: Sequence[Star],
        added: Sequence[Star],
        new_meta: GraphMeta,
    ) -> None:
        gid = str(gid)
        if gid not in self:
            raise GraphNotIndexed(gid)
        self.generation += 1
        with self._conn:
            for star in removed:
                sid = self.catalog.sid(star)
                row = (
                    self._conn.execute(
                        "SELECT cnt FROM graph_stars WHERE gid = ? AND sid = ?",
                        (gid, sid),
                    ).fetchone()
                    if sid is not None
                    else None
                )
                if sid is None or row is None or row[0] <= 0:
                    raise IndexCorruptionError(
                        f"graph {gid!r} does not contain star {star.signature!r}"
                    )
                if row[0] == 1:
                    self._conn.execute(
                        "DELETE FROM graph_stars WHERE gid = ? AND sid = ?", (gid, sid)
                    )
                    self._conn.execute(
                        "DELETE FROM upper_postings WHERE gid = ? AND sid = ?",
                        (gid, sid),
                    )
                else:
                    self._conn.execute(
                        "UPDATE graph_stars SET cnt = cnt - 1 WHERE gid = ? AND sid = ?",
                        (gid, sid),
                    )
                    self._conn.execute(
                        "UPDATE upper_postings SET freq = freq - 1 "
                        "WHERE gid = ? AND sid = ?",
                        (gid, sid),
                    )
                self._release_star(sid)
            for star in added:
                sid = self._acquire_star(star)
                existing = self._conn.execute(
                    "SELECT cnt FROM graph_stars WHERE gid = ? AND sid = ?",
                    (gid, sid),
                ).fetchone()
                if existing is None:
                    self._conn.execute(
                        "INSERT INTO graph_stars (gid, sid, cnt) VALUES (?, ?, 1)",
                        (gid, sid),
                    )
                    self._conn.execute(
                        "INSERT INTO upper_postings (sid, gid, freq, ord) "
                        "VALUES (?, ?, 1, ?)",
                        (sid, gid, new_meta.order),
                    )
                else:
                    self._conn.execute(
                        "UPDATE graph_stars SET cnt = cnt + 1 WHERE gid = ? AND sid = ?",
                        (gid, sid),
                    )
                    self._conn.execute(
                        "UPDATE upper_postings SET freq = freq + 1 "
                        "WHERE gid = ? AND sid = ?",
                        (gid, sid),
                    )
            self._conn.execute(
                "UPDATE upper_postings SET ord = ? WHERE gid = ?",
                (new_meta.order, gid),
            )
            self._conn.execute(
                "UPDATE graphs SET ord = ?, max_degree = ? WHERE gid = ?",
                (new_meta.order, new_meta.max_degree, gid),
            )

    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Cross-check postings against the graph-star multisets."""
        for gid in self.gids():
            meta = self.meta(gid)
            for sid, cnt in self.graph_star_counts(gid).items():
                row = self._conn.execute(
                    "SELECT freq, ord FROM upper_postings WHERE sid = ? AND gid = ?",
                    (sid, gid),
                ).fetchone()
                if row is None or row[0] != cnt or row[1] != meta.order:
                    raise IndexCorruptionError(
                        f"upper posting mismatch for graph {gid!r}, star {sid}"
                    )
        for sid in self.catalog.live_sids():
            star = self.catalog.star(sid)
            stored = {
                label: freq
                for label, freq in self._conn.execute(
                    "SELECT label, freq FROM star_leaves WHERE sid = ?", (sid,)
                )
            }
            if stored != dict(Counter(star.leaves)):
                raise IndexCorruptionError(f"lower postings mismatch for star {sid}")
