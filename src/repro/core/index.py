"""The two-level inverted index of SEGOS (Section IV).

**Upper level** (Figure 5): one inverted list per *distinct star*;
each entry is ``(gid, freq)`` — frequency of that star in the graph — and
lists are sorted by increasing graph size (then gid, for determinism).

**Lower level** (Figure 6): one inverted list per *leaf label*; each entry
is ``(sid, freq)`` — frequency of the label among the star's leaves.
Entries are grouped by increasing leaf size and sorted by decreasing
frequency inside a group; a per-label boundary array (the paper's ``AL``)
marks where each size group starts.  An extra *size list* holds every star
sorted by increasing leaf size.

Both levels are plain inverted indexes, so the seven update kinds of
Section IV-C reduce to the four primitive operations Op1–Op4 (posting
insertion/removal, list creation/removal).  To keep updates O(1) the upper
postings are stored as dictionaries and the sorted views are materialised
lazily: every mutation flips a dirty flag and the next read rebuilds the
affected sorted list.  This gives the same asymptotics as the B-tree-backed
engine the paper assumes while staying honest about Python's strengths.
The lower level is a function of the star catalog alone, and only TA
search reads it, so it is not maintained at all: it is derived from the
live stars on first read and dropped when a star is created or retired.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import GraphAlreadyIndexed, GraphNotIndexed, IndexCorruptionError
from ..graphs.model import Graph
from ..graphs.star import Star, StarKey


@dataclass(frozen=True)
class GraphMeta:
    """Per-graph metadata kept alongside the postings."""

    order: int
    max_degree: int


@dataclass(frozen=True)
class UpperEntry:
    """Upper-level posting: graph id and star frequency within it."""

    gid: object
    freq: int
    order: int  # graph size, the sort key of upper-level lists


@dataclass(frozen=True)
class LowerEntry:
    """Lower-level posting: star id and label frequency among its leaves."""

    sid: int
    freq: int
    leaf_size: int


class ChangeSet:
    """Ids changed since the snapshot of generation :attr:`base` was taken.

    The snapshot caches of :mod:`repro.perf.columnar` patch the snapshot of
    generation ``base`` with these ids instead of rebuilding it, then start
    a fresh set at the new generation.  A set, not a log, so it holds each
    id at most once.  Star ids are reused (from the catalog's free list,
    or by resurrecting a dead star's row), so an index's record stays
    within the largest its catalog has been; the engine caps its gid
    record at the engine's size (``SegosIndex._record_change``).
    """

    __slots__ = ("base", "ids")

    def __init__(self, base: int) -> None:
        self.base = base
        self.ids: Set[object] = set()


class StarCatalog:
    """Registry of the distinct stars seen across the database.

    Star ids are dense ints assigned on first sight and *retired* (pushed on
    a free list) when their last occurrence disappears, so long-lived indexes
    with churn do not leak ids.
    """

    def __init__(self) -> None:
        self._stars: List[Optional[Star]] = []
        self._sid_by_key: Dict[StarKey, int] = {}
        self._refcount: List[int] = []
        self._free: List[int] = []

    def __len__(self) -> int:
        return len(self._sid_by_key)

    def star(self, sid: int) -> Star:
        """Return the star for *sid*."""
        star = self._stars[sid] if 0 <= sid < len(self._stars) else None
        if star is None:
            raise IndexCorruptionError(f"star id {sid} is not live")
        return star

    def sid(self, star: Star) -> Optional[int]:
        """Return the id of *star*, or None if it is not in the catalog."""
        return self._sid_by_key.get(star.key)

    def live_sids(self) -> List[int]:
        """All currently live star ids."""
        return list(self._sid_by_key.values())

    def acquire(self, star: Star, count: int = 1) -> Tuple[int, bool]:
        """Add *count* references to *star*; return ``(sid, created)``."""
        sid = self._sid_by_key.get(star.key)
        if sid is not None:
            self._refcount[sid] += count
            return sid, False
        if self._free:
            sid = self._free.pop()
            self._stars[sid] = star
            self._refcount[sid] = count
        else:
            sid = len(self._stars)
            self._stars.append(star)
            self._refcount.append(count)
        self._sid_by_key[star.key] = sid
        return sid, True

    def release(self, sid: int, count: int = 1) -> bool:
        """Drop *count* references; return True when the star died."""
        if self._refcount[sid] < count:
            raise IndexCorruptionError(
                f"releasing {count} refs from star {sid} holding {self._refcount[sid]}"
            )
        self._refcount[sid] -= count
        if self._refcount[sid] == 0:
            star = self._stars[sid]
            assert star is not None
            del self._sid_by_key[star.key]
            self._stars[sid] = None
            self._free.append(sid)
            return True
        return False


# Sort keys are module-level functions: the mapped index's promotion
# (repro.perf.diskcat) fills the upper lists directly and shares their key.
def _upper_sort_key(entry: UpperEntry) -> Tuple[int, str]:
    return (entry.order, str(entry.gid))


def _size_sort_key(entry: LowerEntry) -> Tuple[int, int]:
    return (entry.leaf_size, entry.sid)


def _lower_sort_key(entry: LowerEntry) -> Tuple[int, int, int]:
    # Group by leaf size asc; inside a group frequency desc, then sid asc
    # for determinism (Figure 6's order).
    return (entry.leaf_size, -entry.freq, entry.sid)


def order_cut(entries: Sequence[UpperEntry], order: int) -> int:
    """First position in size-sorted *entries* whose graph is larger than *order*.

    The O(log |GL|) boundary search of Section V-B.  It probes ``.order``
    directly, so no key column is built.
    """
    lo, hi = 0, len(entries)
    while lo < hi:
        mid = (lo + hi) // 2
        if entries[mid].order <= order:
            lo = mid + 1
        else:
            hi = mid
    return lo


class _LazySortedList:
    """A dict of postings with a lazily rebuilt sorted materialisation."""

    __slots__ = ("data", "_view", "_key")

    def __init__(self, key) -> None:
        self.data: Dict[object, object] = {}
        self._view: Optional[List[object]] = None
        self._key = key

    def invalidate(self) -> None:
        self._view = None

    def view(self) -> List[object]:
        if self._view is None:
            self._view = sorted(self.data.values(), key=self._key)
        return self._view


class UpperLevelIndex:
    """Star id → graph postings, sorted by increasing graph size."""

    def __init__(self) -> None:
        self._lists: Dict[int, _LazySortedList] = {}

    def __contains__(self, sid: int) -> bool:
        return sid in self._lists

    def sids(self) -> Iterable[int]:
        return self._lists.keys()

    def add(self, sid: int, gid: object, freq: int, order: int) -> None:
        """Op1/Op3: insert a posting, creating the list if needed."""
        postings = self._lists.get(sid)
        if postings is None:
            postings = self._lists[sid] = _LazySortedList(key=_upper_sort_key)
        if gid in postings.data:
            raise IndexCorruptionError(f"duplicate upper posting ({sid}, {gid})")
        postings.data[gid] = UpperEntry(gid, freq, order)
        postings.invalidate()

    def remove(self, sid: int, gid: object) -> None:
        """Op1/Op3: remove a posting, dropping the list when it empties."""
        postings = self._lists.get(sid)
        if postings is None or gid not in postings.data:
            raise IndexCorruptionError(f"missing upper posting ({sid}, {gid})")
        del postings.data[gid]
        if postings.data:
            postings.invalidate()
        else:
            del self._lists[sid]

    def postings(self, sid: int) -> List[UpperEntry]:
        """Sorted postings for *sid* (empty list if unknown)."""
        postings = self._lists.get(sid)
        return list(postings.view()) if postings is not None else []

    def cut(self, sid: int, order: int) -> Tuple[Sequence[UpperEntry], int]:
        """The size-sorted postings of *sid* and the end of its ``≤ order`` prefix.

        Nothing is copied: the postings are the cached sorted view, which a
        later mutation replaces rather than edits, so a caller holding it
        keeps reading the postings of the moment it asked.
        """
        postings = self._lists.get(sid)
        if postings is None:
            return (), 0
        entries = postings.view()
        return entries, order_cut(entries, order)

    def split_by_order(
        self, sid: int, order: int
    ) -> Tuple[List[UpperEntry], List[UpperEntry]]:
        """Copies of *sid*'s postings split into (size ≤ order, size > order)."""
        postings, cut = self.cut(sid, order)
        return list(postings[:cut]), list(postings[cut:])

    def stats(self) -> Tuple[int, int]:
        """Return ``(number of lists, total postings)``."""
        total = sum(len(lst.data) for lst in self._lists.values())
        return len(self._lists), total


class LowerLevelIndex:
    """Leaf label → star postings grouped by leaf size, plus the size list.

    A read-side view derived from the catalog's live stars rather than a
    maintained structure: only TA search (Alg. 2), subgraph search and
    :meth:`TwoLevelIndex.size_estimate` read it, so mutations do no
    upkeep here.  The first read builds every list in one pass; the index
    calls :meth:`invalidate` whenever a star is created or retired, and
    the next read derives the lists afresh.  Each list is sorted by a
    total key, so its order does not depend on the order in which the
    stars were created.
    """

    def __init__(self, catalog: StarCatalog) -> None:
        self._catalog = catalog
        # (label -> grouped list, size list), or None until the next read.
        self._view: Optional[
            Tuple[Dict[str, List[LowerEntry]], List[LowerEntry]]
        ] = None

    def invalidate(self) -> None:
        """Drop the derived lists: the set of live stars changed."""
        self._view = None

    def _derived(self) -> Tuple[Dict[str, List[LowerEntry]], List[LowerEntry]]:
        view = self._view
        if view is None:
            lists: Dict[str, List[LowerEntry]] = {}
            size_list: List[LowerEntry] = []
            catalog = self._catalog
            for sid in catalog.live_sids():
                star = catalog.star(sid)
                size = star.leaf_size
                size_list.append(LowerEntry(sid, 0, size))
                for label, freq in Counter(star.leaves).items():
                    lists.setdefault(label, []).append(LowerEntry(sid, freq, size))
            for postings in lists.values():
                postings.sort(key=_lower_sort_key)
            size_list.sort(key=_size_sort_key)
            view = self._view = (lists, size_list)
        return view

    def labels(self) -> Iterable[str]:
        return self._derived()[0].keys()

    def label_list(self, label: str) -> List[LowerEntry]:
        """Full grouped list under *label* (empty if unknown)."""
        return list(self._derived()[0].get(label, ()))

    def split_label_list(
        self, label: str, leaf_size: int
    ) -> Tuple[List[List[LowerEntry]], List[List[LowerEntry]]]:
        """Size-split groups under *label*: (groups ≤ leaf_size, groups >).

        Each returned group is frequency-descending; the boundary lookup is
        the O(log |AL|) step of Section V-A.
        """
        groups: List[List[LowerEntry]] = []
        for entry in self._derived()[0].get(label, ()):
            if groups and groups[-1][0].leaf_size == entry.leaf_size:
                groups[-1].append(entry)
            else:
                groups.append([entry])
        boundary = bisect_right([g[0].leaf_size for g in groups], leaf_size)
        return groups[:boundary], groups[boundary:]

    def split_size_list(
        self, leaf_size: int
    ) -> Tuple[List[LowerEntry], List[LowerEntry]]:
        """Split the size list into (≤ leaf_size, > leaf_size).

        The low side is returned in *decreasing* size order — the access
        order Figure 8 prescribes (the closer |L_i| is to |L_q|, the lower
        the SED contribution, so the low side must be read backwards).
        """
        entries = self._derived()[1]
        cut = bisect_right([e.leaf_size for e in entries], leaf_size)
        low = entries[:cut]
        low.reverse()
        return low, entries[cut:]

    def stats(self) -> Tuple[int, int]:
        """Return ``(number of label lists, total postings incl. size list)``."""
        lists, size_list = self._derived()
        total = sum(len(postings) for postings in lists.values())
        return len(lists), total + len(size_list)


class TwoLevelIndex:
    """The complete SEGOS index: catalog + upper level + lower level.

    This class owns the *index* only; graph objects themselves are kept by
    :class:`repro.core.engine.SegosIndex`, which also translates the seven
    graph-update kinds into star deltas for :meth:`apply_star_delta`.
    """

    def __init__(self) -> None:
        self.catalog = StarCatalog()
        self.upper = UpperLevelIndex()
        self.lower = LowerLevelIndex(self.catalog)
        self._graph_stars: Dict[object, Counter] = {}  # gid -> Counter[sid]
        self._meta: Dict[object, GraphMeta] = {}
        self._max_degree_hist: Counter = Counter()
        #: Monotone mutation counter.  All seven §IV-C update kinds funnel
        #: through the three mutators below, each of which bumps this; the
        #: columnar snapshot (:mod:`repro.perf.columnar`) keys its cache on
        #: it, so the mirror is patched only after a change.
        self.generation = 0
        #: Star ids created or retired since the cached columnar snapshot.
        self.star_changes = ChangeSet(0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._graph_stars)

    def __contains__(self, gid: object) -> bool:
        return gid in self._graph_stars

    def gids(self) -> Iterable[object]:
        return self._graph_stars.keys()

    def meta(self, gid: object) -> GraphMeta:
        try:
            return self._meta[gid]
        except KeyError:
            raise GraphNotIndexed(gid) from None

    def graph_star_counts(self, gid: object) -> Counter:
        """``S(g)`` as a Counter of star ids (a copy)."""
        try:
            return Counter(self._graph_stars[gid])
        except KeyError:
            raise GraphNotIndexed(gid) from None

    def database_max_degree(self) -> int:
        """δ(D) over the currently indexed graphs."""
        return max(self._max_degree_hist) if self._max_degree_hist else 0

    def size_estimate(self) -> int:
        """Rough index footprint: total postings across both levels.

        Used by the Figure 13 bench as a machine-independent "index size"
        metric (postings dominate any realistic on-disk encoding).
        """
        _, upper_postings = self.upper.stats()
        _, lower_postings = self.lower.stats()
        return upper_postings + lower_postings + len(self.catalog)

    # ------------------------------------------------------------------
    # Graph-level updates
    # ------------------------------------------------------------------
    def add_graph(self, gid: object, graph: Graph, stars: Sequence[Star]) -> None:
        """Index a decomposed graph (update kind 1 of Section IV-C)."""
        if gid in self._graph_stars:
            raise GraphAlreadyIndexed(gid)
        self.generation += 1
        self._graph_stars[gid] = Counter()
        self._meta[gid] = GraphMeta(graph.order, graph.max_degree())
        self._max_degree_hist[graph.max_degree()] += 1
        self._apply_additions(gid, stars)

    def remove_graph(self, gid: object) -> None:
        """Un-index a graph (update kind 2)."""
        counts = self._graph_stars.get(gid)
        if counts is None:
            raise GraphNotIndexed(gid)
        self.generation += 1
        for sid in list(counts):
            self.upper.remove(sid, gid)
            if self.catalog.release(sid, counts[sid]):
                self.lower.invalidate()
                self.star_changes.ids.add(sid)
        meta = self._meta.pop(gid)
        self._max_degree_hist[meta.max_degree] -= 1
        if self._max_degree_hist[meta.max_degree] == 0:
            del self._max_degree_hist[meta.max_degree]
        del self._graph_stars[gid]

    def apply_star_delta(
        self,
        gid: object,
        removed: Sequence[Star],
        added: Sequence[Star],
        new_meta: GraphMeta,
    ) -> None:
        """Apply a local update (kinds 3–7): swap some of a graph's stars.

        The engine computes which stars an edge/vertex/label mutation
        invalidates (the mutated vertex's own star plus its neighbours')
        and calls this with the before/after stars.
        """
        counts = self._graph_stars.get(gid)
        if counts is None:
            raise GraphNotIndexed(gid)
        self.generation += 1
        old_meta = self._meta[gid]

        for star in removed:
            sid = self.catalog.sid(star)
            if sid is None or counts[sid] <= 0:
                raise IndexCorruptionError(
                    f"graph {gid!r} does not contain star {star.signature!r}"
                )
            counts[sid] -= 1
            self.upper.remove(sid, gid)
            if counts[sid] == 0:
                del counts[sid]
            else:
                self.upper.add(sid, gid, counts[sid], new_meta.order)
            if self.catalog.release(sid):
                self.lower.invalidate()
                self.star_changes.ids.add(sid)

        self._apply_additions(gid, added)

        # A size change re-keys *every* posting of this graph in the upper
        # level (lists are sorted by graph size).
        if new_meta.order != old_meta.order:
            for sid, freq in counts.items():
                self.upper.remove(sid, gid)
                self.upper.add(sid, gid, freq, new_meta.order)
        self._meta[gid] = new_meta
        self._max_degree_hist[old_meta.max_degree] -= 1
        if self._max_degree_hist[old_meta.max_degree] == 0:
            del self._max_degree_hist[old_meta.max_degree]
        self._max_degree_hist[new_meta.max_degree] += 1

    def _apply_additions(self, gid: object, added: Sequence[Star]) -> None:
        counts = self._graph_stars[gid]
        order = self._meta[gid].order
        for star in added:
            sid, created = self.catalog.acquire(star)
            if created:
                self.lower.invalidate()
                self.star_changes.ids.add(sid)
            if counts[sid]:
                self.upper.remove(sid, gid)
            counts[sid] += 1
            self.upper.add(sid, gid, counts[sid], order)

    # ------------------------------------------------------------------
    # Consistency check (used by tests and assertions)
    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Raise :class:`IndexCorruptionError` on any violated invariant."""
        for gid, counts in self._graph_stars.items():
            for sid, freq in counts.items():
                postings = {e.gid: e for e in self.upper.postings(sid)}
                entry = postings.get(gid)
                if entry is None or entry.freq != freq:
                    raise IndexCorruptionError(
                        f"upper posting mismatch for graph {gid!r}, star {sid}"
                    )
                if entry.order != self._meta[gid].order:
                    raise IndexCorruptionError(
                        f"stale order for graph {gid!r} under star {sid}"
                    )
