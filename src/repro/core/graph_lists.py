"""Score-sorted graph list construction for the CA stage (Section V-B).

For each query star ``s_q`` the TA stage returns its top-k similar database
stars with their SEDs.  Fetching the upper-level posting list of each top-k
star — already sorted by graph size — and splitting it at ``|q|`` yields,
per query star, two *graph lists*:

* a **small side** (graphs with ``|g| ≤ |q|``), where segments whose SED
  exceeds ``λ(s_q, ε)`` are discarded (matching the query star to ε is
  cheaper than to such a star, so those entries can never lower a bound);
* a **large side** (``|g| > |q|``).

Concatenating a star's posting segments in top-k (SED-ascending) order makes
each side a SED-ascending list: exactly the monotone score lists the CA
round-robin scan and its halting threshold require.

The lists are lazy.  Building one costs a single boundary search per top-k
star (``upper.cut``); each side keeps only ``(postings, lo, hi, sed, sid)``
segments over the size-sorted posting lists, and a :class:`GraphListEntry`
exists only once the CA cursor reads its position.  CA reads a short prefix
of each list, so most postings are never touched.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..graphs.star import Star, StarKey, epsilon_distance
from .index import TwoLevelIndex
from .ta_search import TopKResult, top_k_stars


@dataclass(frozen=True)
class GraphListEntry:
    """One posting in a CA graph list."""

    gid: object
    order: int  # graph size
    sed: int  # SED between the owning query star and `sid`
    sid: int
    freq: int  # occurrences of `sid` in the graph


#: ``(postings, lo, hi, sed, sid)``: positions ``[lo, hi)`` of one top-k
#: star's size-sorted postings, all scored with that star's SED.
Segment = Tuple[Sequence, int, int, int, int]


class GraphList:
    """One size side of a query star's graph list, read through its segments.

    Behaves as a read-only list of :class:`GraphListEntry` (``len``,
    indexing, iteration, ``==`` and ``+``).  It reads the postings it was
    built over, so a later index mutation does not change it.
    """

    __slots__ = ("_segments", "_starts", "_len")

    def __init__(self, segments: Sequence[Segment]) -> None:
        self._segments = list(segments)
        self._starts: List[int] = []
        total = 0
        for _, lo, hi, _, _ in self._segments:
            self._starts.append(total)
            total += hi - lo
        self._len = total

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int) -> GraphListEntry:
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("graph list index out of range")
        s = bisect_right(self._starts, i) - 1
        postings, lo, _, sed, sid = self._segments[s]
        e = postings[lo + i - self._starts[s]]
        return GraphListEntry(e.gid, e.order, sed, sid, e.freq)

    def __iter__(self):
        for postings, lo, hi, sed, sid in self._segments:
            for i in range(lo, hi):
                e = postings[i]
                yield GraphListEntry(e.gid, e.order, sed, sid, e.freq)

    def __eq__(self, other) -> bool:
        if isinstance(other, (GraphList, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __add__(self, other) -> List[GraphListEntry]:
        return list(self) + list(other)

    def __repr__(self) -> str:
        return f"GraphList({list(self)!r})"


@dataclass
class QueryStarLists:
    """Both size sides of the graph lists for one query star.

    ``kth_sed`` and ``epsilon`` carry the two SED floors the CA bounds use
    for stars outside the top-k and for ε alignment respectively.
    """

    star: Star
    small: GraphList
    large: GraphList
    kth_sed: float
    epsilon: int

    def exhausted_small_bound(self) -> float:
        """SED floor for small-side graphs invisible in this list."""
        return min(self.kth_sed, float(self.epsilon))

    def exhausted_large_bound(self) -> float:
        """SED floor for large-side graphs invisible in this list."""
        return self.kth_sed


def build_query_star_lists(
    index: TwoLevelIndex,
    query_star: Star,
    query_order: int,
    topk: TopKResult,
) -> QueryStarLists:
    """Assemble the two graph lists for one query star from its top-k.

    One size-boundary search per top-k star; no posting is copied.
    """
    eps = epsilon_distance(query_star)
    small: List[Segment] = []
    large: List[Segment] = []
    for sid, sed in topk.entries:
        postings, cut = index.upper.cut(sid, query_order)
        if cut and sed <= eps:
            small.append((postings, 0, cut, sed, sid))
        if cut < len(postings):
            large.append((postings, cut, len(postings), sed, sid))
    return QueryStarLists(
        star=query_star,
        small=GraphList(small),
        large=GraphList(large),
        kth_sed=topk.kth_sed,
        epsilon=eps,
    )


def build_all_lists(
    index: TwoLevelIndex,
    query_stars: Sequence[Star],
    query_order: int,
    k: int,
    *,
    topk_cache: Optional[Dict[StarKey, TopKResult]] = None,
    ta_accesses: Optional[List[int]] = None,
    ta_results: Optional[List[TopKResult]] = None,
    backend: Optional[str] = None,
) -> List[QueryStarLists]:
    """Run top-k for every query star (memoised by star key), build lists.

    Duplicate query stars (Figure 9 runs ``q: s5`` twice) share one top-k
    search but still get their own graph list, because the CA aggregation
    sums one term per query star *occurrence*.

    ``backend`` selects the top-k backend (see
    :func:`repro.core.ta_search.top_k_stars`); ``ta_results`` collects the
    per-search :class:`TopKResult` (one per *distinct* star actually
    searched here, cache hits excluded) so callers can report backend
    choices and access/scan-width counters.
    """
    cache: Dict[StarKey, TopKResult] = topk_cache if topk_cache is not None else {}
    lists: List[QueryStarLists] = []
    for star in query_stars:
        result = cache.get(star.key)
        if result is None:
            result = top_k_stars(index, star, k, backend=backend)
            cache[star.key] = result
            if ta_accesses is not None:
                ta_accesses.append(result.accesses)
            if ta_results is not None:
                ta_results.append(result)
        lists.append(build_query_star_lists(index, star, query_order, result))
    return lists
