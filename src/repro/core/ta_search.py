"""TA-based top-k sub-unit search (Algorithm 2, Section V-A).

Given a query star ``s_q``, find the ``k`` database stars with the smallest
star edit distance without scanning the whole catalog.  Equation (1) rewrites
the SED so that, ignoring the non-negative root term,

* for stars with ``|L_i| ≤ |L_q|``:  ``λ = 2·|L_q| − (ψ + |L_i|)``,
* for stars with ``|L_i| > |L_q|``:  ``λ = −|L_q| − (ψ − 2·|L_i|)``,

where ``ψ`` is the number of common leaf labels.  Both are monotone in the
per-list quantities the lower-level index sorts by — label frequencies
(descending) and leaf size (descending towards ``|L_q|`` on the low side,
ascending on the high side) — so Fagin's Threshold Algorithm applies: do
sorted round-robin access, compute the exact SED of every star seen, and
halt once the threshold ``ω`` built from the *last seen* frequencies/sizes
can no longer beat the current k-th best.

The two sides run as two independent TA passes that share one top-k heap.

Since the columnar mirror (:mod:`repro.perf.columnar`) landed, TA is one of
*two* interchangeable top-k backends:

* ``ta`` — the round-robin threshold algorithm above;
* ``scan`` — one vectorized SED sweep over the whole columnar catalog
  followed by an ``argpartition``.

Both return the *k lexicographically smallest* ``(sed, sid)`` pairs — the
TA pass halts only when the threshold strictly exceeds the k-th best SED,
so even tie sids are deterministic and the two backends are result-identical.
An explicit ``backend`` argument picks one; without it :func:`top_k_stars`
runs ``scan``.  ``scan`` itself falls back to TA on an index with no
generation counter (no columnar mirror).  The paper benches pin ``ta`` to
measure Algorithm 2.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..graphs.star import Star, star_edit_distance
from ..perf.columnar import columnar_snapshot
from .index import LowerEntry, TwoLevelIndex
from .merge import merge_groups

#: Recognised backend names.
TOPK_BACKENDS = ("ta", "scan")


@dataclass
class TopKResult:
    """Result of a top-k sub-unit search.

    Attributes
    ----------
    entries:
        ``(sid, sed)`` pairs sorted by increasing SED (ties by sid); at most
        k of them.
    kth_sed:
        Guaranteed floor on the SED of any star *not* in ``entries``
        (the CA stage builds its bounds from this).  When fewer than k
        stars exist at all, there is no star outside the result and the
        floor is ``+inf``.
    exhaustive:
        True when the search saw every live star (no threshold halt).
    accesses:
        Number of sorted accesses performed (Figure 20's overhead metric).
        Zero for the scan backend, which performs none.
    backend:
        Which backend produced the result (``"ta"`` or ``"scan"``).
    scan_width:
        Rows scored by the vectorized scan (zero for the TA backend) — the
        scan-side analogue of ``accesses``.
    """

    entries: List[Tuple[int, int]]
    kth_sed: float
    exhaustive: bool
    accesses: int = 0
    backend: str = "ta"
    scan_width: int = 0


class _TopKHeap:
    """Fixed-capacity max-heap of (sed, sid) keeping the k smallest SEDs."""

    def __init__(self, k: int) -> None:
        self.k = k
        self._heap: List[Tuple[int, int]] = []  # (-sed, -sid): max-heap

    def offer(self, sid: int, sed: int) -> None:
        item = (-sed, -sid)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, item)
        elif item > self._heap[0]:
            heapq.heapreplace(self._heap, item)

    def worst(self) -> Optional[int]:
        """Current k-th best SED, or None while the heap is not full."""
        if len(self._heap) < self.k:
            return None
        return -self._heap[0][0]

    def bound(self) -> float:
        """Halting bound: k-th best SED, or +inf while under-full."""
        worst = self.worst()
        return float("inf") if worst is None else float(worst)

    def items(self) -> List[Tuple[int, int]]:
        """``(sid, sed)`` sorted by (sed, sid) ascending."""
        return sorted(((-s, -d) for d, s in self._heap), key=lambda p: (p[1], p[0]))


def resolve_topk_backend(backend: Optional[str] = None) -> str:
    """The backend a search runs: *backend*, else ``scan``.  An unknown
    explicit name raises."""
    if backend is None:
        return "scan"
    if backend not in TOPK_BACKENDS:
        raise ValueError(
            f"unknown top-k backend {backend!r} (expected one of {TOPK_BACKENDS})"
        )
    return backend


def top_k_stars(
    index: TwoLevelIndex,
    query: Star,
    k: int,
    *,
    backend: Optional[str] = None,
) -> TopKResult:
    """Algorithm 2 (or its columnar full-scan equivalent): the k most
    similar database stars to *query*.

    ``backend`` is ``ta``, ``scan`` or ``None`` (see
    :func:`resolve_topk_backend`).  Both backends return identical entries
    and ``kth_sed`` floors.

    Examples are in ``tests/test_ta_search.py`` (including Figure 8's
    worked run).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if resolve_topk_backend(backend) == "scan":
        result = _top_k_scan(index, query, k)
        if result is not None:
            return result
    return _top_k_ta(index, query, k)


def _top_k_scan(index: TwoLevelIndex, query: Star, k: int) -> Optional[TopKResult]:
    """One vectorized SED sweep over the columnar mirror + argpartition."""
    snapshot = columnar_snapshot(index)
    if snapshot is None:
        return None
    entries, width = snapshot.top_k(query, k)
    kth: float = float(entries[-1][1]) if len(entries) == k else float("inf")
    return TopKResult(
        entries=entries,
        kth_sed=kth,
        exhaustive=True,
        accesses=0,
        backend="scan",
        scan_width=width,
    )


def _top_k_ta(index: TwoLevelIndex, query: Star, k: int) -> TopKResult:
    """The round-robin threshold-algorithm backend."""
    heap = _TopKHeap(k)
    seen: set = set()
    catalog = index.catalog
    accesses = 0

    leaf_counts = sorted(query.leaf_counter().items())
    lq = query.leaf_size

    low_size, high_size = index.lower.split_size_list(lq)

    def run_side(low: bool, size_entries: List[LowerEntry]) -> bool:
        """One TA pass; returns True if it halted via the threshold."""
        nonlocal accesses
        label_streams: List[Iterator[LowerEntry]] = []
        last_freq: List[float] = []
        for label, _count in leaf_counts:
            low_groups, high_groups = index.lower.split_label_list(label, lq)
            stream = merge_groups(low_groups if low else high_groups)
            label_streams.append(stream)
            last_freq.append(0.0)  # replaced on first access
        size_iter = iter(size_entries)
        last_size: float = 0.0

        exhausted = [False] * len(label_streams)
        size_exhausted = False
        while True:
            progressed = False
            # Round-robin: each label list, then the size list.
            for j, stream in enumerate(label_streams):
                if exhausted[j]:
                    continue
                entry = next(stream, None)
                if entry is None:
                    exhausted[j] = True
                    last_freq[j] = 0.0  # unseen stars miss this list: ψ_j = 0
                    continue
                accesses += 1
                progressed = True
                last_freq[j] = float(entry.freq)
                if entry.sid not in seen:
                    seen.add(entry.sid)
                    # Equation (1)'s exact-SED evaluation of a seen star.
                    heap.offer(
                        entry.sid,
                        star_edit_distance(query, catalog.star(entry.sid)),
                    )
            if not size_exhausted:
                entry = next(size_iter, None)
                if entry is None:
                    size_exhausted = True
                else:
                    accesses += 1
                    progressed = True
                    last_size = float(entry.leaf_size)
                    if entry.sid not in seen:
                        seen.add(entry.sid)
                        heap.offer(
                            entry.sid,
                            star_edit_distance(query, catalog.star(entry.sid)),
                        )
            if size_exhausted:
                # Every star on this side lives in the size list, so an
                # exhausted size list means the side has been fully seen.
                return False
            if not progressed:
                return False
            # Threshold test (step 2 of Algorithm 2).  t(χ̄) caps each
            # list's contribution by the query's own label multiplicity.
            t_chi = sum(
                min(float(count), last_freq[j])
                for j, (_, count) in enumerate(leaf_counts)
            )
            if low:
                omega = 2 * lq - (t_chi + last_size)
            else:
                omega = -lq - (t_chi - 2 * last_size)
            # Strict comparison: ω == k-th SED may hide unseen ties with
            # smaller sids, and backend-identical results (scan vs TA)
            # require even the tie sids to be deterministic.  Unseen stars
            # have SED ≥ ω, so halting at ω > k-th keeps every (sed, sid)
            # that could enter the final answer.
            if omega > heap.bound():
                return True

    halted_low = run_side(True, low_size)
    halted_high = run_side(False, high_size)

    entries = heap.items()
    exhaustive = not halted_low and not halted_high
    # A threshold halt requires a full heap, so len(entries) < k implies the
    # catalog itself has fewer than k stars: nothing lives outside the
    # result and the outside-SED floor is unbounded.
    kth: float = float(entries[-1][1]) if len(entries) == k else float("inf")
    return TopKResult(entries=entries, kth_sed=kth, exhaustive=exhaustive, accesses=accesses)


def brute_force_top_k(index: TwoLevelIndex, query: Star, k: int) -> List[Tuple[int, int]]:
    """Reference implementation: scan every live star (tests compare to this)."""
    scored = [
        (sid, star_edit_distance(query, index.catalog.star(sid)))
        for sid in index.catalog.live_sids()
    ]
    scored.sort(key=lambda p: (p[1], p[0]))
    return scored[:k]
