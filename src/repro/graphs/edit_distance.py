"""Exact graph edit distance via A* search (reference [19] of the paper).

Edit operations, all unit cost, matching the paper's model (Section II-A):
insertion, deletion, and substitution (relabel) of a vertex, and insertion
and deletion of an edge.  Edges are unlabelled, so there is no edge
substitution.

Exact GED is NP-hard; this implementation is meant for ground truth on the
small graphs used in tests and for the final verification step of
filter-and-verify pipelines.  Two safety valves keep it predictable:

* ``threshold`` — prune any state whose optimistic total exceeds it and
  report "greater than threshold" instead of the exact value, which is all a
  range query ever needs;
* ``budget`` — hard cap on expanded states, raising
  :class:`~repro.errors.SearchBudgetExceeded` beyond it.

The heuristic is the classic admissible label-multiset bound: remaining
vertices need at least ``max(|R1|, |R2|) − |Ψ(R1) ∩ Ψ(R2)|`` vertex edits,
and edges lying entirely inside the unmapped regions need at least
``|e1 − e2|`` edge edits (a g1-internal edge can only be preserved by a
g2-internal edge between images of unmapped vertices).
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import SearchBudgetExceeded
from .model import Graph
from .star import multiset_intersection_size

DEFAULT_BUDGET = 2_000_000


def _label_bound(labels1: List[str], labels2: List[str]) -> int:
    """Admissible vertex-edit bound between two sorted label multisets."""
    common = multiset_intersection_size(labels1, labels2)
    return max(len(labels1), len(labels2)) - common


@dataclass(frozen=True)
class PreparedQuery:
    """The g1-only precomputation of :func:`graph_edit_distance`, hoisted.

    Verifying a candidate set runs one A* per candidate with the *same*
    query graph; preparing the query once and passing it to every run
    shares the vertex ordering, the suffix label multisets, and the
    suffix edge counts instead of rebuilding them cold per candidate
    (the Nass-style state reuse of the verification tier).  The derived
    arrays are positional over ``order1``, so a prepared query must only
    ever be used with the graph it was built from — ``graph`` is kept to
    enforce that by identity.
    """

    graph: Graph
    order1: List[int]
    labels1: List[str]
    suffix_labels1: List[List[str]]
    suffix_edges1: List[int]


def prepare_query(g1: Graph) -> PreparedQuery:
    """Precompute the query-side A* state shared across candidates."""
    # Order g1 vertices by descending degree: high-degree vertices constrain
    # the search most, so mapping them first prunes earlier.
    order1 = sorted(g1.vertices(), key=lambda v: -g1.degree(v))
    n1 = len(order1)
    labels1 = [g1.label(v) for v in order1]
    suffix_labels1: List[List[str]] = [sorted(labels1[i:]) for i in range(n1 + 1)]
    pos1 = {v: i for i, v in enumerate(order1)}
    suffix_edges1 = [0] * (n1 + 1)
    for i in range(n1 - 1, -1, -1):
        v = order1[i]
        later = sum(1 for n in g1.neighbors(v) if pos1[n] > i)
        suffix_edges1[i] = suffix_edges1[i + 1] + later
    return PreparedQuery(g1, order1, labels1, suffix_labels1, suffix_edges1)


def _record_expansions(counters: Optional[Dict[str, int]], expanded: int) -> None:
    if counters is not None:
        counters["expanded"] = counters.get("expanded", 0) + expanded


def graph_edit_distance(
    g1: Graph,
    g2: Graph,
    *,
    threshold: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
    counters: Optional[Dict[str, int]] = None,
    prepared: Optional[PreparedQuery] = None,
) -> Optional[int]:
    """Exact ``λ(g1, g2)``, or ``None`` if it exceeds *threshold*.

    *counters*, when given, accumulates search-effort telemetry: the
    number of A* states expanded is added under ``"expanded"`` on every
    exit path (success, threshold prune, and blown budget alike).

    *prepared* supplies the hoisted g1-only precomputation (see
    :func:`prepare_query`); it must have been built from this exact
    ``g1`` object.

    Examples
    --------
    >>> a = Graph(["a", "b"], [(0, 1)])
    >>> b = Graph(["a", "c"], [(0, 1)])
    >>> graph_edit_distance(a, b)
    1
    """
    # The root bound settles most "λ > τ" pairs before any search state
    # is built.
    if threshold is not None and trivial_lower_bound(g1, g2) > threshold:
        return None
    if prepared is None or prepared.graph is not g1:
        prepared = prepare_query(g1)
    order1 = prepared.order1
    labels1 = prepared.labels1
    # Suffix label multisets of g1's remaining vertices, and edges of g1
    # entirely inside the suffix starting at position i.
    suffix_labels1 = prepared.suffix_labels1
    suffix_edges1 = prepared.suffix_edges1
    ids2 = list(g2.vertices())
    n1, n2 = len(order1), len(ids2)
    labels2 = [g2.label(v) for v in ids2]

    adj2 = {v: g2.neighbors(v) for v in ids2}

    def heuristic(depth: int, used_mask: int) -> int:
        rem2_labels = sorted(
            labels2[j] for j in range(n2) if not used_mask >> j & 1
        )
        h = _label_bound(suffix_labels1[depth], rem2_labels)
        rem2 = [ids2[j] for j in range(n2) if not used_mask >> j & 1]
        rem2_set = set(rem2)
        e2_internal = (
            sum(1 for v in rem2 for n in adj2[v] if n in rem2_set) // 2
        )
        h += abs(suffix_edges1[depth] - e2_internal)
        return h

    def completion_cost(mapping: Tuple[int, ...], used_mask: int) -> int:
        """Cost of inserting every unused g2 vertex and its loose edges."""
        unused = [ids2[j] for j in range(n2) if not used_mask >> j & 1]
        unused_set = set(unused)
        cost = len(unused)
        for u, v in g2.edges():
            if u in unused_set or v in unused_set:
                cost += 1
        return cost

    def extension_cost(
        depth: int, mapping: Tuple[int, ...], target: Optional[int]
    ) -> int:
        """Cost of mapping g1's vertex at *depth* onto *target* (or ε)."""
        v1 = order1[depth]
        cost = 0
        if target is None:
            cost += 1  # vertex deletion
        elif labels1[depth] != g2.label(target):
            cost += 1  # relabel
        target_nbrs = adj2[target] if target is not None else set()
        for earlier in range(depth):
            u1 = order1[earlier]
            mapped = mapping[earlier]
            e1 = g1.has_edge(v1, u1)
            e2 = (
                target is not None
                and mapped >= 0
                and ids2[mapped] in target_nbrs
            )
            if e1 != e2:
                cost += 1
        return cost

    if n1 == 0:
        # Nothing to map: insert all of g2 (the root bound checked τ).
        return n2 + g2.size

    # A* over partial mappings.  State: (f, tiebreak, g_cost, depth,
    # used_mask, mapping) where mapping[i] is the g2 *position* or -1 for ε.
    # NOTE: states must not be deduplicated by (depth, used_mask) — two
    # different bijections over the same used set have different future edge
    # costs, so this is a plain tree-search A*.
    counter = itertools.count()
    start_h = heuristic(0, 0)
    heap: List[Tuple[int, int, int, int, int, Tuple[int, ...]]] = [
        (start_h, next(counter), 0, 0, 0, ())
    ]
    expanded = 0
    while heap:
        f, _, g_cost, depth, used_mask, mapping = heapq.heappop(heap)
        if threshold is not None and f > threshold:
            _record_expansions(counters, expanded)
            return None  # optimistic total already beyond τ: λ > τ
        if depth == n1:
            _record_expansions(counters, expanded)
            return g_cost  # completion already folded in when pushed
        expanded += 1
        if expanded > budget:
            _record_expansions(counters, expanded)
            raise SearchBudgetExceeded(expanded, budget)

        successors: List[Tuple[int, int, Optional[int]]] = []
        for j in range(n2):
            if used_mask >> j & 1:
                continue
            successors.append((used_mask | (1 << j), j, ids2[j]))
        successors.append((used_mask, -1, None))

        for new_mask, j, target in successors:
            step = extension_cost(depth, mapping, target)
            new_g = g_cost + step
            new_depth = depth + 1
            if new_depth == n1:
                total = new_g + completion_cost(mapping + (j,), new_mask)
                if threshold is None or total <= threshold:
                    heapq.heappush(
                        heap,
                        (total, next(counter), total, new_depth, new_mask, ()),
                    )
            else:
                h = heuristic(new_depth, new_mask)
                total = new_g + h
                if threshold is None or total <= threshold:
                    heapq.heappush(
                        heap,
                        (
                            total,
                            next(counter),
                            new_g,
                            new_depth,
                            new_mask,
                            mapping + (j,),
                        ),
                    )
    _record_expansions(counters, expanded)
    return None if threshold is not None else 0


def ged_within(
    g1: Graph,
    g2: Graph,
    tau: int,
    *,
    budget: int = DEFAULT_BUDGET,
    counters: Optional[Dict[str, int]] = None,
    prepared: Optional[PreparedQuery] = None,
) -> bool:
    """True iff ``λ(g1, g2) ≤ tau`` (threshold-pruned A*)."""
    return (
        graph_edit_distance(
            g1, g2, threshold=tau, budget=budget, counters=counters, prepared=prepared
        )
        is not None
    )


def trivial_lower_bound(g1: Graph, g2: Graph) -> int:
    """Cheap admissible bound: label-multiset diff + edge-count diff."""
    return _label_bound(g1.label_multiset(), g2.label_multiset()) + abs(
        g1.size - g2.size
    )


def naive_upper_bound(g1: Graph, g2: Graph) -> int:
    """Destroy-and-rebuild bound: delete all of g1, insert all of g2.

    Any sensible algorithm should stay at or below this; tests use it as a
    sanity ceiling.
    """
    return g1.order + g1.size + g2.order + g2.size
