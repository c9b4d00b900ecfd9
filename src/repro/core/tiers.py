"""Filter tiers: the bound chain of the query path.

SEGOS is a filter-and-verify system.  Each link of its filter stack is a
**tier**, and ``EngineConfig.filter_tiers`` picks an ordered subsequence
of :data:`repro.config.FULL_TIER_CHAIN`.

The five tiers, cheapest first:

``embed``
    An EmbAssi-style label/degree embedding pre-filter: the admissible
    bound ``max(|V_q|, |V_g|) − |Ψ_q ∩ Ψ_g| + ||E_q| − |E_g||``
    (:func:`repro.graphs.edit_distance.trivial_lower_bound`) evaluated
    against *every* database graph in one vectorized sweep
    (:class:`repro.perf.columnar.GraphEmbeddings`), before TA touches
    the index.  Graphs with a bound above τ are provable non-answers.

``ta``
    The paper's top-k star search (Algorithm 2), producing the ordered
    candidate lists the CA scan consumes.

``ca``
    The paper's count-aggregation scan with the ζ ≤ L_µ ≤ µ ≤ U_µ bound
    chain (see :mod:`repro.core.bounds`).

``anchor``
    An anchored assignment bound ahead of exact verification (after
    Chang et al.'s anchor-aware GED bounds): one linear-assignment solve
    over per-vertex label/degree costs yields a lower bound that prunes,
    *and* anchors a concrete vertex mapping whose edit cost is an upper
    bound that can settle a candidate as a match without running A*.

``verify``
    Threshold-pruned exact A*, Nass-style: candidates of one query share
    the hoisted query-side search state
    (:class:`repro.graphs.edit_distance.PreparedQuery`) instead of each
    run starting cold.

The anchor bounds live here; tier *execution* is a
:class:`repro.core.plan.Stage` per tier, resolved from
``EngineConfig.filter_tiers`` by :meth:`repro.core.plan.QueryPlan.from_tiers`.

Soundness contract: every tier's lower bound never exceeds the exact
GED (a hypothesis test pins this for random graph pairs), so enabling
tiers never changes the match set — only how early non-answers die.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..config import DEFAULT_FILTER_TIERS, validate_filter_tiers
from ..graphs.model import Graph
from ..matching.mapping import edit_cost_under_mapping
from ..perf.assignment import solve_assignment

__all__ = [
    "AnchorTier",
    "anchor_bounds",
    "anchor_cost_matrix",
    "resolve_tier_chain",
]


def resolve_tier_chain(tiers=None) -> Tuple[str, ...]:
    """Normalise *tiers* (default: :data:`~repro.config.DEFAULT_FILTER_TIERS`)."""
    if tiers is None:
        return DEFAULT_FILTER_TIERS
    return validate_filter_tiers(tiers)


# ---------------------------------------------------------------------------
# anchor: the assignment-based anchored bound
# ---------------------------------------------------------------------------

def anchor_cost_matrix(query: Graph, graph: Graph) -> List[List[int]]:
    """The ×2-scaled per-vertex label/degree cost matrix.

    Square of side ``n1 + n2``: row *i* < n1 is query vertex *i*, the
    rest are ε-rows; column *j* < n2 is a graph vertex, the rest ε-cols.
    Costs (scaled by 2 to stay integral):

    * match ``(u, v)``: ``2·[l_u ≠ l_v] + |d_u − d_v|``
    * delete ``(u, ε)``: ``2 + d_u`` — the deletion plus half of each
      incident edge edit
    * insert ``(ε, v)``: ``2 + d_v``
    * ``(ε, ε)``: 0

    Half the optimal assignment total is an admissible GED bound: each
    relabel/deletion/insertion is charged once to its own slot, and each
    edge edit touches at most two vertex slots, contributing ½ to each.
    """
    vs1 = list(query.vertices())
    vs2 = list(graph.vertices())
    n1, n2 = len(vs1), len(vs2)
    deg1 = [query.degree(v) for v in vs1]
    deg2 = [graph.degree(v) for v in vs2]
    lab1 = [query.label(v) for v in vs1]
    lab2 = [graph.label(v) for v in vs2]
    side = n1 + n2
    matrix = [[0] * side for _ in range(side)]
    for i in range(n1):
        row = matrix[i]
        for j in range(n2):
            row[j] = 2 * (lab1[i] != lab2[j]) + abs(deg1[i] - deg2[j])
        for j in range(n2, side):
            row[j] = 2 + deg1[i]
    for i in range(n1, side):
        row = matrix[i]
        for j in range(n2):
            row[j] = 2 + deg2[j]
    return matrix


def anchor_bounds(
    query: Graph,
    graph: Graph,
    *,
    backend: Optional[str] = None,
) -> Tuple[int, int]:
    """``(lower, upper)`` GED bounds from one anchored assignment solve.

    The assignment total yields the lower bound (⌈total/2⌉ — GED is
    integral); the optimal assignment anchors a concrete vertex mapping
    whose full edit cost (:func:`~repro.matching.mapping.edit_cost_under_mapping`)
    is the upper bound.  ``lower ≤ λ(query, graph) ≤ upper`` always.
    """
    vs1 = list(query.vertices())
    vs2 = list(graph.vertices())
    n1, n2 = len(vs1), len(vs2)
    if n1 == 0 and n2 == 0:
        return 0, 0
    total, row_to_col = solve_assignment(
        anchor_cost_matrix(query, graph), backend
    )
    lower = math.ceil(round(total) / 2)
    mapping: Dict[int, Optional[int]] = {}
    for i in range(n1):
        j = row_to_col[i] if i < len(row_to_col) else -1
        mapping[vs1[i]] = vs2[j] if 0 <= j < n2 else None
    upper = edit_cost_under_mapping(query, graph, mapping)
    return lower, upper


class AnchorTier:
    """:func:`anchor_bounds` bound to one assignment backend.

    The engine calls :func:`anchor_bounds` directly; this class remains
    only because ``perfbench/layers.py`` imports it, and goes when that
    import does.
    """

    def __init__(self, backend: Optional[str] = None) -> None:
        self.backend = backend

    def bounds(self, query: Graph, state: Graph) -> Tuple[int, int]:
        return anchor_bounds(query, state, backend=self.backend)
