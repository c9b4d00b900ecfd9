"""Mapping distance µ and its GED bounds (Section III, C-Star machinery).

Definition 1: ``µ(g1, g2)`` is the minimum-cost bijection between the star
multisets ``S(g1)`` and ``S(g2)`` under the star edit distance, with ε stars
padding the smaller side.  Zeng et al. [9] showed

* Lemma 2 — ``L_m(g1, g2) = µ / max{4, max{δ(g1), δ(g2)} + 1} ≤ λ(g1, g2)``;
* Lemma 3 — the vertex mapping induced by the optimal star alignment gives
  an edit script whose cost ``U_m = C(g1, g2, P) ≥ λ(g1, g2)``.

This module also implements the paper's own contribution on this layer,
Theorem 1: the **partial mapping distance** ``µ(S(g1), S'(g2)) ≤ µ(g1, g2)``
computed over only the sub-units of ``g2`` seen so far, with unseen columns
at cost 0, maintained incrementally by the dynamic Hungarian solver
(:class:`DynamicMappingDistance`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..graphs.model import Graph, normalization_factor
from ..graphs.star import Star, decompose_map, epsilon_distance, star_edit_distance
from ..perf.assignment import solve_assignment
from .hungarian import HungarianSolver


def star_cost_matrix(stars1: Sequence[Star], stars2: Sequence[Star]) -> List[List[float]]:
    """Square SED cost matrix with ε padding (Figure 3, right matrix).

    Rows follow ``stars1``, columns ``stars2``; whichever side is smaller is
    padded with ε entries costing ``λ(s, ε) = 1 + 2·|L|`` against real stars
    and 0 against each other.  Real-vs-real cells cost Θ(|L|) each (Lemma 1).
    """
    n1, n2 = len(stars1), len(stars2)
    size = max(n1, n2)
    matrix: List[List[float]] = []
    for i in range(size):
        row: List[float] = []
        for j in range(size):
            if i < n1 and j < n2:
                row.append(float(star_edit_distance(stars1[i], stars2[j])))
            elif i < n1:  # real star vs ε column
                row.append(float(epsilon_distance(stars1[i])))
            elif j < n2:  # ε row vs real star
                row.append(float(epsilon_distance(stars2[j])))
            else:  # ε vs ε
                row.append(0.0)
        matrix.append(row)
    return matrix


@dataclass(frozen=True)
class MappingResult:
    """Outcome of a full mapping-distance computation between two graphs.

    Attributes
    ----------
    distance:
        ``µ(g1, g2)`` (an integer-valued float).
    vertex_mapping:
        ``vertex of g1 → vertex of g2`` induced by the optimal star
        alignment; vertices aligned to ε are absent from the dict.
    inserted:
        vertices of ``g2`` not in the image of the mapping (matched to ε).
    """

    distance: float
    vertex_mapping: Dict[int, Optional[int]]
    inserted: Tuple[int, ...]


def mapping_distance(g1: Graph, g2: Graph, *, backend: Optional[str] = None) -> float:
    """``µ(g1, g2)`` — Definition 1 (Figure 2's worked example returns 9)."""
    return mapping_result(g1, g2, backend=backend).distance


def mapping_result(
    g1: Graph, g2: Graph, *, backend: Optional[str] = None
) -> MappingResult:
    """Compute µ plus the induced vertex mapping (for the Lemma 3 bound).

    ``backend`` selects the assignment solver (see
    :mod:`repro.perf.assignment`); all backends return the same µ.
    """
    stars1 = decompose_map(g1)
    stars2 = decompose_map(g2)
    ids1 = list(stars1)
    ids2 = list(stars2)
    matrix = star_cost_matrix([stars1[v] for v in ids1], [stars2[v] for v in ids2])
    total, assignment = solve_assignment(matrix, backend)
    vertex_mapping: Dict[int, Optional[int]] = {}
    used2 = set()
    for row, col in enumerate(assignment):
        if row < len(ids1):
            target = ids2[col] if col < len(ids2) else None
            vertex_mapping[ids1[row]] = target
            if target is not None:
                used2.add(target)
    inserted = tuple(v for v in ids2 if v not in used2)
    return MappingResult(total, vertex_mapping, inserted)


def edit_cost_under_mapping(
    g1: Graph, g2: Graph, vertex_mapping: Dict[int, Optional[int]]
) -> int:
    """``C(g1, g2, P)``: cost of the edit script induced by a vertex mapping.

    This is the Lemma 3 upper bound on GED: relabel mapped vertices whose
    labels differ, delete vertices mapped to ε, insert unmatched ``g2``
    vertices, and fix up every edge not preserved by the mapping.
    """
    cost = 0
    image = {}
    for v1, v2 in vertex_mapping.items():
        if v2 is None:
            cost += 1  # vertex deletion
        else:
            image[v1] = v2
            if g1.label(v1) != g2.label(v2):
                cost += 1  # relabel
    mapped_targets = set(image.values())
    cost += sum(1 for v in g2.vertices() if v not in mapped_targets)  # insertions

    preserved = 0
    for u, v in g1.edges():
        iu, iv = image.get(u), image.get(v)
        if iu is not None and iv is not None and g2.has_edge(iu, iv):
            preserved += 1
    cost += (g1.size - preserved) + (g2.size - preserved)
    return cost


def lower_bound(
    g1: Graph, g2: Graph, mu: Optional[float] = None, *, backend: Optional[str] = None
) -> float:
    """Lemma 2: ``L_m(g1, g2) = µ / max{4, max{δ(g1), δ(g2)} + 1}``."""
    if mu is None:
        mu = mapping_distance(g1, g2, backend=backend)
    return mu / normalization_factor(g1, g2)


def upper_bound(
    g1: Graph,
    g2: Graph,
    result: Optional[MappingResult] = None,
    *,
    backend: Optional[str] = None,
) -> int:
    """Lemma 3: edit cost of the Hungarian-induced mapping, ``U_m ≥ λ``."""
    if result is None:
        result = mapping_result(g1, g2, backend=backend)
    return edit_cost_under_mapping(g1, g2, result.vertex_mapping)


def bounds(
    g1: Graph, g2: Graph, *, backend: Optional[str] = None
) -> Tuple[float, int, float]:
    """Return ``(L_m, U_m, µ)`` from a single assignment solve."""
    result = mapping_result(g1, g2, backend=backend)
    return (
        result.distance / normalization_factor(g1, g2),
        edit_cost_under_mapping(g1, g2, result.vertex_mapping),
        result.distance,
    )


def partial_mapping_distance(
    query_stars: Sequence[Star],
    seen_stars: Sequence[Star],
    total_other: int,
    *,
    backend: Optional[str] = None,
) -> float:
    """One-shot Theorem 1 value ``µ(S(g1), S'(g2))``.

    ``total_other`` is ``|S(g2)|`` (how many stars ``g2`` has in total); it
    determines the square matrix size.  Unseen/ε columns cost 0 against
    every row, hence the result can only grow as more stars are revealed and
    is always ≤ the full ``µ(g1, g2)``.

    Unlike :class:`DynamicMappingDistance` (which pays one augmentation per
    revealed column to stay incremental), this builds the whole partial
    matrix up front and hands it to :func:`repro.perf.assignment.
    solve_assignment` in one go — the right shape when all the revealed
    stars are already known.
    """
    if total_other < 0:
        raise ValueError("other_order must be non-negative")
    if len(seen_stars) > total_other:
        raise ValueError(
            f"{len(seen_stars)} stars revealed but the data graph only has "
            f"{total_other}"
        )
    rows = list(query_stars)
    size = max(len(rows), total_other)
    if size == 0:
        raise ValueError("cannot compare two empty graphs")
    matrix: List[List[float]] = []
    for i in range(size):
        row: List[float] = []
        for j in range(size):
            if j >= len(seen_stars):  # unseen column: sound floor of 0
                row.append(0.0)
            elif i < len(rows):
                row.append(float(star_edit_distance(rows[i], seen_stars[j])))
            else:  # ε row vs revealed star
                row.append(float(epsilon_distance(seen_stars[j])))
        matrix.append(row)
    total, _ = solve_assignment(matrix, backend)
    return total


class DynamicMappingDistance:
    """Incrementally maintained partial mapping distance (Theorem 1 / DC stage).

    Rows are the query's stars (plus ε rows when the data graph is larger);
    columns start as all-unseen at cost 0.  Each :meth:`reveal` fills in one
    column with true SEDs via the dynamic Hungarian column update, after
    which :meth:`current` is the (monotonically non-decreasing) partial
    distance.  :meth:`finalize` prices the remaining columns — unseen real
    stars are *not* allowed then; only permanent ε columns remain — and
    returns the exact ``µ`` plus the induced star alignment.

    The CA/DC stages use this to prune a graph the moment its partial
    distance exceeds ``τ·δ``, without ever paying for the full matrix.
    """

    def __init__(self, query_stars: Sequence[Star], other_order: int) -> None:
        if other_order < 0:
            raise ValueError("other_order must be non-negative")
        self.query_stars: List[Star] = list(query_stars)
        self.other_order = other_order
        self.size = max(len(self.query_stars), other_order)
        if self.size == 0:
            raise ValueError("cannot compare two empty graphs")
        self._revealed: List[Optional[Star]] = []
        self._finalized = False
        # Row i < len(query_stars): real star; beyond: ε row.
        zero = [[0.0] * self.size for _ in range(self.size)]
        self._solver = HungarianSolver(zero)
        self._solver.solve()

    @property
    def revealed_count(self) -> int:
        """How many of the data graph's stars have been revealed."""
        return len(self._revealed)

    @property
    def revealed_fraction(self) -> float:
        """Share of the data graph's stars revealed (0 for empty graphs)."""
        if self.other_order == 0:
            return 1.0
        return len(self._revealed) / self.other_order

    def _column_costs(self, star: Optional[Star]) -> List[float]:
        """Cost column for a revealed star (or a permanent ε when None)."""
        costs: List[float] = []
        for i in range(self.size):
            if i < len(self.query_stars):
                if star is None:
                    costs.append(float(epsilon_distance(self.query_stars[i])))
                else:
                    costs.append(
                        float(star_edit_distance(self.query_stars[i], star))
                    )
            else:  # ε row
                costs.append(0.0 if star is None else float(epsilon_distance(star)))
        return costs

    def reveal(self, star: Star) -> float:
        """Reveal one more star of the data graph; return the new partial µ."""
        if self._finalized:
            raise RuntimeError("cannot reveal stars after finalize()")
        if len(self._revealed) >= self.other_order:
            raise RuntimeError(
                f"all {self.other_order} stars of the data graph already revealed"
            )
        col = len(self._revealed)
        self._revealed.append(star)
        self._solver.update_column(col, self._column_costs(star))
        return self._solver.cost()

    def current(self) -> float:
        """Current partial mapping distance ``µ(S(q), S'(g))``."""
        return self._solver.cost()

    def finalize(self) -> float:
        """Price the permanent ε columns and return the exact ``µ``.

        Requires every real star to have been revealed first; raises
        otherwise, because silently finalizing early would understate µ.
        """
        if len(self._revealed) != self.other_order:
            raise RuntimeError(
                f"only {len(self._revealed)}/{self.other_order} stars revealed; "
                "reveal the rest before finalize()"
            )
        if not self._finalized:
            for col in range(self.other_order, self.size):
                self._solver.update_column(col, self._column_costs(None))
            self._finalized = True
        return self._solver.cost()

    def star_alignment(self) -> List[Tuple[Optional[Star], Optional[Star]]]:
        """Current optimal alignment as (query star | ε, data star | ε) pairs."""
        pairs: List[Tuple[Optional[Star], Optional[Star]]] = []
        for row, col in enumerate(self._solver.assignment()):
            left = self.query_stars[row] if row < len(self.query_stars) else None
            right = self._revealed[col] if col < len(self._revealed) else None
            pairs.append((left, right))
        return pairs
