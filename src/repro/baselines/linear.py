"""Linear-scan oracle: exact GED over the whole database.

Not a paper baseline — the ground-truth reference the test suite measures
every filter against (no false negatives allowed).  Usable only on small
corpora, which is the paper's point about why filtering matters.
"""

from __future__ import annotations

from typing import List, Mapping, Set

from ..graphs.edit_distance import ged_within, prepare_query
from ..graphs.model import Graph
from .base import FilterResult, RangeQueryMethod


class LinearScan(RangeQueryMethod):
    """Exact answers by running threshold-pruned A* on every graph."""

    name = "Linear-Exact"

    def range_query(self, query: Graph, *, tau: float) -> FilterResult:
        if query.order == 0:
            raise ValueError("query graph must not be empty")
        if tau < 0:
            raise ValueError("tau must be non-negative")
        prepared = prepare_query(query)
        matches: List[object] = []
        for gid, graph in self.graphs.items():
            if ged_within(query, graph, int(tau), prepared=prepared):
                matches.append(gid)
        return FilterResult(
            candidates=matches,
            confirmed=set(matches),
            graphs_accessed=len(self.graphs),
        )

    def index_size(self) -> int:
        return 0
