"""Adapter exposing :class:`repro.core.engine.SegosIndex` as a baseline method.

Lets the benchmark harness sweep SEGOS with the same interface as C-Star,
κ-AT and C-Tree.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..config import PAPER_FILTER_TIERS
from ..core.engine import SegosIndex
from ..graphs.model import Graph
from .base import FilterResult, RangeQueryMethod


class SegosMethod(RangeQueryMethod):
    """SEGOS (non-pipelined CA search) behind the baseline interface.

    Pinned to the paper's chain (:data:`~repro.config.PAPER_FILTER_TIERS`),
    so the candidate counts the figure benches compare are CA's.
    """

    name = "SEGOS"

    def __init__(
        self,
        graphs: Mapping[object, Graph],
        *,
        k: Optional[int] = None,
        h: Optional[int] = None,
    ) -> None:
        super().__init__(graphs)
        kwargs = {}
        if k is not None:
            kwargs["k"] = k
        if h is not None:
            kwargs["h"] = h
        self.engine = SegosIndex(
            self.graphs, filter_tiers=PAPER_FILTER_TIERS, **kwargs
        )

    def range_query(self, query: Graph, *, tau: float) -> FilterResult:
        result = self.engine.range_query(query, tau=tau)
        return FilterResult(
            candidates=result.candidates,
            confirmed=set(result.matches),
            graphs_accessed=result.stats.graphs_accessed,
        )

    def index_size(self) -> int:
        return self.engine.index_size()
