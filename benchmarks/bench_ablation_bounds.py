"""Ablation: which pieces of the CA bound chain actually carry the load?

DESIGN.md calls out four design choices in Algorithm 3's filtering chain:
the constant-time ζ and L_µ prunes, the constant-time U_µ early accept, and
the Theorem-1 partial mapping distance.  This bench disables each in turn
and reports the average access number (graphs needing Hungarian work),
full-µ computations, and response time.  Soundness is preserved by
construction (candidates are re-checked to contain the full-chain answer
set), so the deltas isolate each bound's contribution.
"""

from __future__ import annotations

import time

import pytest

from repro.bench import Series, format_table
from repro.config import PAPER_FILTER_TIERS
from repro.core.ca_search import ca_range_query
from repro.core.engine import SegosIndex
from repro.core.graph_lists import build_all_lists
from repro.core.stats import QueryStats
from repro.datasets import sample_queries
from repro.graphs.star import decompose

VARIANTS = [
    ("full chain", frozenset()),
    ("no ζ/L_µ", frozenset({"zeta", "l_mu"})),
    ("no U_µ accept", frozenset({"u_mu"})),
    ("no partial µ", frozenset({"partial_mu"})),
    ("aggregation only", frozenset({"partial_mu", "u_mu"})),
]


def test_ablation_bound_chain(benchmark, aids_dataset, grid, report):
    data = aids_dataset.subset(grid.default_db_size)
    queries = sample_queries(data, grid.query_count, seed=91)
    engine = SegosIndex(
        data.graphs,
        k=grid.default_k,
        h=grid.default_h,
        filter_tiers=PAPER_FILTER_TIERS,
    )
    tau = grid.default_tau

    access = Series("access#")
    full_mu = Series("full µ#")
    times = Series("time (s)")
    reference_candidates = {}
    for label, disabled in VARIANTS:
        total_access = total_full = 0
        total_time = 0.0
        for qi, query in enumerate(queries):
            lists = build_all_lists(
                engine.index, decompose(query), query.order, grid.default_k
            )
            started = time.perf_counter()
            result = ca_range_query(
                engine.index,
                engine._graphs,
                query,
                tau,
                lists,
                h=grid.default_h,
                stats=QueryStats(),
                disabled_bounds=disabled,
            )
            total_time += time.perf_counter() - started
            total_access += result.stats.graphs_accessed
            total_full += result.stats.full_mapping_computations
            if not disabled:
                # Confirmed matches are proven answers (U_m ≤ τ): every
                # sound variant must keep them as candidates.
                reference_candidates[qi] = set(result.confirmed)
            else:
                assert reference_candidates[qi] <= set(result.candidates)
        n = len(queries)
        access.add(label, total_access / n)
        full_mu.add(label, total_full / n)
        times.add(label, total_time / n)

    report(
        "ablation_bound_chain",
        format_table(
            f"Ablation: CA bound chain (aids-like, τ={tau})",
            "variant",
            [label for label, _ in VARIANTS],
            [access, full_mu, times],
        ),
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    # The full chain must not need more full-µ computations than the
    # aggregation-only variant.
    assert full_mu.points["full chain"] <= full_mu.points["aggregation only"]
