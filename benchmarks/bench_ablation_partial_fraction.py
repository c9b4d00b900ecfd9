"""Ablation: the 50 % partial-matching rule (Section V-E).

The paper runs the Theorem-1 partial mapping distance "only when more than
50 % sub-units of a graph have been accessed".  This bench sweeps the
trigger fraction from 0 (check eagerly at every checkpoint) to >1 (never
check early; defer everything to the forced DC pass) and reports the time /
full-µ trade-off that motivates the 0.5 default.
"""

from __future__ import annotations

import pytest

from repro.baselines import SegosMethod
from repro.bench import Series, format_table, run_queries
from repro.config import PAPER_FILTER_TIERS
from repro.core.engine import SegosIndex
from repro.datasets import sample_queries

FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.01)


def test_ablation_partial_fraction(benchmark, aids_dataset, grid, report):
    data = aids_dataset.subset(grid.default_db_size)
    queries = sample_queries(data, grid.query_count, seed=92)
    tau = grid.default_tau

    times = Series("time (s)")
    access = Series("access#")
    pruned_partial = Series("pruned by partial µ")
    for fraction in FRACTIONS:
        engine = SegosIndex(
            data.graphs,
            k=grid.default_k,
            h=grid.default_h,
            partial_fraction=fraction,
            filter_tiers=PAPER_FILTER_TIERS,
        )
        total_time = total_access = total_pruned = 0.0
        for query in queries:
            result = engine.range_query(query, tau=tau)
            total_time += result.elapsed
            total_access += result.stats.graphs_accessed
            total_pruned += result.stats.pruned_by.get("partial_mu", 0)
        n = len(queries)
        times.add(fraction, total_time / n)
        access.add(fraction, total_access / n)
        pruned_partial.add(fraction, total_pruned / n)

    report(
        "ablation_partial_fraction",
        format_table(
            f"Ablation: partial-matching trigger fraction (aids-like, τ={tau})",
            "fraction",
            list(FRACTIONS),
            [times, access, pruned_partial],
        ),
    )
    benchmark.pedantic(
        lambda: run_queries(
            SegosMethod(data.graphs, k=grid.default_k, h=grid.default_h),
            queries[:1],
            tau,
        ),
        rounds=1,
        iterations=1,
    )
