"""Figure 20: overhead of the TA top-k sub-unit stage vs k_s.

Paper: even in the worst case the TA stage costs under 0.1 % of the overall
response time.  Pure Python inflates constant factors, so we assert a loose
ceiling and report the measured share per k_s.  The engine pins
``topk_backend="ta"`` so the timed stage is Algorithm 2, not the default
columnar scan, and the paper's ``ta -> ca -> verify`` chain.
"""

from __future__ import annotations

import time

import pytest

from repro.bench import Series, format_table
from repro.config import PAPER_FILTER_TIERS
from repro.core.engine import SegosIndex
from repro.datasets import sample_queries
from repro.graphs.star import decompose


def test_fig20_ta_overhead(benchmark, aids_dataset, grid, report):
    data = aids_dataset.subset(grid.default_db_size)
    queries = sample_queries(data, grid.query_count, seed=71)
    engine = SegosIndex(
        data.graphs,
        k=grid.default_k,
        h=grid.default_h,
        topk_backend="ta",
        filter_tiers=PAPER_FILTER_TIERS,
    )
    tau = grid.default_tau

    share_series = Series("TA share of total")
    ta_series = Series("TA time (s)")
    for k in grid.k_values:
        ta_time = 0.0
        total_time = 0.0
        for query in queries:
            started = time.perf_counter()
            for star in decompose(query):
                engine.top_k_sub_units(star, k)
            ta_time += time.perf_counter() - started
            started = time.perf_counter()
            engine.range_query(query, tau=tau, k=k)
            total_time += time.perf_counter() - started
        ta_series.add(k, ta_time / len(queries))
        share_series.add(k, ta_time / total_time if total_time else 0.0)
    report(
        "fig20_ta_overhead",
        format_table(
            "Fig 20 (TA top-k overhead vs k_s, aids-like)",
            "k_s",
            list(grid.k_values),
            [ta_series, share_series],
        ),
    )
    benchmark.pedantic(
        lambda: [
            engine.top_k_sub_units(star, grid.default_k)
            for star in decompose(queries[0])
        ],
        rounds=1,
        iterations=1,
    )
    # Shape: the TA stage stays a small share of total query time.
    assert share_series.points[grid.default_k] < 0.5
