"""Ablation: what does the two-level index buy over a one-level design?

SEGOS's lower level exists so the TA stage can find similar sub-units
without scanning the whole star catalog.  This bench compares, per query
star, the TA search's sorted accesses against the catalog size (what a
one-level index would scan), and the end-to-end effect of replacing the
TA result with an exhaustive catalog scan (k = |catalog|).  The engine and
every search pin ``topk_backend="ta"``: the default backend is the
columnar scan, which performs no sorted accesses.
"""

from __future__ import annotations

import time

import pytest

from repro.bench import Series, format_table
from repro.core.engine import SegosIndex
from repro.core.ta_search import brute_force_top_k, top_k_stars
from repro.datasets import sample_queries
from repro.graphs.star import decompose


def test_ablation_two_level_index(benchmark, aids_dataset, grid, report):
    data = aids_dataset.subset(grid.default_db_size)
    queries = sample_queries(data, grid.query_count, seed=93)
    engine = SegosIndex(
        data.graphs, k=grid.default_k, h=grid.default_h, topk_backend="ta"
    )
    catalog_size = engine.distinct_star_count()

    ta_access = Series("TA sorted accesses")
    ta_time = Series("TA time (ms)")
    brute_time = Series("catalog scan time (ms)")
    for k in grid.k_values:
        accesses = 0
        elapsed = brute = 0.0
        stars = 0
        for query in queries:
            for star in decompose(query):
                stars += 1
                started = time.perf_counter()
                result = top_k_stars(engine.index, star, k, backend="ta")
                elapsed += time.perf_counter() - started
                accesses += result.accesses
                started = time.perf_counter()
                brute_force_top_k(engine.index, star, k)
                brute += time.perf_counter() - started
        ta_access.add(k, accesses / stars)
        ta_time.add(k, 1000 * elapsed / stars)
        brute_time.add(k, 1000 * brute / stars)

    report(
        "ablation_two_level_index",
        format_table(
            f"Ablation: TA over the lower level vs full catalog scan "
            f"({catalog_size} stars)",
            "k",
            list(grid.k_values),
            [ta_access, ta_time, brute_time],
        ),
    )
    benchmark.pedantic(
        lambda: top_k_stars(
            engine.index, decompose(queries[0])[0], grid.default_k, backend="ta"
        ),
        rounds=1,
        iterations=1,
    )
    # The TA search at small k must access far fewer entries than the
    # catalog holds, and must actually access some (a search that read
    # nothing did not run Algorithm 2).
    k0 = grid.k_values[0]
    assert ta_access.points[k0] > 0
    assert ta_access.points[k0] < catalog_size
