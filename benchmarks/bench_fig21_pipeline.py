"""Figure 21: SEGOS-Pipeline vs SEGOS across τ (both datasets).

Paper: the pipelined three-stage processor is at least as fast as the plain
algorithm, with a growing advantage as τ (and hence the access number)
increases.  CPython's GIL shrinks the wall-clock gap here, so the reported
series are the interesting artefact; the shape assertion is on soundness
(same confirmed answers) rather than strict time ordering.
"""

from __future__ import annotations

import pytest

from repro.bench import Series, format_table
from repro.config import PAPER_FILTER_TIERS
from repro.core.engine import SegosIndex
from repro.core.pipeline import PipelinedSegos
from repro.datasets import sample_queries


@pytest.mark.parametrize("which", ["aids", "pdg"])
def test_fig21_pipeline(benchmark, which, aids_dataset, pdg_dataset, grid, report):
    dataset = aids_dataset if which == "aids" else pdg_dataset
    data = dataset.subset(grid.default_db_size)
    queries = sample_queries(data, grid.query_count, seed=81)
    engine = SegosIndex(
        data.graphs,
        k=grid.default_k,
        h=grid.default_h,
        filter_tiers=PAPER_FILTER_TIERS,
    )
    pipeline = PipelinedSegos(engine)

    plain_series = Series("SEGOS time (s)")
    piped_series = Series("SEGOS-Pipeline time (s)")
    access_series = Series("SEGOS-Pipeline access#")
    for tau in grid.tau_values:
        plain_time = piped_time = 0.0
        accesses = 0
        for query in queries:
            plain = engine.range_query(query, tau=tau)
            piped = pipeline.range_query(query, tau=tau)
            plain_time += plain.elapsed
            piped_time += piped.elapsed
            accesses += piped.stats.graphs_accessed
            # Both must agree on every upper-bound-confirmed answer.
            assert plain.matches <= set(piped.candidates)
            assert piped.matches <= set(plain.candidates)
        plain_series.add(tau, plain_time / len(queries))
        piped_series.add(tau, piped_time / len(queries))
        access_series.add(tau, accesses / len(queries))
    report(
        f"fig21_pipeline_{which}",
        format_table(
            f"Fig 21 (pipeline vs plain, {data.name})",
            "τ",
            list(grid.tau_values),
            [plain_series, piped_series, access_series],
        ),
    )
    benchmark.pedantic(
        lambda: pipeline.range_query(queries[0], tau=grid.default_tau),
        rounds=1,
        iterations=1,
    )
