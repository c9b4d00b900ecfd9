"""Figure 14: index construction time vs |D| (both datasets).

Paper: SEGOS builds fastest (one dataset scan into two inverted indexes),
κ-AT needs κ passes worth of feature extraction, and C-Tree's hierarchy is
the slowest.
"""

from __future__ import annotations

import pytest

from repro.baselines import CTree, KappaAT, SegosMethod
from repro.bench import Series, format_table, time_build


def build_segos(graphs):
    """SEGOS with both index levels built.

    The lower level is derived from the star catalog on first read, so
    the timed build reads it once to keep the paper's two-level cost.
    """
    method = SegosMethod(graphs)
    method.engine.index.lower.stats()
    return method


def sweep_build_times(dataset, grid):
    series = {
        "SEGOS": Series("SEGOS (s)"),
        "κ-AT": Series("κ-AT (s)"),
        "C-Tree": Series("C-Tree (s)"),
    }
    for size in grid.db_sizes:
        graphs = dataset.subset(size).graphs
        _, t = time_build(lambda: build_segos(graphs))
        series["SEGOS"].add(size, t)
        _, t = time_build(lambda: KappaAT(graphs, kappa=2))
        series["κ-AT"].add(size, t)
        _, t = time_build(lambda: CTree(graphs))
        series["C-Tree"].add(size, t)
    return series


@pytest.mark.parametrize("which", ["aids", "pdg"])
def test_fig14_build_time(benchmark, which, aids_dataset, pdg_dataset, grid, report):
    dataset = aids_dataset if which == "aids" else pdg_dataset
    series = sweep_build_times(dataset, grid)
    report(
        f"fig14_build_time_{which}",
        format_table(
            f"Fig 14 (index build time vs |D|, {dataset.name})",
            "|D|",
            list(grid.db_sizes),
            list(series.values()),
        ),
    )
    graphs = dataset.subset(grid.default_db_size).graphs
    benchmark.pedantic(lambda: build_segos(graphs), rounds=1, iterations=1)
