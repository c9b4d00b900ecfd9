"""Shared fixtures: the paper's worked-example graphs and small corpora."""

from __future__ import annotations

import random

import pytest

from repro.core.engine import SegosIndex
from repro.core.persistence import load_index, save_index
from repro.datasets import aids_like, pdg_like
from repro.graphs.model import Graph


def make_paper_g1() -> Graph:
    """Figure 2's g1: star representation {abbcc, bab, babcc, cab, cab}."""
    return Graph(
        ["a", "b", "b", "c", "c"],
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (2, 4)],
    )


def make_paper_g2() -> Graph:
    """Figure 2's g2: stars {abbccd, bab, babccd, cab, cab, dab}."""
    return Graph(
        ["a", "b", "b", "c", "c", "d"],
        [
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (0, 5),
            (1, 2),
            (2, 3),
            (2, 4),
            (2, 5),
        ],
    )


@pytest.fixture
def paper_g1() -> Graph:
    return make_paper_g1()


@pytest.fixture
def paper_g2() -> Graph:
    return make_paper_g2()


@pytest.fixture(scope="session")
def small_aids():
    """60 chemical-like graphs, ~8 vertices (fast enough for exact GED)."""
    return aids_like(60, seed=101, mean_order=8.0, stddev=2.0, min_order=3)


@pytest.fixture(scope="session")
def small_pdg():
    """60 PDG-like graphs, uniform sizes 5..11."""
    return pdg_like(60, seed=202, mean_order=8.0, min_order=5, max_order=11)


@pytest.fixture(scope="session")
def saved_engine(tmp_path_factory):
    """Factory: ``saved_engine(graphs, **engine_kwargs)`` → a loaded engine.

    Builds ``SegosIndex(graphs, **engine_kwargs)``, saves it to a fresh
    temp directory and returns ``load_index`` of it — an engine attached
    to its on-disk index, which is what pool workers attach by
    (``disk_handle()``).  Engine kwargs persist in the saved header, so a
    ``fault_plan`` or ``task_timeout`` given here holds for the loaded
    engine too.  Gids come back as strings.
    """

    def build(graphs, **engine_kwargs) -> SegosIndex:
        path = tmp_path_factory.mktemp("saved") / "db.segos"
        save_index(SegosIndex(graphs, **engine_kwargs), path)
        engine = load_index(path)
        assert engine.disk_handle() is not None
        return engine

    return build


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
