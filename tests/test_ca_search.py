"""Tests for the CA range query (Algorithm 3): soundness and behaviour."""

from __future__ import annotations

import queue
import random
import threading
from types import SimpleNamespace

import pytest

from repro.core import pipeline
from repro.core.ca_search import ca_range_query
from repro.core.engine import SegosIndex
from repro.core.graph_lists import build_all_lists
from repro.core.index import TwoLevelIndex
from repro.core.stats import QueryStats
from repro.graphs.edit_distance import graph_edit_distance
from repro.graphs.generators import corpus, make_label_alphabet, mutate
from repro.graphs.model import Graph, normalization_factor
from repro.graphs.star import decompose
from repro.matching.mapping import mapping_distance


def build_setup(seed, count=25, mean_order=7):
    rng = random.Random(seed)
    graphs = {
        f"g{i}": g
        for i, g in enumerate(
            corpus(rng, count, kind="chemical", mean_order=mean_order, stddev=2)
        )
    }
    index = TwoLevelIndex()
    for gid, g in graphs.items():
        index.add_graph(gid, g, decompose(g))
    return rng, graphs, index


def mutated_query(rng, graphs):
    labels = make_label_alphabet(63, prefix="C")
    base = rng.choice(list(graphs.values()))
    return mutate(rng, base, rng.randint(0, 2), labels)


def run_ca(index, graphs, query, tau, *, k=10, h=20, partial_fraction=0.5):
    lists = build_all_lists(index, decompose(query), query.order, k)
    return ca_range_query(
        index,
        graphs,
        query,
        tau,
        lists,
        h=h,
        partial_fraction=partial_fraction,
        stats=QueryStats(),
    )


class TestSoundness:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("tau", [0, 1, 2])
    def test_no_false_negatives_vs_exact_ged(self, seed, tau):
        rng, graphs, index = build_setup(seed)
        query = mutated_query(rng, graphs)
        truth = {
            gid
            for gid, g in graphs.items()
            if graph_edit_distance(query, g, threshold=tau) is not None
        }
        result = run_ca(index, graphs, query, tau)
        assert truth <= set(result.candidates)
        # Confirmed matches must be real answers.
        assert result.confirmed <= truth

    def test_no_false_negatives_vs_mapping_bound(self):
        """Candidates must cover every graph passing the L_m filter."""
        rng, graphs, index = build_setup(99)
        query = rng.choice(list(graphs.values())).copy()
        tau = 2
        result = run_ca(index, graphs, query, tau)
        cstar_pass = {
            gid
            for gid, g in graphs.items()
            if mapping_distance(query, g) / normalization_factor(query, g) <= tau
        }
        # SEGOS may add a few extras via early U_µ acceptance but must not
        # miss anything L_m keeps.
        assert cstar_pass <= set(result.candidates)


class TestParameters:
    def test_h_does_not_change_soundness(self):
        rng, graphs, index = build_setup(5)
        query = rng.choice(list(graphs.values())).copy()
        tau = 1
        reference = None
        for h in (1, 7, 50, 500):
            result = run_ca(index, graphs, query, tau, h=h)
            confirmed = set(result.confirmed)
            if reference is None:
                reference = confirmed
            else:
                assert confirmed == reference

    def test_small_k_still_sound(self):
        rng, graphs, index = build_setup(6)
        labels = make_label_alphabet(63, prefix="C")
        query = mutate(rng, rng.choice(list(graphs.values())), 1, labels)
        tau = 2
        truth = {
            gid
            for gid, g in graphs.items()
            if graph_edit_distance(query, g, threshold=tau) is not None
        }
        for k in (1, 2, 5):
            result = run_ca(index, graphs, query, tau, k=k)
            assert truth <= set(result.candidates)

    def test_invalid_parameters(self):
        rng, graphs, index = build_setup(7)
        query = next(iter(graphs.values()))
        with pytest.raises(ValueError):
            run_ca(index, graphs, query, -1)
        lists = build_all_lists(index, decompose(query), query.order, 5)
        with pytest.raises(ValueError):
            ca_range_query(index, graphs, query, 1, lists, h=0)

    def test_partial_fraction_one_defers_hungarian(self):
        """With partial_fraction > 1 the partial check never fires early."""
        rng, graphs, index = build_setup(8)
        query = rng.choice(list(graphs.values())).copy()
        result = run_ca(index, graphs, query, 1, partial_fraction=2.0)
        assert "partial_mu" not in result.stats.pruned_by or (
            result.stats.pruned_by["partial_mu"] >= 0
        )


class TestStats:
    def test_counters_consistent(self):
        rng, graphs, index = build_setup(9)
        query = rng.choice(list(graphs.values())).copy()
        result = run_ca(index, graphs, query, 1)
        stats = result.stats
        assert stats.candidates == len(result.candidates)
        assert stats.confirmed_matches == len(result.confirmed)
        assert stats.graphs_accessed >= stats.linear_fallback
        assert stats.list_entries_scanned >= 0
        total_accounted = (
            stats.candidates
            + sum(stats.pruned_by.values())
            + stats.resolved_by_aggregation
        )
        assert total_accounted >= 0  # smoke: counters populated sanely

    def test_tau_zero_keeps_self(self):
        rng, graphs, index = build_setup(10)
        gid, query = next(iter(graphs.items()))
        result = run_ca(index, graphs, query.copy(), 0)
        # The graph itself must survive filtering.  Whether it is already
        # *confirmed* depends on which bound resolved it: the early U_µ
        # acceptance (Algorithm 3) stops before computing the U_m edit cost.
        assert gid in result.candidates

    def test_large_tau_returns_everything(self):
        rng, graphs, index = build_setup(11, count=10)
        query = next(iter(graphs.values())).copy()
        result = run_ca(index, graphs, query, 50)
        assert set(result.candidates) == set(graphs)


# ----------------------------------------------------------------------
# Access counts behind Figs. 20-21, pinned for both CA executors
# ----------------------------------------------------------------------
class _SteppedSchedule:
    """Thread and queue stand-ins that give the pipelined CA one schedule.

    The TA stage runs to the end when started, so CA sees every list from
    its first round.  The DC stages run only once CA blocks on their
    results (or at ``join``), so no early DC verdict races the scan.
    """

    def __init__(self):
        self.deferred = []
        schedule = self

        class Thread:
            def __init__(self, target, args=(), name=None):
                self._target, self._args, self.name = target, args, name
                self._done = False

            def start(self):
                if self.name == "segos-ta":
                    self.run()
                else:
                    schedule.deferred.append(self)

            def run(self):
                if not self._done:
                    self._done = True
                    self._target(*self._args)

            join = run

        class Queue(queue.Queue):
            def get(self, block=True, timeout=None):
                while block and self.empty() and schedule.deferred:
                    schedule.deferred.pop(0).run()
                return super().get(block, timeout)

        self.threading = SimpleNamespace(Thread=Thread, Event=threading.Event)
        self.queue = SimpleNamespace(Queue=Queue, Empty=queue.Empty)


def access_counts(stats):
    return (
        stats.list_entries_scanned,
        stats.graphs_accessed,
        stats.full_mapping_computations,
    )


def pipelined_counts(graphs, query, tau, monkeypatch):
    schedule = _SteppedSchedule()
    monkeypatch.setattr(pipeline, "threading", schedule.threading)
    monkeypatch.setattr(pipeline, "queue", schedule.queue)
    result = pipeline.PipelinedSegos(SegosIndex(graphs), k=10).range_query(query, tau=tau)
    return access_counts(result.stats)


#: (seed, tau) -> (list_entries_scanned, graphs_accessed,
#: full_mapping_computations): serial CA (k=10, h=20), then pipelined CA.
SERIAL_COUNTS = {
    (0, 0): (12, 0, 0), (0, 1): (23, 0, 0), (0, 2): (70, 11, 9), (0, 3): (70, 24, 23),
    (1, 0): (10, 0, 0), (1, 1): (20, 0, 0), (1, 2): (20, 1, 1), (1, 3): (40, 0, 0),
    (2, 0): (24, 1, 0), (2, 1): (24, 1, 0), (2, 2): (24, 0, 0), (2, 3): (36, 0, 0),
    (3, 0): (9, 0, 0), (3, 1): (18, 1, 1), (3, 2): (18, 1, 1), (3, 3): (45, 11, 9),
    (4, 0): (13, 0, 0), (4, 1): (19, 1, 1), (4, 2): (37, 1, 1), (4, 3): (77, 11, 9),
    (5, 0): (10, 0, 0), (5, 1): (20, 0, 0), (5, 2): (66, 14, 14), (5, 3): (66, 24, 23),
}
PIPELINED_COUNTS = {
    (0, 0): (12, 0, 0), (0, 1): (23, 0, 0), (0, 2): (70, 11, 9), (0, 3): (70, 24, 23),
    (1, 0): (10, 0, 0), (1, 1): (20, 0, 0), (1, 2): (20, 1, 1), (1, 3): (40, 1, 0),
    (2, 0): (24, 1, 0), (2, 1): (24, 1, 0), (2, 2): (24, 1, 0), (2, 3): (36, 1, 0),
    (3, 0): (9, 0, 0), (3, 1): (18, 1, 1), (3, 2): (18, 1, 1), (3, 3): (45, 11, 9),
    (4, 0): (13, 0, 0), (4, 1): (19, 1, 1), (4, 2): (37, 1, 1), (4, 3): (77, 11, 9),
    (5, 0): (10, 0, 0), (5, 1): (20, 1, 0), (5, 2): (66, 15, 14), (5, 3): (66, 25, 23),
}


class TestAccessCounts:
    @pytest.mark.parametrize("seed, tau", sorted(SERIAL_COUNTS))
    def test_serial_counts_pinned(self, seed, tau):
        rng, graphs, index = build_setup(seed)
        query = mutated_query(rng, graphs)
        result = run_ca(index, graphs, query, tau)
        assert access_counts(result.stats) == SERIAL_COUNTS[seed, tau]

    @pytest.mark.parametrize("seed, tau", sorted(PIPELINED_COUNTS))
    def test_pipelined_counts_pinned(self, seed, tau, monkeypatch):
        rng, graphs, _ = build_setup(seed)
        query = mutated_query(rng, graphs)
        counts = pipelined_counts(graphs, query, tau, monkeypatch)
        assert counts == PIPELINED_COUNTS[seed, tau]
