"""The star edit distance is computed directly; the SED memo is gone.

Every call site prices a star pair with Lemma 1 itself.  What the memo
used to guarantee (the engine's SED equals Lemma 1's value, symmetrically)
is checked on the direct calls.  ``repro.sed_cache_info`` and
``repro.sed_cache_clear`` survive only for the ``perfbench`` harness and
must report a cache that does not exist: every counter 0, whatever runs.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.engine import SegosIndex
from repro.datasets import aids_like, sample_queries
from repro.graphs.star import Star, star_edit_distance
from repro.matching.mapping import star_cost_matrix
from repro.perf.sed_cache import CacheInfo, sed_cache_clear, sed_cache_info

ZERO = CacheInfo(hits=0, misses=0, maxsize=0, currsize=0)

labels = st.sampled_from(["a", "b", "c", "ab", "x"])
stars = st.builds(
    Star, labels, st.lists(labels, min_size=0, max_size=6).map(tuple)
)


def run_queries() -> None:
    data = aids_like(12, seed=7, mean_order=6, stddev=1)
    engine = SegosIndex(data.graphs, k=10, h=50)
    for query in sample_queries(data, 2, seed=8):
        engine.range_query(query, tau=2, verify="exact")


class TestSEDCacheUnit:
    def test_hit_and_miss_counters(self):
        run_queries()
        info = sed_cache_info()
        assert (info.hits, info.misses) == (0, 0)

    def test_symmetric_key_shares_one_entry(self):
        """SED is symmetric, so the cost matrix of (g2, g1) is the
        transpose of (g1, g2)'s."""
        s1, s2 = [Star("a", "bbc"), Star("c")], [Star("b", "ac")]
        forward = star_cost_matrix(s1, s2)
        backward = star_cost_matrix(s2, s1)
        assert forward == [list(col) for col in zip(*backward)]

    def test_zero_capacity_disables_without_counting(self):
        run_queries()
        info = sed_cache_info()
        assert (info.maxsize, info.currsize) == (0, 0)

    def test_clear_resets_everything(self):
        run_queries()
        assert sed_cache_clear() is None
        assert sed_cache_info() == ZERO

    def test_env_capacity(self, monkeypatch):
        """``REPRO_SED_CACHE_SIZE`` sizes nothing any more."""
        monkeypatch.setenv("REPRO_SED_CACHE_SIZE", "123")
        run_queries()
        assert sed_cache_info() == ZERO

    def test_global_helpers_roundtrip(self):
        assert repro.sed_cache_info is sed_cache_info
        assert repro.sed_cache_clear is sed_cache_clear
        assert sed_cache_info() == ZERO


class TestSEDCacheProperties:
    @settings(max_examples=100, deadline=None)
    @given(left=st.lists(stars, min_size=1, max_size=4),
           right=st.lists(stars, min_size=1, max_size=4))
    def test_cached_equals_uncached(self, left, right) -> None:
        """Every real-vs-real cell of the cost matrix is Lemma 1's value."""
        matrix = star_cost_matrix(left, right)
        for i, s1 in enumerate(left):
            for j, s2 in enumerate(right):
                assert matrix[i][j] == star_edit_distance(s1, s2)


def test_global_cache_bounded():
    """``perfbench`` reads ``currsize / maxsize`` as the memo's fill; with
    no memo both are 0, so the fill stays below 1."""
    info = sed_cache_info()
    assert info.currsize <= max(info.maxsize, 0)


def test_range_answers_identical_with_cache_disabled():
    """No state carries over between queries: a repeated workload answers
    the same on its second pass as on its first."""
    data = aids_like(30, seed=2012, mean_order=8, stddev=2)
    workload = sample_queries(data, 3, seed=2013)
    engine = SegosIndex(data.graphs, k=15, h=50)
    first = [set(engine.range_query(q, tau=2).candidates) for q in workload]
    again = [set(engine.range_query(q, tau=2).candidates) for q in workload]
    assert first == again
