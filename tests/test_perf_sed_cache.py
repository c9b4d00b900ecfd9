"""Tests for the global SED memo cache (repro.perf.sed_cache)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SegosIndex
from repro.datasets import aids_like, sample_queries
from repro.graphs.star import Star, star_edit_distance
from repro.perf.sed_cache import (
    GLOBAL_SED_CACHE,
    SEDCache,
    cached_star_edit_distance,
    sed_cache_clear,
    sed_cache_info,
)

labels = st.sampled_from(["a", "b", "c", "ab", "x"])
stars = st.builds(
    Star, labels, st.lists(labels, min_size=0, max_size=6).map(tuple)
)


class TestSEDCacheUnit:
    def test_hit_and_miss_counters(self):
        cache = SEDCache(maxsize=8)
        s1, s2 = Star("a", "bc"), Star("a", "bd")
        assert cache.distance(s1, s2) == star_edit_distance(s1, s2)
        assert cache.distance(s1, s2) == star_edit_distance(s1, s2)
        info = cache.info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert info.requests == 2
        assert info.hit_rate == pytest.approx(0.5)

    def test_symmetric_key_shares_one_entry(self):
        cache = SEDCache(maxsize=8)
        s1, s2 = Star("a", "bbc"), Star("b", "ac")
        first = cache.distance(s1, s2)
        second = cache.distance(s2, s1)
        assert first == second
        info = cache.info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_bounded_eviction_drops_oldest(self):
        cache = SEDCache(maxsize=2)
        a, b, c = Star("a"), Star("b"), Star("c")
        cache.distance(a, a)
        cache.distance(b, b)
        cache.distance(c, c)  # over capacity: evicts (a, a), the oldest
        assert cache.info().currsize == 2
        cache.distance(b, b)
        cache.distance(c, c)
        assert cache.info().hits == 2  # survivors still served
        cache.distance(a, a)
        assert cache.info().misses == 4  # (a, a) was evicted, recomputed

    def test_zero_capacity_disables_without_counting(self):
        cache = SEDCache(maxsize=0)
        s = Star("a", "bc")
        assert cache.distance(s, s) == 0
        info = cache.info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_clear_resets_everything(self):
        cache = SEDCache(maxsize=8)
        cache.distance(Star("a"), Star("b"))
        cache.distance(Star("a"), Star("b"))
        cache.clear()
        info = cache.info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_resize_shrinks_in_place(self):
        cache = SEDCache(maxsize=8)
        for label in "abcdef":
            cache.distance(Star(label), Star(label))
        cache.resize(3)
        assert cache.info().currsize == 3
        assert cache.info().maxsize == 3

    def test_env_capacity(self, monkeypatch):
        from repro.perf import sed_cache as module

        monkeypatch.setenv(module.ENV_CAPACITY, "123")
        assert module._capacity_from_env() == 123
        monkeypatch.setenv(module.ENV_CAPACITY, "not-a-number")
        assert module._capacity_from_env() == module.DEFAULT_CAPACITY
        monkeypatch.delenv(module.ENV_CAPACITY)
        assert module._capacity_from_env() == module.DEFAULT_CAPACITY

    def test_global_helpers_roundtrip(self):
        sed_cache_clear()
        s1, s2 = Star("q", "rs"), Star("q", "rt")
        assert cached_star_edit_distance(s1, s2) == star_edit_distance(s1, s2)
        assert sed_cache_info().misses == 1
        assert cached_star_edit_distance(s1, s2) == star_edit_distance(s1, s2)
        assert sed_cache_info().hits == 1
        sed_cache_clear()
        assert sed_cache_info().requests == 0


class TestSEDCacheProperties:
    @settings(max_examples=200, deadline=None)
    @given(s1=stars, s2=stars)
    def test_cached_equals_uncached(self, s1: Star, s2: Star) -> None:
        """The memoised SED is bit-identical to Lemma 1's direct value."""
        assert cached_star_edit_distance(s1, s2) == star_edit_distance(s1, s2)
        # And again, now that the pair is (very likely) a cache hit.
        assert cached_star_edit_distance(s1, s2) == star_edit_distance(s1, s2)

    @settings(max_examples=100, deadline=None)
    @given(s1=stars, s2=stars)
    def test_tiny_cache_still_exact(self, s1: Star, s2: Star) -> None:
        """Constant eviction churn never corrupts results."""
        cache = SEDCache(maxsize=2)
        for _ in range(2):
            assert cache.distance(s1, s2) == star_edit_distance(s1, s2)
            assert cache.distance(s2, s1) == star_edit_distance(s2, s1)
        assert cache.info().currsize <= 2


def test_global_cache_bounded():
    assert GLOBAL_SED_CACHE.info().currsize <= max(GLOBAL_SED_CACHE.maxsize, 0)


def test_range_answers_identical_with_cache_disabled():
    """The memo changes no query answer: a repeated workload (cold misses,
    then warm hits) gives the same candidates with the cache off."""
    data = aids_like(30, seed=2012, mean_order=8, stddev=2)
    workload = sample_queries(data, 3, seed=2013) * 2
    before = GLOBAL_SED_CACHE.maxsize

    def candidates(size):
        engine = SegosIndex(data.graphs, k=15, h=50, sed_cache_size=size)
        GLOBAL_SED_CACHE.clear()
        return [set(engine.range_query(q, tau=2).candidates) for q in workload]

    try:
        uncached = candidates(0)
        cached = candidates(before or 1024)
        assert sed_cache_info().hits > 0
    finally:
        GLOBAL_SED_CACHE.resize(before)
    assert cached == uncached
