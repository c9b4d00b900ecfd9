"""Property-based tests (hypothesis) for the core invariants of DESIGN.md §5."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

try:  # only TestHungarianProperties needs scipy; the no-scipy leg skips it
    from scipy.optimize import linear_sum_assignment
except ImportError:  # pragma: no cover
    linear_sum_assignment = None

from repro.core.index import TwoLevelIndex
from repro.core.ta_search import brute_force_top_k, top_k_stars
from repro.graphs.edit_distance import graph_edit_distance
from repro.graphs.model import Graph
from repro.graphs.star import (
    Star,
    decompose,
    multiset_intersection_size,
    sed_via_common_leaves,
    star_edit_distance,
)
from repro.matching.hungarian import hungarian
from repro.matching.mapping import (
    DynamicMappingDistance,
    bounds,
    mapping_distance,
)

LABELS = "abcd"

labels_st = st.sampled_from(LABELS)
leaves_st = st.lists(labels_st, max_size=6)
star_st = st.builds(Star, labels_st, leaves_st)


@st.composite
def graph_st(draw, max_order=5):
    order = draw(st.integers(min_value=1, max_value=max_order))
    labels = [draw(labels_st) for _ in range(order)]
    graph = Graph(labels)
    for u in range(order):
        for v in range(u + 1, order):
            if draw(st.booleans()):
                graph.add_edge(u, v)
    return graph


class TestStarProperties:
    @given(star_st, star_st)
    def test_sed_symmetric(self, s1, s2):
        assert star_edit_distance(s1, s2) == star_edit_distance(s2, s1)

    @given(star_st)
    def test_sed_identity(self, s):
        assert star_edit_distance(s, s) == 0

    @given(star_st, star_st)
    def test_sed_positive_on_difference(self, s1, s2):
        if s1 != s2:
            assert star_edit_distance(s1, s2) >= 1

    @given(star_st, star_st, star_st)
    def test_sed_triangle_inequality(self, s1, s2, s3):
        assert star_edit_distance(s1, s3) <= star_edit_distance(
            s1, s2
        ) + star_edit_distance(s2, s3)

    @given(star_st, star_st)
    def test_equation_one_equals_lemma_one(self, query, other):
        psi = multiset_intersection_size(query.leaves, other.leaves)
        assert sed_via_common_leaves(
            query, other.root, other.leaf_size, psi
        ) == star_edit_distance(query, other)

    @given(leaves_st, leaves_st)
    def test_multiset_intersection_commutative(self, a, b):
        a, b = sorted(a), sorted(b)
        assert multiset_intersection_size(a, b) == multiset_intersection_size(b, a)


@pytest.mark.skipif(linear_sum_assignment is None, reason="needs scipy")
class TestHungarianProperties:
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.randoms(use_true_random=False),
    )
    def test_matches_scipy(self, n, extra, rnd):
        m = n + extra
        matrix = [[rnd.randint(0, 15) for _ in range(m)] for _ in range(n)]
        total, _ = hungarian(matrix)
        arr = np.array(matrix)
        rows, cols = linear_sum_assignment(arr)
        assert total == float(arr[rows, cols].sum())


class TestMappingProperties:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(graph_st(), graph_st())
    def test_bounds_sandwich_exact_ged(self, g1, g2):
        exact = graph_edit_distance(g1, g2)
        l_m, u_m, mu = bounds(g1, g2)
        assert l_m <= exact + 1e-9
        assert exact <= u_m

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(graph_st(), graph_st(), st.randoms(use_true_random=False))
    def test_partial_mapping_monotone_lower_bound(self, g1, g2, rnd):
        mu = mapping_distance(g1, g2)
        stars2 = decompose(g2)
        rnd.shuffle(stars2)
        dyn = DynamicMappingDistance(decompose(g1), len(stars2))
        previous = 0.0
        for star in stars2:
            value = dyn.reveal(star)
            assert previous - 1e-9 <= value <= mu + 1e-9
            previous = value
        assert abs(dyn.finalize() - mu) < 1e-9

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(graph_st(), graph_st())
    def test_mapping_distance_symmetric(self, g1, g2):
        assert mapping_distance(g1, g2) == mapping_distance(g2, g1)


class TestTASearchProperties:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.lists(graph_st(max_order=4), min_size=1, max_size=6),
        star_st,
        st.integers(min_value=1, max_value=5),
    )
    def test_top_k_matches_brute_force(self, graphs, query, k):
        index = TwoLevelIndex()
        for i, g in enumerate(graphs):
            index.add_graph(f"g{i}", g, decompose(g))
        got = top_k_stars(index, query, k)
        expected = brute_force_top_k(index, query, k)
        assert [sed for _, sed in got.entries] == [sed for _, sed in expected]


class TestGedProperties:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(graph_st(max_order=4), graph_st(max_order=4))
    def test_ged_symmetric(self, g1, g2):
        assert graph_edit_distance(g1, g2) == graph_edit_distance(g2, g1)

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(graph_st(max_order=4), graph_st(max_order=4), graph_st(max_order=4))
    def test_ged_triangle_inequality(self, g1, g2, g3):
        d13 = graph_edit_distance(g1, g3)
        d12 = graph_edit_distance(g1, g2)
        d23 = graph_edit_distance(g2, g3)
        assert d13 <= d12 + d23
