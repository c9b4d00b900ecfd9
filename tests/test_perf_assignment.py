"""Tests for the pluggable assignment backends (repro.perf.assignment)."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import chemical_like, make_label_alphabet
from repro.matching.hungarian import hungarian
from repro.matching.mapping import (
    mapping_distance,
    mapping_result,
    partial_mapping_distance,
)
from repro.config import ENV_ASSIGNMENT_BACKEND
from repro.graphs.star import decompose
from repro.perf import assignment
from repro.perf.assignment import (
    available_backends,
    resolve_backend,
    scipy_available,
    solve_assignment,
)

square_int_matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(
        st.lists(
            st.integers(min_value=0, max_value=50).map(float),
            min_size=n,
            max_size=n,
        ),
        min_size=n,
        max_size=n,
    )
)


class TestRegistry:
    def test_pure_always_registered(self):
        assert "pure" in available_backends()
        assert available_backends()["pure"] is True

    def test_resolve_precedence(self, monkeypatch):
        monkeypatch.delenv(ENV_ASSIGNMENT_BACKEND, raising=False)
        assert resolve_backend("pure") == "pure"
        monkeypatch.setenv(ENV_ASSIGNMENT_BACKEND, "pure")
        assert resolve_backend() == "pure"
        # Explicit argument beats the environment.
        assert resolve_backend("scipy") == "scipy"

    def test_resolve_auto(self, monkeypatch):
        monkeypatch.delenv(ENV_ASSIGNMENT_BACKEND, raising=False)
        expected = "scipy" if scipy_available() else "pure"
        assert resolve_backend() == expected
        assert resolve_backend("auto") == expected

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown assignment backend"):
            resolve_backend("fortran77")

    def test_engine_rejects_unknown_backend(self):
        from repro.core.engine import SegosIndex

        with pytest.raises(ValueError, match="unknown assignment backend"):
            SegosIndex(assignment_backend="fortran77")

    def test_scipy_falls_back_gracefully(self, monkeypatch):
        """Requesting scipy without SciPy installed must still solve."""
        monkeypatch.setattr(assignment, "_scipy_lsa", None)
        monkeypatch.setattr(assignment, "_scipy_checked", True)
        matrix = [[4.0, 1.0], [2.0, 0.0]]
        assert solve_assignment(matrix, "scipy") == hungarian(matrix)
        assert available_backends()["scipy"] is False
        assert resolve_backend("auto") == "pure"

    def test_empty_and_degenerate_matrices(self):
        for backend in ("pure", "scipy"):
            assert solve_assignment([], backend) == (0.0, [])
        with pytest.raises(ValueError):
            solve_assignment([[]], "scipy")


@pytest.mark.skipif(not scipy_available(), reason="SciPy not installed")
class TestBackendAgreement:
    @settings(max_examples=150, deadline=None)
    @given(matrix=square_int_matrices)
    def test_identical_costs_on_integer_matrices(self, matrix):
        """Integer-valued costs sum exactly: totals must be bit-identical."""
        pure_total, pure_assign = solve_assignment(matrix, "pure")
        scipy_total, scipy_assign = solve_assignment(matrix, "scipy")
        assert scipy_total == pure_total
        # Either optimal assignment must price to the optimal total.
        assert sum(matrix[i][j] for i, j in enumerate(scipy_assign)) == pure_total

    def test_rectangular_wide(self):
        matrix = [[3.0, 1.0, 2.0], [2.0, 4.0, 6.0]]
        pure = solve_assignment(matrix, "pure")
        scipy = solve_assignment(matrix, "scipy")
        assert scipy[0] == pure[0]
        assert all(col != -1 for col in scipy[1])

    def test_rectangular_tall_marks_unassigned_rows(self):
        matrix = [[3.0], [1.0], [2.0]]
        pure_total, pure_assign = solve_assignment(matrix, "pure")
        scipy_total, scipy_assign = solve_assignment(matrix, "scipy")
        assert scipy_total == pure_total == 1.0
        assert pure_assign.count(-1) == scipy_assign.count(-1) == 2
        assert scipy_assign[1] == 0

    def test_float_matrices_agree_closely(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 8)
            matrix = [[rng.random() * 10 for _ in range(n)] for _ in range(n)]
            pure_total, _ = solve_assignment(matrix, "pure")
            scipy_total, _ = solve_assignment(matrix, "scipy")
            assert math.isclose(pure_total, scipy_total, rel_tol=1e-9, abs_tol=1e-9)

    def test_identical_mapping_distances_on_random_graphs(self):
        """Definition 1's µ is backend-independent on real star matrices."""
        rng = random.Random(2012)
        labels = make_label_alphabet(6)
        graphs = [
            chemical_like(rng, labels, rng.randint(2, 10)) for _ in range(12)
        ]
        for g1 in graphs[:6]:
            for g2 in graphs[6:]:
                mu_pure = mapping_distance(g1, g2, backend="pure")
                mu_scipy = mapping_distance(g1, g2, backend="scipy")
                assert mu_pure == mu_scipy

    def test_partial_mapping_distance_backend_independent(self):
        rng = random.Random(99)
        labels = make_label_alphabet(4)
        g1 = chemical_like(rng, labels, 7)
        g2 = chemical_like(rng, labels, 9)
        qs, ds = decompose(g1), decompose(g2)
        for cut in range(len(ds) + 1):
            assert partial_mapping_distance(
                qs, ds[:cut], len(ds), backend="pure"
            ) == partial_mapping_distance(qs, ds[:cut], len(ds), backend="scipy")


class TestMappingResultContract:
    def test_mapping_result_upper_bound_stays_valid(self):
        """Backends may pick different optimal alignments; both must induce
        a vertex mapping whose edit cost upper-bounds GED (Lemma 3 holds
        for *any* mapping)."""
        from repro.graphs.edit_distance import graph_edit_distance
        from repro.matching.mapping import edit_cost_under_mapping

        rng = random.Random(5)
        labels = make_label_alphabet(3)
        for _ in range(8):
            g1 = chemical_like(rng, labels, rng.randint(2, 6))
            g2 = chemical_like(rng, labels, rng.randint(2, 6))
            ged = graph_edit_distance(g1, g2)
            for backend in ("pure", "scipy"):
                result = mapping_result(g1, g2, backend=backend)
                cost = edit_cost_under_mapping(g1, g2, result.vertex_mapping)
                assert cost >= ged
