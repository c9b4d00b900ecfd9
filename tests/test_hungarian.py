"""Unit tests for the Hungarian algorithm and its dynamic updates."""

from __future__ import annotations

import random

import numpy as np
import pytest

# These tests grade our solver against scipy's; the no-scipy CI leg skips
# them (the solver itself is pure Python and covered elsewhere).
linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment

from repro.matching.hungarian import HungarianSolver, hungarian


def reference_cost(matrix) -> float:
    arr = np.array(matrix, dtype=float)
    rows, cols = linear_sum_assignment(arr)
    return float(arr[rows, cols].sum())


class TestHungarian:
    def test_trivial_1x1(self):
        total, assignment = hungarian([[7]])
        assert total == 7
        assert assignment == [0]

    def test_empty(self):
        assert hungarian([]) == (0.0, [])

    def test_zero_columns_rejected(self):
        with pytest.raises(ValueError):
            hungarian([[]])

    def test_known_square(self):
        total, assignment = hungarian([[4, 1, 3], [2, 0, 5], [3, 2, 2]])
        assert total == 5
        assert sorted(assignment) == [0, 1, 2]

    def test_rectangular_wide(self):
        total, assignment = hungarian([[9, 1, 9], [1, 9, 9]])
        assert total == 2
        assert assignment == [1, 0]

    def test_rectangular_tall_leaves_rows_unmatched(self):
        total, assignment = hungarian([[1], [2], [3]])
        assert total == 1
        assert assignment.count(-1) == 2
        assert assignment[0] == 0

    def test_negative_costs(self):
        total, _ = hungarian([[-5, 0], [0, -5]])
        assert total == -10

    def test_float_costs(self):
        total, _ = hungarian([[0.5, 1.5], [1.5, 0.25]])
        assert total == pytest.approx(0.75)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_vs_scipy(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        m = rng.randint(n, 14)
        if seed % 3 == 0:
            n, m = m, n  # exercise the transpose path
        matrix = [[rng.randint(0, 30) for _ in range(m)] for _ in range(n)]
        total, assignment = hungarian(matrix)
        assert total == pytest.approx(reference_cost(matrix))
        chosen = [c for c in assignment if c != -1]
        assert len(set(chosen)) == len(chosen)
        assert sum(
            matrix[i][c] for i, c in enumerate(assignment) if c != -1
        ) == pytest.approx(total)


class TestSolverValidation:
    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValueError):
            HungarianSolver([[1, 2], [3]])

    def test_more_rows_than_cols_rejected(self):
        with pytest.raises(ValueError):
            HungarianSolver([[1], [2]])

    def test_cost_before_solve_raises(self):
        solver = HungarianSolver([[1, 2], [3, 4]])
        with pytest.raises(RuntimeError):
            solver.cost()

    def test_update_column_bad_index(self):
        solver = HungarianSolver([[1, 2]])
        with pytest.raises(IndexError):
            solver.update_column(5, [0])

    def test_update_column_bad_length(self):
        solver = HungarianSolver([[1, 2]])
        with pytest.raises(ValueError):
            solver.update_column(0, [0, 0])

    def test_update_row_bad_index(self):
        solver = HungarianSolver([[1, 2]])
        with pytest.raises(IndexError):
            solver.update_row(3, [0, 0])

    def test_update_row_bad_length(self):
        solver = HungarianSolver([[1, 2]])
        with pytest.raises(ValueError):
            solver.update_row(0, [0])


class TestDynamicUpdates:
    def test_column_update_reoptimises(self):
        solver = HungarianSolver([[0, 10], [10, 0]])
        assert solver.solve() == 0
        solver.update_column(0, [10, 0])
        # Now both rows prefer opposite columns: optimum is 10+10? No —
        # col0=[10,0], col1=[10,0]: rows pick (0,col?) best total = 10+0.
        assert solver.cost() == pytest.approx(reference_cost([[10, 10], [0, 0]]))

    def test_update_before_solve_is_plain_write(self):
        solver = HungarianSolver([[5, 5], [5, 5]])
        solver.update_column(0, [1, 1])
        assert solver.solve() == pytest.approx(6)

    def test_current_cost_of(self):
        solver = HungarianSolver([[1, 9], [9, 1]])
        solver.solve()
        assert solver.current_cost_of(0) == 1
        assert solver.current_cost_of(1) == 1

    def test_assignment_excludes_padding_rows(self):
        solver = HungarianSolver([[3, 1, 2]])
        solver.solve()
        assert len(solver.assignment()) == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_random_update_sequences_vs_scipy(self, seed):
        rng = random.Random(1000 + seed)
        n = rng.randint(2, 7)
        m = rng.randint(n, 8)
        matrix = [[rng.randint(0, 20) for _ in range(m)] for _ in range(n)]
        solver = HungarianSolver(matrix)
        solver.solve()
        current = [row[:] for row in matrix]
        for _ in range(10):
            if rng.random() < 0.5:
                col = rng.randrange(m)
                new = [rng.randint(0, 20) for _ in range(n)]
                for i in range(n):
                    current[i][col] = new[i]
                solver.update_column(col, new)
            else:
                row = rng.randrange(n)
                new = [rng.randint(0, 20) for _ in range(m)]
                current[row][:] = new
                solver.update_row(row, new)
            assert solver.cost() == pytest.approx(reference_cost(current))

    def test_monotone_column_reveal(self):
        """Zero columns priced up one at a time never decrease the optimum."""
        rng = random.Random(42)
        n = 6
        solver = HungarianSolver([[0.0] * n for _ in range(n)])
        solver.solve()
        previous = solver.cost()
        assert previous == 0
        for col in range(n):
            solver.update_column(col, [rng.randint(0, 9) for _ in range(n)])
            assert solver.cost() >= previous
            previous = solver.cost()
