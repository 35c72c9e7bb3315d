import numpy as np
import pytest

from csfm import l1
from csfm.errors import RankDeficientSystemError, ValidationError
from csfm.l1 import SparseLinearSystem, solve_l1, solve_weighted_ls


def dense_system(A, b):
    A = np.asarray(A, float)
    rows, cols = np.nonzero(A)
    return SparseLinearSystem(
        rows=A.shape[0],
        cols=A.shape[1],
        row_idx=rows,
        col_idx=cols,
        values=A[rows, cols],
        rhs=np.asarray(b, float),
    )


class TestWeightedLs:
    def test_unit_weights_square_solve(self):
        sys = dense_system([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0])
        assert np.allclose(solve_weighted_ls(sys, np.ones(2)), [1.0, 2.0], atol=1e-12)

    def test_tiny_weight_suppresses_outlier_row(self):
        # oracle: solve the system with the outlier row deleted
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
        b = np.array([1.0, 2.0, 3.0, 50.0])
        clean = np.linalg.lstsq(A[:3], b[:3], rcond=None)[0]
        w = np.array([1.0, 1.0, 1.0, 1e-12])
        assert np.allclose(solve_weighted_ls(dense_system(A, b), w), clean, atol=1e-6)

    def test_duplicate_inconsistent_rows_average(self):
        sys = dense_system([[1.0], [1.0]], [1.0, 3.0])
        assert solve_weighted_ls(sys, np.ones(2))[0] == pytest.approx(2.0, abs=1e-12)

    def test_singular_raises(self):
        sys = SparseLinearSystem(
            rows=2, cols=2, row_idx=[0, 1], col_idx=[0, 0], values=[1.0, 1.0], rhs=[1.0, 2.0]
        )
        with pytest.raises(RankDeficientSystemError):
            solve_weighted_ls(sys, np.ones(2))

    def test_bad_weights(self):
        sys = dense_system([[1.0]], [1.0])
        with pytest.raises(ValidationError):
            solve_weighted_ls(sys, np.array([0.0]))
        with pytest.raises(ValidationError):
            solve_weighted_ls(sys, np.array([1.0, 2.0]))


class TestSolveL1:
    def test_square_identity(self):
        assert np.allclose(
            solve_l1(dense_system(np.eye(2), [1.0, 2.0])), [1.0, 2.0], atol=1e-12
        )

    def test_scalar_median_rejects_outlier(self):
        # L1 minimizer of a scalar location problem is the median (here 0);
        # the epsilon smoothing may leave a tiny bias
        sys = dense_system([[1.0], [1.0], [1.0]], [0.0, 0.0, 10.0])
        assert abs(solve_l1(sys)[0]) <= 1e-4

    def test_single_column_single_row(self):
        assert solve_l1(dense_system([[1.0]], [7.0]))[0] == pytest.approx(7.0, abs=1e-12)

    def test_consistent_system_exact_for_any_epsilon(self, monkeypatch):
        rng = np.random.default_rng(0)
        for epsilon in (1e-3, 1e-5, 1e-8):
            monkeypatch.setattr(l1, "EPSILON", epsilon)
            A = rng.normal(size=(12, 4))
            x_true = rng.normal(size=4)
            sys = dense_system(A, A @ x_true)
            x = solve_l1(sys)
            assert np.allclose(x, x_true, atol=1e-8)

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(30, 5))
        b = A @ rng.normal(size=5) + rng.standard_t(df=1, size=30)  # heavy tails
        history = []
        solve_l1(dense_system(A, b), iteration_callback=lambda it, x, obj: history.append(obj))
        assert len(history) > 1
        for prev, cur in zip(history, history[1:]):
            assert cur <= prev + 1e-12

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(20, 3))
        b = A @ rng.normal(size=3) + rng.normal(scale=0.1, size=20)
        x1 = solve_l1(dense_system(A, b))
        perm = rng.permutation(20)
        x2 = solve_l1(dense_system(A[perm], b[perm]))
        assert np.allclose(x1, x2, atol=1e-8)

    def test_gross_outliers_with_tight_epsilon(self):
        # redundant consistent rows + 30% gross corruption: EPSILON is
        # small enough to drive the smoothing bias below 1e-6
        rng = np.random.default_rng(3)
        x_true = np.array([1.5, -2.0, 0.25])
        A = rng.normal(size=(30, 3))
        b = A @ x_true
        b[rng.choice(30, size=9, replace=False)] += rng.uniform(50, 100, size=9)
        x = solve_l1(dense_system(A, b))
        assert np.allclose(x, x_true, atol=1e-6)


class TestValidation:
    def test_rows_must_cover_cols(self):
        with pytest.raises(ValidationError):
            SparseLinearSystem(rows=1, cols=2, row_idx=[0], col_idx=[0], values=[1.0], rhs=[1.0])

    def test_duplicate_triplet(self):
        with pytest.raises(ValidationError):
            SparseLinearSystem(
                rows=2, cols=1, row_idx=[0, 0], col_idx=[0, 0], values=[1.0, 2.0], rhs=[1.0, 2.0]
            )

    def test_index_out_of_range(self):
        with pytest.raises(ValidationError):
            SparseLinearSystem(rows=2, cols=1, row_idx=[2], col_idx=[0], values=[1.0], rhs=[1.0, 2.0])

    def test_rhs_length(self):
        with pytest.raises(ValidationError):
            SparseLinearSystem(rows=2, cols=1, row_idx=[0], col_idx=[0], values=[1.0], rhs=[1.0])
