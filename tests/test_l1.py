import numpy as np
import pytest
from scipy.optimize import linprog

from csfm import l1
from csfm.averaging import _incidence
from csfm.errors import RankDeficientSystemError, ValidationError
from csfm.l1 import solve_l1, solve_weighted_ls

from helpers import measurement_graph, sparse_weighted_ls


def dense_system(A, b):
    return np.asarray(A, float), np.asarray(b, float)


class TestWeightedLs:
    def test_unit_weights_square_solve(self):
        A, b = dense_system([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0])
        assert np.allclose(solve_weighted_ls(A, b, np.ones(2)), [1.0, 2.0], atol=1e-12)

    def test_tiny_weight_suppresses_outlier_row(self):
        # oracle: solve the system with the outlier row deleted
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
        b = np.array([1.0, 2.0, 3.0, 50.0])
        clean = np.linalg.lstsq(A[:3], b[:3], rcond=None)[0]
        w = np.array([1.0, 1.0, 1.0, 1e-12])
        assert np.allclose(solve_weighted_ls(A, b, w), clean, atol=1e-6)

    def test_duplicate_inconsistent_rows_average(self):
        A, b = dense_system([[1.0], [1.0]], [1.0, 3.0])
        assert solve_weighted_ls(A, b, np.ones(2))[0] == pytest.approx(2.0, abs=1e-12)

    def test_singular_raises(self):
        with pytest.raises(RankDeficientSystemError):
            solve_weighted_ls([[1.0, 0.0], [1.0, 0.0]], [1.0, 2.0], np.ones(2))

    def test_bad_weights(self):
        with pytest.raises(ValidationError):
            solve_weighted_ls([[1.0]], [1.0], np.array([0.0]))
        with pytest.raises(ValidationError):
            solve_weighted_ls([[1.0]], [1.0], np.array([1.0, 2.0]))


class TestSolveL1:
    def test_square_identity(self):
        assert np.allclose(
            solve_l1(np.eye(2), [1.0, 2.0]), [1.0, 2.0], atol=1e-12
        )

    def test_scalar_median_rejects_outlier(self):
        # L1 minimizer of a scalar location problem is the median (here 0);
        # the epsilon smoothing may leave a tiny bias
        assert abs(solve_l1([[1.0], [1.0], [1.0]], [0.0, 0.0, 10.0])[0]) <= 1e-4

    def test_single_column_single_row(self):
        assert solve_l1([[1.0]], [7.0])[0] == pytest.approx(7.0, abs=1e-12)

    def test_consistent_system_exact_for_any_epsilon(self, monkeypatch):
        rng = np.random.default_rng(0)
        for epsilon in (1e-3, 1e-5, 1e-8):
            monkeypatch.setattr(l1, "EPSILON", epsilon)
            A = rng.normal(size=(12, 4))
            x_true = rng.normal(size=4)
            x = solve_l1(A, A @ x_true)
            assert np.allclose(x, x_true, atol=1e-8)

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(30, 5))
        b = A @ rng.normal(size=5) + rng.standard_t(df=1, size=30)  # heavy tails
        history = []
        solve_l1(A, b, iteration_callback=lambda it, x, obj: history.append(obj))
        assert len(history) > 1
        for prev, cur in zip(history, history[1:]):
            assert cur <= prev + 1e-12

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(20, 3))
        b = A @ rng.normal(size=3) + rng.normal(scale=0.1, size=20)
        x1 = solve_l1(A, b)
        perm = rng.permutation(20)
        x2 = solve_l1(A[perm], b[perm])
        assert np.allclose(x1, x2, atol=1e-8)

    def test_gross_outliers_with_tight_epsilon(self):
        # redundant consistent rows + 30% gross corruption: EPSILON is
        # small enough to drive the smoothing bias below 1e-6
        rng = np.random.default_rng(3)
        x_true = np.array([1.5, -2.0, 0.25])
        A = rng.normal(size=(30, 3))
        b = A @ x_true
        b[rng.choice(30, size=9, replace=False)] += rng.uniform(50, 100, size=9)
        x = solve_l1(A, b)
        assert np.allclose(x, x_true, atol=1e-6)


class TestValidation:
    """Both public solvers refuse a malformed system before solving."""

    def raises_validation(self, A, rhs):
        for solve in (lambda: solve_weighted_ls(A, rhs, np.ones(np.shape(rhs))),
                      lambda: solve_l1(A, rhs)):
            with pytest.raises(ValidationError):
                solve()

    def test_rows_must_cover_cols(self):
        self.raises_validation([[1.0, 0.0]], [1.0])

    def test_rhs_length(self):
        self.raises_validation([[1.0], [0.0]], [1.0])

    def test_non_finite_matrix(self):
        self.raises_validation([[1.0], [np.inf]], [1.0, 2.0])
        self.raises_validation([[np.nan], [1.0]], [1.0, 2.0])

    def test_one_dimensional_matrix(self):
        self.raises_validation([1.0, 1.0], [1.0, 2.0])

    def test_bad_right_hand_side(self):
        A = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        for bad in (np.ones(2), np.ones((3, 2, 1)), [1.0, np.nan, 0.0]):
            self.raises_validation(A, bad)


def edge_system(k, edges, rhs, plus_on_j=True):
    """The averaging stages' ``(A, b)`` over the measurement graph ``edges``."""
    return _incidence(measurement_graph(k, edges), plus_on_j), np.asarray(rhs, float)


def random_edges(rng, kind, k):
    """A measurement graph over ``k`` communities: a random tree, a cycle
    through all of them, or that cycle with chords."""
    order = rng.permutation(k).tolist()
    if kind == "tree":
        pairs = [(order[n], order[int(rng.integers(n))]) for n in range(1, k)]
    else:
        pairs = list(zip(order, order[1:] + order[:1]))
        if kind == "chorded":
            pairs += [tuple(rng.choice(k, 2, replace=False)) for _ in range(int(rng.integers(1, k)))]
    return sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})


def corrupted_rhs(rng, k, edges, outlier_fraction, width=1):
    """Differences of planted values (gauge 0), 1e-3 noise, and gross
    corruptions of 1 to 5 on about ``outlier_fraction`` of the rows."""
    x = rng.normal(size=(k, width))
    x[0] = 0.0
    i, j = np.array(edges).T
    b = x[j] - x[i] + rng.normal(scale=1e-3, size=(len(edges), width))
    bad = rng.random(b.shape) < outlier_fraction
    b[bad] += rng.choice([-1.0, 1.0], bad.sum()) * rng.uniform(1.0, 5.0, bad.sum())
    return b[:, 0] if width == 1 else b


class TestDenseSolve:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_sparse_lu_oracle(self, seed):
        """Cholesky and the sparse LU of the parent solve agree to 1e-10
        relative, or to the perturbation bound ``kappa(N) eps`` of the normal
        equations where that is larger: with weights spread over 1..1e9 both
        are backward stable, and ill-conditioned ``N`` moves both within it."""
        rng = np.random.default_rng(seed)
        eps = np.finfo(float).eps
        for trial in range(100):
            if trial % 2:
                k = int(rng.integers(2, 33))
                edges = random_edges(rng, ["tree", "cycle", "chorded"][trial % 3], k)
                A, b = edge_system(k, edges, corrupted_rhs(rng, k, edges, 0.2))
            else:
                rows = int(rng.integers(1, 40))
                A = rng.normal(size=(rows, int(rng.integers(1, rows + 1))))
                b = rng.normal(size=rows)
            w = np.exp(rng.uniform(0.0, np.log(1e9), size=A.shape[0]))
            x, expected = solve_weighted_ls(A, b, w), sparse_weighted_ls(A, b, w)
            N = A.T @ (w[:, None] * A)
            gap = np.max(np.abs(x - expected)) / np.max(np.abs(expected))
            assert gap <= max(1e-10, 100 * np.linalg.cond(N) * eps)
            # backward error of the dense solve itself, oracle-free
            g = A.T @ (w * b)
            assert np.max(np.abs(N @ x - g)) <= 1e3 * eps * (
                np.max(np.abs(N)) * np.max(np.abs(x)) + np.max(np.abs(g))
            )

    def test_stacked_weights_solve_each_column(self):
        rng = np.random.default_rng(7)
        k = 9
        edges = random_edges(rng, "chorded", k)
        A, b = edge_system(k, edges, corrupted_rhs(rng, k, edges, 0.3, width=3))
        w = np.exp(rng.uniform(0.0, np.log(1e9), size=b.shape))
        x = solve_weighted_ls(A, b, w)
        assert x.shape == (k - 1, 3)
        for c in range(3):
            single = solve_weighted_ls(A, b[:, c], w[:, c])
            assert x[:, c].tobytes() == single.tobytes()

    def test_weights_must_match_the_right_hand_side(self):
        A, b = np.eye(2), np.ones((2, 3))
        with pytest.raises(ValidationError):
            solve_weighted_ls(A, b, np.ones(2))
        with pytest.raises(ValidationError):
            solve_weighted_ls(A, b, np.ones((2, 2)))


class TestRankDeficiency:
    """A singular ``A^T W A`` raises ``RankDeficientSystemError``: never a
    raw ``LinAlgError``, never a non-finite or meaningless result."""

    def raises_rank_deficient(self, fn, *args):
        with pytest.raises(RankDeficientSystemError) as info:
            fn(*args)
        assert not isinstance(info.value, np.linalg.LinAlgError)

    @pytest.mark.parametrize("weights", ["unit", "irls"])
    def test_untouched_column(self, weights):
        rng = np.random.default_rng(11)
        for cols in range(2, 12):
            rows = cols + int(rng.integers(0, 5))
            A = rng.normal(size=(rows, cols))
            A[:, int(rng.integers(cols))] = 0.0
            b = rng.normal(size=rows)
            w = np.ones(rows) if weights == "unit" else np.exp(rng.uniform(0, np.log(1e9), rows))
            self.raises_rank_deficient(solve_weighted_ls, A, b, w)
            self.raises_rank_deficient(solve_l1, A, b)

    @pytest.mark.parametrize("weights", ["unit", "irls"])
    def test_two_unlinked_blocks(self, weights):
        """Communities split into a block measured against the gauge and a
        block of at least 3 measured only within itself (a cycle, so there
        are as many rows as unknowns): the second block floats."""
        rng = np.random.default_rng(12)
        for trial in range(200):
            k = int(rng.integers(5, 33))
            split = int(rng.integers(1, k - 3))
            near = random_edges(rng, ["tree", "cycle", "chorded"][trial % 3], split + 1)
            far = random_edges(rng, ["cycle", "chorded"][trial // 2 % 2], k - split - 1)
            edges = near + [(a + split + 1, b + split + 1) for a, b in far]
            width = 1 + 2 * (trial % 2)
            A, b = edge_system(k, edges, corrupted_rhs(rng, k, edges, 0.2, width))
            w = np.ones(b.shape) if weights == "unit" else np.exp(rng.uniform(0, np.log(1e9), b.shape))
            self.raises_rank_deficient(solve_weighted_ls, A, b, w)
            self.raises_rank_deficient(solve_l1, A, b)


class TestStackedColumns:
    def test_each_column_is_its_single_column_run(self):
        """A stack's columns converge at different iterations and each keeps
        the bits of its own run."""
        rng = np.random.default_rng(21)
        different = 0
        for trial in range(60):
            k = int(rng.integers(3, 20))
            edges = random_edges(rng, ["tree", "cycle", "chorded"][trial % 3], k)
            A, b = edge_system(k, edges, corrupted_rhs(rng, k, edges, 0.3, width=3))
            x = solve_l1(A, b)
            assert x.shape == (k - 1, 3)
            iterations = []
            for c in range(3):
                seen = []
                single = solve_l1(A, b[:, c], lambda it, *_: seen.append(it))
                iterations.append(seen[-1])
                assert single.shape == (k - 1,)
                assert np.ascontiguousarray(x[:, c]).tobytes() == single.tobytes()
            different += len(set(iterations)) > 1
        assert different >= 10

    def test_a_column_stack_of_one_is_the_vector_run(self):
        rng = np.random.default_rng(22)
        edges = random_edges(rng, "chorded", 12)
        A, b = edge_system(12, edges, corrupted_rhs(rng, 12, edges, 0.3))
        x = solve_l1(A, b[:, None])
        assert x.shape == (11, 1)
        assert x[:, 0].tobytes() == solve_l1(A, b).tobytes()

    def test_stacked_callback_reports_each_column(self):
        rng = np.random.default_rng(23)
        edges = random_edges(rng, "cycle", 6)
        A, b = edge_system(6, edges, corrupted_rhs(rng, 6, edges, 0.3, width=3))
        history = []
        x = solve_l1(A, b, lambda it, x, obj: history.append((it, x, obj)))
        assert [it for it, _, _ in history] == list(range(len(history)))
        assert history[-1][1].tobytes() == x.tobytes()
        assert history[-1][2] == pytest.approx(np.abs(A @ x - b).sum(axis=0), rel=1e-12)


def lp_l1_optimum(A, b):
    """``min ||A x - b||_1`` as the linear program ``min sum t`` subject to
    ``-t <= A x - b <= t``, solved by HiGHS; returns the optimum and a minimizer."""
    m, n = A.shape
    eye = np.eye(m)
    res = linprog(
        np.r_[np.zeros(n), np.ones(m)],
        A_ub=np.block([[A, -eye], [-A, -eye]]),
        b_ub=np.r_[b, -b],
        bounds=[(None, None)] * n + [(0, None)] * m,
        method="highs",
    )
    assert res.status == 0, res.message
    return res.fun, res.x[:n]


@pytest.mark.parametrize("kind", ["tree", "odd-cycle", "even-cycle", "chorded"])
def test_irls_reaches_the_lp_optimum(kind):
    """The IRLS objective is the L1 optimum of an exact LP solve to
    ``1e-9 * max(1, optimum)``, on 60 random measurement graphs per kind
    with 3 to 32 communities and 0-40% gross outliers, in both row sign
    conventions of the averaging stages, in fewer than ``MAX_ITERATIONS``
    reweightings (on cyclic graphs the iterate creeps on inside an interval
    optimum, so a rule that watched it would run them all).  On trees the
    optimum is unique and the minimizers agree too.  On a bare cycle every
    point that spreads the closure error over the rows with one sign is
    optimal; IRLS stays at the least-squares point inside that set, where no
    residual vanishes, while the LP returns a vertex, where all but one do."""
    rng = np.random.default_rng(["tree", "odd-cycle", "even-cycle", "chorded"].index(kind))
    for trial in range(60):
        k = int(rng.integers(3, 33))
        if kind == "odd-cycle":
            k -= 1 - k % 2
        elif kind == "even-cycle":
            k += k % 2
        edges = random_edges(rng, "cycle" if kind.endswith("cycle") else kind, k)
        outliers = rng.uniform(0.0, 0.4)
        A, b = edge_system(k, edges, corrupted_rhs(rng, k, edges, outliers), plus_on_j=trial % 2 == 0)
        iterations = []
        x = solve_l1(A, b, lambda it, *_: iterations.append(it))
        assert iterations[-1] < l1.MAX_ITERATIONS
        objective = np.abs(A @ x - b).sum()
        optimum, x_lp = lp_l1_optimum(A, b)
        assert abs(objective - optimum) <= 1e-9 * max(1.0, optimum)
        if kind == "tree":
            assert np.allclose(x, x_lp, rtol=0.0, atol=1e-9)
        elif kind.endswith("cycle"):
            residual = np.abs(A @ x - b)
            assert residual.min() >= 0.5 * residual.mean() > 0
