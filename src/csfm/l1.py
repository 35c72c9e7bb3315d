"""Sparse L1-norm linear regression via iteratively reweighted least squares.

The averaging stages stack one +1/-1 row per pairwise measurement and solve
``argmin ||A x - b||_1``; the problem is convex and IRLS converges to its
global optimum up to the epsilon smoothing of the weights.  Gauge variables
are eliminated from the column space by the callers, never penalized.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import RankDeficientSystemError, ValidationError

log = logging.getLogger(__name__)

# Tight smoothing so gross outliers leave sub-1e-6 bias in the solution.
EPSILON = 1e-9
MAX_ITERATIONS = 100
TOLERANCE = 1e-12


@dataclass(frozen=True)
class SparseLinearSystem:
    """Triplet-form overdetermined system ``A x = b``."""

    rows: int
    cols: int
    row_idx: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        rows, cols = int(self.rows), int(self.cols)
        ri = np.asarray(self.row_idx, dtype=np.int64).reshape(-1)
        ci = np.asarray(self.col_idx, dtype=np.int64).reshape(-1)
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        rhs = np.asarray(self.rhs, dtype=float).reshape(-1)
        if rows <= 0 or cols <= 0:
            raise ValidationError("system dimensions must be positive")
        if rows < cols:
            raise ValidationError("system must be square or overdetermined (rows >= cols)")
        if not (ri.size == ci.size == vals.size):
            raise ValidationError("triplet arrays must have equal length")
        if rhs.size != rows:
            raise ValidationError("right-hand side length must equal the row count")
        if ri.size:
            if ri.min() < 0 or ri.max() >= rows or ci.min() < 0 or ci.max() >= cols:
                raise ValidationError("triplet index out of range")
            keys = ri * cols + ci
            if np.unique(keys).size != keys.size:
                raise ValidationError("duplicate (row, col) triplet")
        if not np.all(np.isfinite(vals)) or not np.all(np.isfinite(rhs)):
            raise ValidationError("system contains non-finite values")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "row_idx", ri)
        object.__setattr__(self, "col_idx", ci)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "rhs", rhs)

    def matrix(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (self.values, (self.row_idx, self.col_idx)), shape=(self.rows, self.cols)
        )

    def with_rhs(self, rhs) -> "SparseLinearSystem":
        return SparseLinearSystem(
            rows=self.rows,
            cols=self.cols,
            row_idx=self.row_idx,
            col_idx=self.col_idx,
            values=self.values,
            rhs=rhs,
        )


def solve_weighted_ls(sys: SparseLinearSystem, weights) -> np.ndarray:
    """Minimize ``sum_k w_k (A x - b)_k^2`` through the normal equations."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.size != sys.rows:
        raise ValidationError("weight vector length must equal the row count")
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise ValidationError("weights must be positive and finite")
    A = sys.matrix()
    Aw = A.multiply(w[:, None]).tocsr()
    N = (A.T @ Aw).tocsc()
    rhs = A.T @ (w * sys.rhs)
    try:
        lu = spla.splu(N)
        x = lu.solve(rhs)
    except RuntimeError as exc:
        raise RankDeficientSystemError(
            f"weighted normal equations are singular ({exc}); "
            "check gauge fixing and measurement-graph connectivity"
        ) from exc
    if not np.all(np.isfinite(x)):
        raise RankDeficientSystemError("weighted least-squares solve produced non-finite values")
    return x


def solve_l1(sys: SparseLinearSystem, iteration_callback=None) -> np.ndarray:
    """IRLS minimization of ``||A x - b||_1``.

    Starts from the unweighted least-squares solution and reweights each row
    by ``1 / max(|residual|, EPSILON)`` until the iterate stops moving
    (by ``TOLERANCE``, relative) or ``MAX_ITERATIONS`` pass.  On
    consistent systems the first solve is already exact.  ``iteration_callback``
    (if given) receives ``(iteration, x, l1_objective)`` after every solve.
    """
    A = sys.matrix()
    debug = log.isEnabledFor(logging.DEBUG)
    x = solve_weighted_ls(sys, np.ones(sys.rows))
    if iteration_callback is not None:
        iteration_callback(0, x, float(np.abs(A @ x - sys.rhs).sum()))
    for it in range(1, MAX_ITERATIONS + 1):
        r = A @ x - sys.rhs
        w = 1.0 / np.maximum(np.abs(r), EPSILON)
        x_new = solve_weighted_ls(sys, w)
        if iteration_callback is not None or debug:
            obj = float(np.abs(A @ x_new - sys.rhs).sum())
            if debug:
                log.debug("irls iteration %d: L1 objective %.6e", it, obj)
            if iteration_callback is not None:
                iteration_callback(it, x_new, obj)
        delta = np.max(np.abs(x_new - x))
        x = x_new
        if delta < TOLERANCE * max(1.0, float(np.max(np.abs(x)))):
            break
    return x
