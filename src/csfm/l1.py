"""L1-norm linear regression via iteratively reweighted least squares.

The averaging stages stack one +1/-1 row per pairwise measurement and solve
``argmin ||A x - b||_1``; the problem is convex and IRLS converges to its
global optimum up to the epsilon smoothing of the weights.  Gauge variables
are eliminated from the column space by the callers, never penalized.

There is one unknown per non-gauge community, so ``A`` is held dense (built
once from the triplets) and each weighted least-squares step factors the
dense normal equations ``A^T W A`` by Cholesky.  A right-hand side may hold
several columns (the three axes of a rotation or translation problem); their
IRLS runs advance in lockstep, one stacked solve per iteration, and each
column stops once it has converged, with the bits of its own single-column
run.
"""
from __future__ import annotations

import copy
import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrs

from .errors import RankDeficientSystemError, ValidationError

log = logging.getLogger(__name__)

# Tight smoothing so gross outliers leave sub-1e-6 bias in the solution.
EPSILON = 1e-9
MAX_ITERATIONS = 100
TOLERANCE = 1e-12


def _checked_rhs(rhs, rows: int) -> np.ndarray:
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != rows or rhs.size == 0:
        raise ValidationError(
            "right-hand side must have one entry (or one row of columns) per system row"
        )
    if not np.all(np.isfinite(rhs)):
        raise ValidationError("system contains non-finite values")
    return rhs


def _stacked(v) -> np.ndarray:
    """``(n,)`` or ``(n, k)`` -> ``(k, n)``, one C-contiguous row per column."""
    return np.ascontiguousarray(v.reshape(v.shape[0], -1).T)


def _unstacked(v, rhs) -> np.ndarray:
    """``(k, n)`` -> ``(n,)`` for a 1-D ``rhs``, ``(n, k)`` otherwise."""
    return v.T.reshape(v.shape[1:] + rhs.shape[1:])


@dataclass(frozen=True)
class SparseLinearSystem:
    """Triplet-form overdetermined system ``A x = b``; ``b`` has shape
    ``(rows,)`` or ``(rows, k)``, and ``dense`` is ``A`` as a dense array."""

    rows: int
    cols: int
    row_idx: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray
    rhs: np.ndarray
    dense: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows, cols = int(self.rows), int(self.cols)
        ri = np.asarray(self.row_idx, dtype=np.int64).reshape(-1)
        ci = np.asarray(self.col_idx, dtype=np.int64).reshape(-1)
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        if rows <= 0 or cols <= 0:
            raise ValidationError("system dimensions must be positive")
        if rows < cols:
            raise ValidationError("system must be square or overdetermined (rows >= cols)")
        if not (ri.size == ci.size == vals.size):
            raise ValidationError("triplet arrays must have equal length")
        rhs = _checked_rhs(self.rhs, rows)
        if ri.size:
            if ri.min() < 0 or ri.max() >= rows or ci.min() < 0 or ci.max() >= cols:
                raise ValidationError("triplet index out of range")
            keys = ri * cols + ci
            if np.unique(keys).size != keys.size:
                raise ValidationError("duplicate (row, col) triplet")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("system contains non-finite values")
        dense = np.zeros((rows, cols))
        dense[ri, ci] = vals
        for name, value in (("rows", rows), ("cols", cols), ("row_idx", ri), ("col_idx", ci),
                            ("values", vals), ("rhs", rhs), ("dense", dense)):
            object.__setattr__(self, name, value)

    def with_rhs(self, rhs) -> "SparseLinearSystem":
        """The same matrix with right-hand side ``rhs``; only ``rhs`` is checked."""
        out = copy.copy(self)
        object.__setattr__(out, "rhs", _checked_rhs(rhs, self.rows))
        return out


def solve_weighted_ls(sys: SparseLinearSystem, weights) -> np.ndarray:
    """Minimize ``sum_k w_k (A x - b)_k^2`` through the normal equations,
    separately for each column of ``b``; ``weights`` has the shape of ``b``
    and the result that of ``x``.

    Each column's ``N = A^T (w A)`` is factored by Cholesky.  A pivot at
    most ``cols * eps * max(diag N)`` (LAPACK ``?pstrf``'s default rank
    tolerance) means ``N`` is singular to working precision.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != sys.rhs.shape:
        raise ValidationError("weights must have one entry per row and right-hand-side column")
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise ValidationError("weights must be positive and finite")
    # one stack entry per column: an entry's products are the same BLAS calls
    # whatever the stack holds, so a column's bits do not depend on the others
    w, b = _stacked(w), _stacked(sys.rhs)
    A, At = sys.dense, sys.dense.T
    N = At @ (w[:, :, None] * A)
    g = At @ (w * b)[:, :, None]
    diag = np.diagonal(N, axis1=1, axis2=2)
    try:
        L = np.linalg.cholesky(N)
        pivots = np.diagonal(L, axis1=1, axis2=2) ** 2
        if np.any(pivots <= sys.cols * np.finfo(float).eps * diag.max(axis=1, keepdims=True)):
            raise np.linalg.LinAlgError("a pivot vanished to working precision")
    except np.linalg.LinAlgError as exc:
        raise RankDeficientSystemError(
            f"weighted normal equations are singular ({exc}); "
            "check gauge fixing and measurement-graph connectivity"
        ) from exc
    x = np.stack([dpotrs(L[c], g[c], lower=True)[0][:, 0] for c in range(len(L))])
    if not np.all(np.isfinite(x)):
        raise RankDeficientSystemError("weighted least-squares solve produced non-finite values")
    return _unstacked(x, sys.rhs)


def solve_l1(sys: SparseLinearSystem, iteration_callback=None) -> np.ndarray:
    """IRLS minimization of ``||A x - b||_1``, per column of ``b``.

    Starts from the unweighted least-squares solution and reweights each row
    by ``1 / max(|residual|, EPSILON)`` until the iterate stops moving
    (by ``TOLERANCE``, relative) or ``MAX_ITERATIONS`` pass.  The columns
    of a 2-D ``b`` run in lockstep, one stacked solve per iteration, and a
    column is frozen once it converges; a 1-D ``b`` is a stack of one.  On
    consistent systems the first solve is already exact.
    ``iteration_callback`` (if given) receives ``(iteration, x, l1_objective)``
    after every solve, ``x`` shaped as the result and the objective a float
    for a 1-D ``b``, one per column otherwise.
    """
    debug = log.isEnabledFor(logging.DEBUG)
    watch = debug or iteration_callback is not None
    A = sys.dense
    b = _stacked(sys.rhs)
    x = _stacked(solve_weighted_ls(sys, np.ones(sys.rhs.shape)))
    every = active = np.arange(b.shape[0])

    def residuals(cols):
        # a stack of matrix-vector products, as in solve_weighted_ls
        return (A @ x[cols, :, None])[:, :, 0] - b[cols]

    def report(it):
        obj = np.abs(residuals(every)).sum(axis=1)
        obj = float(obj[0]) if sys.rhs.ndim == 1 else obj
        if debug:
            log.debug("irls iteration %d: L1 objective %s", it, obj)
        if iteration_callback is not None:
            iteration_callback(it, _unstacked(x, sys.rhs).copy(), obj)

    if watch:
        report(0)
    part = sys
    for it in range(1, MAX_ITERATIONS + 1):
        w = 1.0 / np.maximum(np.abs(residuals(active)), EPSILON)
        x_new = _stacked(solve_weighted_ls(part, _unstacked(w, part.rhs)))
        delta = np.max(np.abs(x_new - x[active]), axis=1)
        x[active] = x_new
        if watch:
            report(it)
        moving = delta >= TOLERANCE * np.maximum(1.0, np.max(np.abs(x_new), axis=1))
        if not np.all(moving):
            active = active[moving]
            if not active.size:
                break
            part = sys.with_rhs(b[active].T)
    return _unstacked(x, sys.rhs)
