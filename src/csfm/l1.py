"""L1-norm linear regression via iteratively reweighted least squares.

The averaging stages stack one +1/-1 row per pairwise measurement and solve
``argmin ||A x - b||_1``; the problem is convex and IRLS converges to its
global optimum up to the epsilon smoothing of the weights.  Gauge variables
are eliminated from the column space by the callers, never penalized.

There is one unknown per non-gauge community, so ``A`` is a plain dense
``(rows, cols)`` array and each weighted least-squares step forms the dense
normal equations ``A^T W A``, tests their rank by Cholesky and solves them
with numpy's LAPACK solver.  A right-hand side may hold
several columns (the three axes of a rotation or translation problem); their
IRLS runs advance in lockstep, one stacked solve per iteration, and each
column stops once its L1 objective stops falling, with the bits of its own
single-column run.
"""
from __future__ import annotations

import logging

import numpy as np

from .errors import RankDeficientSystemError, ValidationError

log = logging.getLogger(__name__)

# Tight smoothing so gross outliers leave sub-1e-6 bias in the solution.
EPSILON = 1e-9
MAX_ITERATIONS = 100
TOLERANCE = 1e-12


def _checked_system(A, rhs):
    """``A`` as a float array and ``rhs`` as one, checked to be a finite
    system with at least as many rows as columns."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise ValidationError("system matrix must be a non-empty 2-D array")
    if A.shape[0] < A.shape[1]:
        raise ValidationError("system must be square or overdetermined (rows >= cols)")
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != A.shape[0] or rhs.size == 0:
        raise ValidationError(
            "right-hand side must have one entry (or one row of columns) per system row"
        )
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(rhs))):
        raise ValidationError("system contains non-finite values")
    return A, rhs


def _stacked(v) -> np.ndarray:
    """``(n,)`` or ``(n, k)`` -> ``(k, n)``, one C-contiguous row per column."""
    return np.ascontiguousarray(v.reshape(v.shape[0], -1).T)


def _unstacked(v, rhs) -> np.ndarray:
    """``(k, n)`` -> ``(n,)`` for a 1-D ``rhs``, ``(n, k)`` otherwise."""
    return v.T.reshape(v.shape[1:] + rhs.shape[1:])


def solve_weighted_ls(A, rhs, weights) -> np.ndarray:
    """Minimize ``sum_k w_k (A x - b)_k^2`` through the normal equations,
    separately for each column of ``b``.  ``A`` is ``(rows, cols)``, ``b =
    rhs`` is ``(rows,)`` or ``(rows, k)``, ``weights`` has the shape of ``b``
    and the result that of ``x``.

    Each column's ``N = A^T (w A)`` is factored by Cholesky.  A pivot at
    most ``cols * eps * max(diag N)`` (LAPACK ``?pstrf``'s default rank
    tolerance) means ``N`` is singular to working precision.  Otherwise the
    stack of systems ``N x = A^T (w b)`` is solved in one
    ``np.linalg.solve`` call (LU with partial pivoting, backward stable).
    """
    A, rhs = _checked_system(A, rhs)
    w = np.asarray(weights, dtype=float)
    if w.shape != rhs.shape:
        raise ValidationError("weights must have one entry per row and right-hand-side column")
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise ValidationError("weights must be positive and finite")
    # one stack entry per column: an entry's products are the same BLAS calls
    # whatever the stack holds, so a column's bits do not depend on the others
    w, b = _stacked(w), _stacked(rhs)
    At = A.T
    N = At @ (w[:, :, None] * A)
    g = At @ (w * b)[:, :, None]
    diag = np.diagonal(N, axis1=1, axis2=2)
    try:
        L = np.linalg.cholesky(N)
        pivots = np.diagonal(L, axis1=1, axis2=2) ** 2
        if np.any(pivots <= A.shape[1] * np.finfo(float).eps * diag.max(axis=1, keepdims=True)):
            raise np.linalg.LinAlgError("a pivot vanished to working precision")
    except np.linalg.LinAlgError as exc:
        raise RankDeficientSystemError(
            f"weighted normal equations are singular ({exc}); "
            "check gauge fixing and measurement-graph connectivity"
        ) from exc
    x = np.linalg.solve(N, g)[:, :, 0]
    if not np.all(np.isfinite(x)):
        raise RankDeficientSystemError("weighted least-squares solve produced non-finite values")
    return _unstacked(x, rhs)


def solve_l1(A, rhs, iteration_callback=None) -> np.ndarray:
    """IRLS minimization of ``||A x - b||_1``, per column of ``b``.

    Starts from the unweighted least-squares solution and reweights each row
    by ``1 / max(|residual|, EPSILON)`` until the L1 objective stops falling
    (``obj_prev - obj <= TOLERANCE * max(1, obj)``) or ``MAX_ITERATIONS``
    pass.  On an interval optimum the iterate keeps creeping inside the
    optimal set long after the objective has settled, so it is the
    objective that is watched.  The columns of a 2-D ``b`` run in lockstep,
    one stacked solve per iteration, and a column is frozen once its
    objective has settled; a 1-D ``b`` is a stack of one.  On consistent
    systems the first solve is already exact and one reweighting confirms
    it.  ``iteration_callback`` (if given) receives ``(iteration, x,
    l1_objective)`` after every solve, ``x`` shaped as the result and the
    objective a float for a 1-D ``b``, one per column otherwise.
    """
    A, rhs = _checked_system(A, rhs)
    b = _stacked(rhs)
    x = _stacked(solve_weighted_ls(A, rhs, np.ones(rhs.shape)))
    active = np.arange(b.shape[0])

    def residuals(cols):
        # a stack of matrix-vector products, as in solve_weighted_ls
        return (A @ x[cols, :, None])[:, :, 0] - b[cols]

    def report(it):
        shown = float(obj[0]) if rhs.ndim == 1 else obj.copy()
        log.debug("irls iteration %d: L1 objective %s", it, shown)
        if iteration_callback is not None:
            iteration_callback(it, _unstacked(x, rhs).copy(), shown)

    r = residuals(active)
    obj = np.abs(r).sum(axis=1)
    report(0)
    part = rhs
    for it in range(1, MAX_ITERATIONS + 1):
        w = 1.0 / np.maximum(np.abs(r), EPSILON)
        x[active] = _stacked(solve_weighted_ls(A, part, _unstacked(w, part)))
        r = residuals(active)
        new = np.abs(r).sum(axis=1)
        falling = obj[active] - new > TOLERANCE * np.maximum(1.0, new)
        obj[active] = new
        report(it)
        if not np.all(falling):
            active, r = active[falling], r[falling]
            if not active.size:
                break
            part = b[active].T
    return _unstacked(x, rhs)
