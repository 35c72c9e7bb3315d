"""Closed-form similarity alignment of 3D point sets, plus RANSAC.

Every function takes the correspondences as two ``(n, 3)`` arrays
``points_a`` and ``points_b``, paired by row; :func:`ransac_similarity`
returns its consensus set as ascending row positions into them.  The
closed form (Horn 1987; Umeyama 1991) recovers the ``(s, R, t)``
minimizing ``sum_k |B_k - (s R A_k + t)|^2``: rotation from the SVD of the
centered cross-covariance, scale from the RMS-deviation ratio, translation
from the centroids.  It has one implementation, :func:`_fit_samples`, on
stacks of point sets: :func:`horn_similarity` is its one-sample case, and
RANSAC fits whole batches of 3-point minimal samples with it before
refitting the best consensus set with :func:`horn_similarity`.
"""
from __future__ import annotations

import numpy as np

from .errors import DegenerateGeometryError, RansacFailureError, ValidationError
from .rotations import matrix_to_quat, quat_canonical, quat_to_matrix
from .sim3 import Sim3

MIN_SAMPLE = 3
DEFAULT_MAX_ITERATIONS = 1024
DEFAULT_CONFIDENCE = 0.999
RELATIVE_THRESHOLD = 0.01  # of the median axis extent, when no threshold given
# RANSAC fits hypotheses in batches: few first, as an outlier-free pair
# stops after one, then twice as many each time up to MAX_BATCH
FIRST_BATCH = 16
MAX_BATCH = 256
# the outcome of fitting one sample: fitted, or the first check refusing it
_FITTED, _COINCIDENT, _OVERFLOW, _COLLINEAR, _UNSCALED = range(5)
_REFUSALS = {
    _COINCIDENT: (DegenerateGeometryError, "source points are coincident"),
    _COLLINEAR: (DegenerateGeometryError, "source points are collinear"),
    _UNSCALED: (DegenerateGeometryError, "target points are coincident; scale unobservable"),
    _OVERFLOW: (ValidationError, "similarity fit overflows: coordinates are too large"),
}


def _require_pairs(points_a: np.ndarray, points_b: np.ndarray) -> int:
    """The number of point pairs; refuses unequal lengths or too few pairs."""
    n = points_a.shape[0]
    if points_b.shape[0] != n:
        raise ValidationError("correspondence arrays must have matching lengths")
    if n < MIN_SAMPLE:
        raise ValidationError(f"need at least {MIN_SAMPLE} correspondences, got {n}")
    return n


def horn_similarity(points_a: np.ndarray, points_b: np.ndarray) -> Sim3:
    """Least-squares similarity mapping the ``(n, 3)`` ``points_a`` onto the
    ``points_b`` of the same rows.

    Raises :class:`DegenerateGeometryError` when the source points are
    coincident or collinear (the rotation about the line is unobservable) or
    the target points are coincident, and :class:`ValidationError` when the
    fit's arithmetic overflows.
    """
    _require_pairs(points_a, points_b)
    s, q, t, status = _fit_samples(points_a[None], points_b[None])
    if status[0] != _FITTED:
        error, message = _REFUSALS[status[0]]
        raise error(message)
    return Sim3(s=s[0], q=q[0], t=t[0])


def default_inlier_threshold(points_a: np.ndarray) -> float:
    """Scale-free default: 1% of the median axis extent of the source cloud.

    Each axis extent is 4 x the median absolute deviation about the median,
    which equals the full extent of a uniform cloud but, unlike the range,
    is not inflated by the gross outliers RANSAC is there to reject.
    """
    ext = 4.0 * np.median(np.abs(points_a - np.median(points_a, axis=0)), axis=0)
    scale = float(np.median(ext))
    return max(RELATIVE_THRESHOLD * scale, 1e-12)


def ransac_similarity(
    points_a: np.ndarray,
    points_b: np.ndarray,
    inlier_threshold: float | None = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    seed: int = 0,
):
    """Robust similarity of ``points_a`` onto ``points_b``; returns
    ``(sim3, inliers)``, ``inliers`` the ascending row positions of the
    consensus set.

    Hypotheses come from 3-point minimal samples (degenerate samples are
    skipped but count as iterations); the best consensus set is refit with
    the closed form.  Fully deterministic for a fixed seed, with the standard
    adaptive iteration cutoff at :data:`DEFAULT_CONFIDENCE`.

    Samples are drawn one ``rng.choice`` call each, in batches of
    :data:`FIRST_BATCH`, then twice as many up to :data:`MAX_BATCH`, never
    more than the hypotheses still to scan.  Each batch is fitted by
    :func:`_fit_samples` and scored at once, but scanned one hypothesis at a
    time, so the result, or the :class:`ValidationError` an overflowing
    sample raises when the scan reaches it, is that of fitting each sample
    with :func:`horn_similarity` in turn.
    """
    n = _require_pairs(points_a, points_b)
    threshold = (
        inlier_threshold if inlier_threshold is not None else default_inlier_threshold(points_a)
    )
    if threshold <= 0:
        raise ValidationError("inlier threshold must be positive")
    rng = np.random.default_rng(seed)
    best_mask = None
    best_count = 0
    needed = max_iterations
    it = 0
    size = FIRST_BATCH
    while it < needed:
        samples = np.array(
            [rng.choice(n, size=MIN_SAMPLE, replace=False) for _ in range(min(size, needed - it))]
        )
        size = min(2 * size, MAX_BATCH)
        s, q, t, status = _fit_samples(points_a[samples], points_b[samples])
        R = quat_to_matrix(quat_canonical(q))  # Sim3 canonicalizes q once more
        with np.errstate(all="ignore"):  # rows of refused samples
            fitted = s[:, None, None] * (points_a @ R.transpose(0, 2, 1)) + t[:, None]
            masks = np.linalg.norm(points_b - fitted, axis=-1) < threshold
        for state, mask in zip(status.tolist(), masks):
            if it >= needed:  # the adaptive cutoff fell inside this batch
                break
            it += 1
            if state != _FITTED:
                error, message = _REFUSALS[state]
                if error is not DegenerateGeometryError:
                    raise error(message)
                continue
            count = int(mask.sum())
            if count > best_count:
                best_count = count
                best_mask = mask
                if count == n:
                    needed = it  # nothing beats a full consensus
                    break
                denom = np.log1p(-((count / n) ** MIN_SAMPLE))
                if denom < 0:
                    needed = min(
                        max_iterations, int(np.ceil(np.log1p(-DEFAULT_CONFIDENCE) / denom))
                    )
    if best_count < MIN_SAMPLE:
        raise RansacFailureError(
            f"no hypothesis reached {MIN_SAMPLE} inliers in {it} iterations"
        )
    inliers = np.flatnonzero(best_mask)
    return horn_similarity(points_a[inliers], points_b[inliers]), inliers


def _fit_samples(A: np.ndarray, B: np.ndarray):
    """The closed-form similarity of each stacked point set ``A[k] -> B[k]``.

    Returns ``(s, q, t, status)``: ``q`` is :func:`matrix_to_quat` of the
    fitted rotation, and ``status`` is :data:`_FITTED` or the code of the
    first check that refuses the sample (see :data:`_REFUSALS`).  A sample
    whose centred points or cross-covariance leave the finite range is
    zeroed before the SVDs, since LAPACK may fail or hang on non-finite
    input, and refused as :data:`_OVERFLOW`.
    """
    k = A.shape[0]
    with np.errstate(all="ignore"):
        ca = A.mean(axis=1)
        cb = B.mean(axis=1)
        a0 = A - ca[:, None]
        b0 = B - cb[:, None]
        sa = np.sum((a0 * a0).reshape(k, -1), axis=1)
        sb = np.sum((b0 * b0).reshape(k, -1), axis=1)
        H = a0.transpose(0, 2, 1) @ b0
        a_finite = np.isfinite(a0).all(axis=(1, 2))
        h_finite = np.isfinite(H).all(axis=(1, 2))
        svals = np.linalg.svd(np.where(a_finite[:, None, None], a0, 0.0), compute_uv=False)
        U, _, Vt = np.linalg.svd(np.where(h_finite[:, None, None], H, 0.0))
        V = Vt.transpose(0, 2, 1)
        D = np.zeros((k, 3, 3))
        D[:, 0, 0] = D[:, 1, 1] = 1.0
        D[:, 2, 2] = np.sign(np.linalg.det(V @ U.transpose(0, 2, 1)))
        R = V @ D @ U.transpose(0, 2, 1)
        s = np.sqrt(sb / sa)
        t = cb - s[:, None] * (R @ ca[:, :, None])[:, :, 0]
    status = np.select(
        [
            sa <= 0.0,
            ~a_finite,
            svals[:, 1] <= 1e-9 * svals[:, 0],
            ~h_finite,
            ~(np.isfinite(s) & (s > 0.0)),
            ~np.isfinite(t).all(axis=1),
        ],
        [_COINCIDENT, _OVERFLOW, _COLLINEAR, _OVERFLOW, _UNSCALED, _OVERFLOW],
        _FITTED,
    )
    return s, matrix_to_quat(R), t, status
