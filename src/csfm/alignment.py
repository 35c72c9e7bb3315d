"""Closed-form similarity alignment of 3D point sets, plus RANSAC.

The closed form (Horn 1987; Umeyama 1991) recovers the ``(s, R, t)``
minimizing ``sum_k |B_k - (s R A_k + t)|^2``: rotation from the SVD of the
centered cross-covariance, scale from the RMS-deviation ratio, translation
from the centroids.  It has one implementation, :func:`_fit_samples`, on
stacks of point sets: :func:`horn_similarity` is its one-sample case, and
RANSAC fits whole batches of 3-point minimal samples with it before
refitting the best consensus set with :func:`horn_similarity`.
"""
from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class CorrespondenceSet:
    """Paired 3D points sharing track ids across two frames."""

    track_ids: np.ndarray
    points_a: np.ndarray
    points_b: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.track_ids, dtype=np.int64).reshape(-1)
        pa = np.asarray(self.points_a, dtype=float).reshape(-1, 3)
        pb = np.asarray(self.points_b, dtype=float).reshape(-1, 3)
        if not (ids.shape[0] == pa.shape[0] == pb.shape[0]):
            raise ValidationError("correspondence arrays must have matching lengths")
        if np.unique(ids).size != ids.size:
            raise ValidationError("duplicate track id in correspondence set")
        object.__setattr__(self, "track_ids", ids)
        object.__setattr__(self, "points_a", pa)
        object.__setattr__(self, "points_b", pb)

    def __len__(self) -> int:
        return int(self.track_ids.shape[0])


def horn_similarity(corr: CorrespondenceSet) -> Sim3:
    """Least-squares similarity mapping frame-A points onto frame-B points.

    Raises :class:`DegenerateGeometryError` when the source points are
    coincident or collinear (the rotation about the line is unobservable) or
    the target points are coincident, and :class:`ValidationError` when the
    fit's arithmetic overflows.
    """
    if len(corr) < MIN_SAMPLE:
        raise ValidationError(f"need at least {MIN_SAMPLE} correspondences, got {len(corr)}")
    s, q, t, status = _fit_samples(corr.points_a[None], corr.points_b[None])
    if status[0] != _FITTED:
        error, message = _REFUSALS[status[0]]
        raise error(message)
    return Sim3(s=s[0], q=q[0], t=t[0])


def default_inlier_threshold(corr: CorrespondenceSet) -> float:
    """Scale-free default: 1% of the median axis extent of the source cloud.

    Each axis extent is 4 x the median absolute deviation about the median,
    which equals the full extent of a uniform cloud but, unlike the range,
    is not inflated by the gross outliers RANSAC is there to reject.
    """
    a = corr.points_a
    ext = 4.0 * np.median(np.abs(a - np.median(a, axis=0)), axis=0)
    scale = float(np.median(ext))
    return max(RELATIVE_THRESHOLD * scale, 1e-12)


def ransac_similarity(
    corr: CorrespondenceSet,
    inlier_threshold: float | None = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    seed: int = 0,
):
    """Robust similarity estimate; returns ``(sim3, inlier_track_ids)``.

    Hypotheses come from 3-point minimal samples (degenerate samples are
    skipped but count as iterations); the best consensus set is refit with
    the closed form.  Fully deterministic for a fixed seed, with the standard
    adaptive iteration cutoff at :data:`DEFAULT_CONFIDENCE`.  Hypotheses are
    fitted and scored in batches (see :func:`_hypothesis_masks`) but scanned
    one at a time, so the result, or the error an overflowing sample raises,
    is that of fitting each sample with :func:`horn_similarity` in turn.
    """
    n = len(corr)
    if n < MIN_SAMPLE:
        raise ValidationError(f"need at least {MIN_SAMPLE} correspondences, got {n}")
    threshold = inlier_threshold if inlier_threshold is not None else default_inlier_threshold(corr)
    if threshold <= 0:
        raise ValidationError("inlier threshold must be positive")
    rng = np.random.default_rng(seed)
    best_mask = None
    best_count = 0
    needed = max_iterations
    it = 0
    masks = _hypothesis_masks(corr, threshold, rng, lambda: needed - it)
    while it < needed:
        mask = next(masks)
        it += 1
        if mask is None:
            continue
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
            ratio = count / n
            if ratio >= 1.0:
                break
            denom = np.log1p(-(ratio**MIN_SAMPLE))
            if denom < 0:
                needed = min(
                    max_iterations, int(np.ceil(np.log1p(-DEFAULT_CONFIDENCE) / denom))
                )
    if best_mask is None or best_count < MIN_SAMPLE:
        raise RansacFailureError(
            f"no hypothesis reached {MIN_SAMPLE} inliers in {it} iterations"
        )
    inlier_ids = corr.track_ids[best_mask]
    refit = horn_similarity(
        CorrespondenceSet(inlier_ids, corr.points_a[best_mask], corr.points_b[best_mask])
    )
    return refit, inlier_ids


def _hypothesis_masks(corr: CorrespondenceSet, threshold: float, rng, remaining):
    """Inlier masks of successive minimal-sample hypotheses, ``None`` for a
    degenerate sample.

    Samples are drawn one ``rng.choice`` call each, in batches of
    :data:`FIRST_BATCH`, then twice as many up to :data:`MAX_BATCH`, never
    more than ``remaining()`` hypotheses the caller may still scan.  Each
    batch is fitted by :func:`_fit_samples`, and each mask is the one
    ``Sim3.apply`` of the sample's :func:`horn_similarity` gives.  A sample
    :func:`horn_similarity` refuses with a :class:`ValidationError` raises
    it when the scan reaches it, and not before.
    """
    a, b = corr.points_a, corr.points_b
    size = FIRST_BATCH
    while True:
        samples = np.array(
            [rng.choice(len(corr), size=MIN_SAMPLE, replace=False)
             for _ in range(min(size, remaining()))]
        )
        size = min(2 * size, MAX_BATCH)
        s, q, t, status = _fit_samples(a[samples], b[samples])
        R = quat_to_matrix(quat_canonical(q))  # Sim3 canonicalizes q once more
        with np.errstate(all="ignore"):  # rows of refused samples
            fitted = s[:, None, None] * (a @ R.transpose(0, 2, 1)) + t[:, None]
            masks = np.linalg.norm(b - fitted, axis=-1) < threshold
        for state, mask in zip(status.tolist(), masks):
            if state == _FITTED:
                yield mask
                continue
            error, message = _REFUSALS[state]
            if error is not DegenerateGeometryError:
                raise error(message)
            yield None


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
