"""Closed-form similarity alignment of 3D point sets, plus RANSAC.

The closed form recovers the ``(s, R, t)`` minimizing
``sum_k |B_k - (s R A_k + t)|^2``: rotation from the SVD of the centered
cross-covariance, scale from the RMS-deviation ratio, translation from the
centroids.  RANSAC wraps it with 3-point minimal samples for outlier-laden
correspondence sets.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, RansacFailureError, ValidationError
from .rotations import matrix_to_quat
from .sim3 import Sim3

MIN_SAMPLE = 3
DEFAULT_MAX_ITERATIONS = 1024
DEFAULT_CONFIDENCE = 0.999
RELATIVE_THRESHOLD = 0.01  # of the median axis extent, when no threshold given


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
    coincident or collinear (the rotation about the line is unobservable).
    """
    if len(corr) < MIN_SAMPLE:
        raise ValidationError(f"need at least {MIN_SAMPLE} correspondences, got {len(corr)}")
    a = corr.points_a
    b = corr.points_b
    ca = a.mean(axis=0)
    cb = b.mean(axis=0)
    a0 = a - ca
    b0 = b - cb
    sa = float(np.sum(a0 * a0))
    sb = float(np.sum(b0 * b0))
    if sa <= 0.0:
        raise DegenerateGeometryError("source points are coincident")
    svals = np.linalg.svd(a0, compute_uv=False)
    if svals[1] <= 1e-9 * svals[0]:
        raise DegenerateGeometryError("source points are collinear")
    H = a0.T @ b0
    U, _, Vt = np.linalg.svd(H)
    V = Vt.T
    d = np.sign(np.linalg.det(V @ U.T))
    R = V @ np.diag([1.0, 1.0, d]) @ U.T
    s = float(np.sqrt(sb / sa))
    if not (np.isfinite(s) and s > 0.0):
        raise DegenerateGeometryError("target points are coincident; scale unobservable")
    t = cb - s * (R @ ca)
    return Sim3(s=s, q=matrix_to_quat(R), t=t)


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
    skipped); the best consensus set is refit with the closed form.  Fully
    deterministic for a fixed seed, with the standard adaptive iteration
    cutoff at :data:`DEFAULT_CONFIDENCE`.
    """
    n = len(corr)
    if n < MIN_SAMPLE:
        raise ValidationError(f"need at least {MIN_SAMPLE} correspondences, got {n}")
    threshold = inlier_threshold if inlier_threshold is not None else default_inlier_threshold(corr)
    if threshold <= 0:
        raise ValidationError("inlier threshold must be positive")
    rng = np.random.default_rng(seed)
    a = corr.points_a
    b = corr.points_b
    best_mask = None
    best_count = 0
    needed = max_iterations
    it = 0
    while it < needed:
        it += 1
        sample = rng.choice(n, size=MIN_SAMPLE, replace=False)
        try:
            model = horn_similarity(
                CorrespondenceSet(corr.track_ids[sample], a[sample], b[sample])
            )
        except DegenerateGeometryError:
            continue
        residuals = np.linalg.norm(b - model.apply(a), axis=1)
        mask = residuals < threshold
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
        CorrespondenceSet(inlier_ids, a[best_mask], b[best_mask])
    )
    return refit, inlier_ids
