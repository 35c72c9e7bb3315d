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
from .rotations import UNIT_NORM_TOL, matrix_to_quat
from .sim3 import Sim3

MIN_SAMPLE = 3
DEFAULT_MAX_ITERATIONS = 1024
DEFAULT_CONFIDENCE = 0.999
RELATIVE_THRESHOLD = 0.01  # of the median axis extent, when no threshold given
# RANSAC fits hypotheses in batches: few first, as an outlier-free pair
# stops after one, then twice as many each time up to MAX_BATCH
FIRST_BATCH = 16
MAX_BATCH = 256
_FITTED, _DEGENERATE, _IRREGULAR = 0, 1, 2


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
    skipped but count as iterations); the best consensus set is refit with
    the closed form.  Fully deterministic for a fixed seed, with the standard
    adaptive iteration cutoff at :data:`DEFAULT_CONFIDENCE`.  Hypotheses are
    fitted and scored in batches (see :func:`_hypothesis_masks`) but scanned
    one at a time, so the result is that of fitting each sample with
    :func:`horn_similarity` in turn.
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
    more than ``remaining()`` hypotheses the caller may still scan.  Every
    mask is the one :func:`horn_similarity` and ``Sim3.apply`` give for the
    sample: :func:`_fit_samples` repeats their arithmetic on stacked arrays.
    A sample whose arithmetic leaves the finite range is fitted by
    :func:`horn_similarity` itself, so it fails the way it always did.
    """
    ids, a, b = corr.track_ids, corr.points_a, corr.points_b
    size = FIRST_BATCH
    while True:
        samples = np.array(
            [rng.choice(len(corr), size=MIN_SAMPLE, replace=False)
             for _ in range(min(size, remaining()))]
        )
        size = min(2 * size, MAX_BATCH)
        s, R, t, status = _fit_samples(a[samples], b[samples])
        with np.errstate(all="ignore"):  # rows of degenerate samples
            fitted = s[:, None, None] * (a @ R.transpose(0, 2, 1)) + t[:, None]
            masks = np.linalg.norm(b - fitted, axis=-1) < threshold
        for sample, state, mask in zip(samples.tolist(), status.tolist(), masks):
            if state == _FITTED:
                yield mask
            elif state == _DEGENERATE:
                yield None
            else:
                try:
                    model = horn_similarity(CorrespondenceSet(ids[sample], a[sample], b[sample]))
                except DegenerateGeometryError:
                    yield None
                else:
                    yield np.linalg.norm(b - model.apply(a), axis=1) < threshold


def _fit_samples(A: np.ndarray, B: np.ndarray):
    """:func:`horn_similarity` of each stacked sample ``A[k] -> B[k]``, step
    for step on ``(k, 3, 3)`` arrays, so every value is bit-identical.

    Returns ``(s, R, t, status)``: ``R`` is the rotation matrix of the
    fitted quaternion, as ``Sim3.apply`` uses it.  ``status`` is
    :data:`_FITTED`, :data:`_DEGENERATE` where :func:`horn_similarity`
    raises :class:`DegenerateGeometryError`, or :data:`_IRREGULAR` where a
    non-finite intermediate makes its outcome (an error, or whatever LAPACK
    makes of non-finite input) something only it can reproduce.
    """
    k = A.shape[0]
    with np.errstate(all="ignore"):
        ca = A.mean(axis=1)
        cb = B.mean(axis=1)
        a0 = A - ca[:, None]
        b0 = B - cb[:, None]
        sa = np.sum((a0 * a0).reshape(k, 9), axis=1)
        sb = np.sum((b0 * b0).reshape(k, 9), axis=1)
        H = a0.transpose(0, 2, 1) @ b0
        a_finite = np.isfinite(a0).all(axis=(1, 2))
        h_finite = np.isfinite(H).all(axis=(1, 2))
        # LAPACK may fail or hang on non-finite input; those rows are irregular
        svals = np.linalg.svd(np.where(a_finite[:, None, None], a0, 0.0), compute_uv=False)
        U, _, Vt = np.linalg.svd(np.where(h_finite[:, None, None], H, 0.0))
        V = Vt.transpose(0, 2, 1)
        D = np.zeros((k, 3, 3))
        D[:, 0, 0] = D[:, 1, 1] = 1.0
        D[:, 2, 2] = np.sign(np.linalg.det(V @ U.transpose(0, 2, 1)))
        R = V @ D @ U.transpose(0, 2, 1)
        s = np.sqrt(sb / sa)
        t = cb - s[:, None] * (R @ ca[:, :, None])[:, :, 0]
        # matrix_to_quat, then the canonical form again as Sim3 takes it
        q = _canonical_rows(_canonical_rows(_shepperd_rows(R)))
    # horn_similarity's checks in its order: the first that fires decides
    status = np.select(
        [
            sa <= 0.0,
            ~a_finite,
            svals[:, 1] <= 1e-9 * svals[:, 0],
            ~h_finite,
            ~(np.isfinite(s) & (s > 0.0)),
            ~np.isfinite(t).all(axis=1),  # refused by Sim3
        ],
        [_DEGENERATE, _IRREGULAR, _DEGENERATE, _IRREGULAR, _DEGENERATE, _IRREGULAR],
        _FITTED,
    )
    return s, _rotation_rows(q), t, status


def _shepperd_rows(m: np.ndarray) -> np.ndarray:
    """:func:`~csfm.rotations.matrix_to_quat` of each ``m[k]``, before its
    canonical form."""
    k = np.arange(m.shape[0])
    tr = np.trace(m, axis1=1, axis2=2)
    r = np.sqrt(1.0 + tr)
    s = 0.5 / r
    pos = np.stack(
        [0.5 * r, (m[:, 2, 1] - m[:, 1, 2]) * s, (m[:, 0, 2] - m[:, 2, 0]) * s,
         (m[:, 1, 0] - m[:, 0, 1]) * s],
        axis=1,
    )
    i = np.argmax(np.diagonal(m, axis1=1, axis2=2), axis=1)
    j, l = (i + 1) % 3, (i + 2) % 3
    x = 1.0 + m[k, i, i] - m[k, j, j] - m[k, l, l]
    r = np.sqrt(np.where(0.0 > x, 0.0, x))  # Python's max(x, 0.0)
    s = 0.5 / np.where(1e-300 > r, 1e-300, r)
    neg = np.empty_like(pos)
    neg[:, 0] = (m[k, l, j] - m[k, j, l]) * s
    neg[k, i + 1] = 0.5 * r
    neg[k, j + 1] = (m[k, j, i] + m[k, i, j]) * s
    neg[k, l + 1] = (m[k, l, i] + m[k, i, l]) * s
    return np.where((tr > 0.0)[:, None], pos, neg)


def _canonical_rows(q: np.ndarray) -> np.ndarray:
    """:func:`~csfm.rotations.quat_canonical` of each row (a quaternion
    Shepperd's method gives from a rotation, so never near zero)."""
    # q[k] @ q[k] is the BLAS dot np.linalg.norm takes of a vector
    n = np.sqrt((q[:, None, :] @ q[:, :, None])[:, 0, 0])
    q = np.where((np.abs(n - 1.0) > UNIT_NORM_TOL)[:, None], q / n[:, None], q)
    k = np.arange(q.shape[0])
    big = np.argmax(np.abs(q[:, 1:]), axis=1) + 1
    flip = (q[:, 0] < 0.0) | ((q[:, 0] == 0.0) & (q[k, big] < 0.0))
    return np.where(flip[:, None], -q, q)


def _rotation_rows(q: np.ndarray) -> np.ndarray:
    """:func:`~csfm.rotations.quat_to_matrix` of each row, as ``(k, 3, 3)``."""
    w, x, y, z = q.T
    return np.stack(
        [
            1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
            2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
            2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
        ],
        axis=1,
    ).reshape(-1, 3, 3)
