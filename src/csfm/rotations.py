"""Quaternion and axis-angle rotation algebra.

Quaternions are scalar-first ``(w, x, y, z)`` numpy arrays, kept unit-norm and
canonicalized to the ``w >= 0`` hemisphere.  Axis-angle vectors are 3-vectors
whose direction is the rotation axis and whose magnitude is the angle in
radians, restricted to the principal branch ``|angle| <= pi``.

The quaternion products and conversions (:func:`quat_canonical`,
:func:`quat_multiply`, :func:`quat_conjugate`, :func:`quat_to_matrix`,
:func:`matrix_to_quat`, :func:`geodesic_angle`) and the axis-angle maps
(:func:`exp_rotation`, :func:`log_rotation`, :func:`log_matrix`) take one
item or a stack, ``(..., 3)``, ``(..., 4)`` or ``(..., 3, 3)``, and give each
row of a stack the bits it gets on its own, so a loop over rows and one call
on the stack agree.
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError

IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])

_TINY = 1e-300
_CONJUGATE = np.array([1.0, -1.0, -1.0, -1.0])
UNIT_NORM_TOL = 4 * np.finfo(float).eps


def _norms(v) -> np.ndarray:
    """Euclidean norm along the last axis, each the bits ``np.linalg.norm``
    gives that vector alone: ``v[k] @ v[k]`` is the BLAS dot it takes, where
    ``np.linalg.norm(axis=-1)`` differs in the last bit on some rows."""
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def quat_canonical(q) -> np.ndarray:
    """Normalize to unit norm and the w >= 0 hemisphere.

    ``q`` is one quaternion or a stack ``(..., 4)``; each row is
    canonicalized alone and gets the bits it gets on its own.  A quaternion
    whose norm is within a few ulps of 1 is kept as it is: dividing by such a
    norm again would move its last bits, so a quaternion read back from an
    artifact would differ from the one written.  At w == 0 the sign is fixed
    by making the largest-magnitude vector component positive, so half-turn
    rotations canonicalize deterministically.
    """
    q = np.asarray(q, dtype=float)
    if q.shape[-1:] != (4,):
        raise ValidationError(f"quaternion must have shape (4,) or (..., 4), got {q.shape}")
    rows = q.reshape(-1, 4)
    n = _norms(rows)
    if not (np.isfinite(n).all() and (n >= 1e-12).all()):
        raise ValidationError("quaternion has near-zero or non-finite norm")
    rows = np.where((np.abs(n - 1.0) > UNIT_NORM_TOL)[:, None], rows / n[:, None], rows)
    w = rows[:, 0]
    big = np.argmax(np.abs(rows[:, 1:]), axis=1) + 1
    flip = (w < 0.0) | ((w == 0.0) & (rows[np.arange(rows.shape[0]), big] < 0.0))
    return np.where(flip[:, None], -rows, rows).reshape(q.shape)


def quat_multiply(a, b) -> np.ndarray:
    """Hamilton product a*b (apply b's rotation, then a's); either factor
    may be a stack ``(..., 4)``, broadcast against the other."""
    aw, ax, ay, az = np.moveaxis(np.asarray(a, dtype=float), -1, 0)
    bw, bx, by, bz = np.moveaxis(np.asarray(b, dtype=float), -1, 0)
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def quat_conjugate(q) -> np.ndarray:
    return np.asarray(q, dtype=float) * _CONJUGATE


def quat_to_matrix(q) -> np.ndarray:
    """Rotation matrix of a quaternion, or ``(..., 3, 3)`` of a stack."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = np.moveaxis(q, -1, 0)
    return np.stack(
        [
            1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
            2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
            2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
        ],
        axis=-1,
    ).reshape(q.shape[:-1] + (3, 3))


def matrix_to_quat(m) -> np.ndarray:
    """Shepperd's method on a rotation matrix or a stack ``(..., 3, 3)``;
    returns the canonical quaternions."""
    m = np.asarray(m, dtype=float)
    rows = m.reshape(-1, 3, 3)
    k = np.arange(rows.shape[0])
    tr = np.trace(rows, axis1=1, axis2=2)
    # both branches on every row; a row keeps the one its trace picks
    r = np.sqrt(1.0 + np.where(tr > 0.0, tr, 0.0))
    s = 0.5 / r
    pos = np.stack(
        [0.5 * r, (rows[:, 2, 1] - rows[:, 1, 2]) * s, (rows[:, 0, 2] - rows[:, 2, 0]) * s,
         (rows[:, 1, 0] - rows[:, 0, 1]) * s],
        axis=1,
    )
    i = np.argmax(np.diagonal(rows, axis1=1, axis2=2), axis=1)
    j, l = (i + 1) % 3, (i + 2) % 3
    x = 1.0 + rows[k, i, i] - rows[k, j, j] - rows[k, l, l]
    r = np.sqrt(np.where(0.0 > x, 0.0, x))  # a rounding error below 0 clamps to 0
    s = 0.5 / np.where(1e-300 > r, 1e-300, r)
    neg = np.empty_like(pos)
    neg[:, 0] = (rows[k, l, j] - rows[k, j, l]) * s
    neg[k, i + 1] = 0.5 * r
    neg[k, j + 1] = (rows[k, j, i] + rows[k, i, j]) * s
    neg[k, l + 1] = (rows[k, l, i] + rows[k, i, l]) * s
    q = np.where((tr > 0.0)[:, None], pos, neg)
    return quat_canonical(q.reshape(m.shape[:-2] + (4,)))


def rotate_points(q, pts) -> np.ndarray:
    """Apply the rotation to an (n, 3) array (or a single 3-vector)."""
    pts = np.asarray(pts, dtype=float)
    R = quat_to_matrix(q)
    if pts.ndim == 1:
        return R @ pts
    return pts @ R.T


def log_rotation(q) -> np.ndarray:
    """Axis-angle vector of the rotation, or ``(..., 3)`` of a stack
    ``(..., 4)``; principal branch, |result| <= pi."""
    q = quat_canonical(q)
    w = q[..., 0]
    v = q[..., 1:]
    s = _norms(v)
    small = s < 1e-12
    # series: 2*atan2(s, w)/s -> 2/w as s -> 0
    factor = np.where(
        small, 2.0 / np.maximum(w, _TINY), 2.0 * np.arctan2(s, w) / np.where(small, 1.0, s)
    )
    return v * factor[..., None]


def exp_rotation(aa) -> np.ndarray:
    """Quaternion of an axis-angle vector, or ``(..., 4)`` of a stack
    ``(..., 3)`` (inverse of :func:`log_rotation`)."""
    aa = np.asarray(aa, dtype=float)
    if aa.shape[-1:] != (3,):
        raise ValidationError(f"axis-angle vector must have shape (3,) or (..., 3), got {aa.shape}")
    angle = _norms(aa)
    small = angle < 1e-12
    half = 0.5 * angle
    # sin(t/2)/t ~ 1/2 - t^2/48
    factor = np.where(
        small, 0.5 - angle * angle / 48.0, np.sin(half) / np.where(small, 1.0, angle)
    )
    w = np.where(small, 1.0, np.cos(half))
    return quat_canonical(np.concatenate([w[..., None], aa * factor[..., None]], axis=-1))


def log_matrix(m) -> np.ndarray:
    """Axis-angle vector of a rotation matrix, or ``(..., 3)`` of a stack."""
    return log_rotation(matrix_to_quat(m))


def geodesic_angle(qa, qb):
    """Rotation angle between two quaternions, in [0, pi]; on stacks, the
    angle between each pair of rows.

    Uses the atan2 form of the relative quaternion, which stays accurate for
    tiny angles where arccos of the dot product loses half the significand.
    """
    d = quat_multiply(quat_canonical(qa), quat_conjugate(quat_canonical(qb)))
    angle = 2.0 * np.arctan2(_norms(d[..., 1:]), np.abs(d[..., 0]))
    return float(angle) if angle.ndim == 0 else angle


def random_quat(rng) -> np.ndarray:
    """Uniform random rotation (normalized 4-d Gaussian)."""
    return random_quats(rng, 1)[0]


def random_quats(rng, count: int) -> np.ndarray:
    """``count`` uniform random rotations as a ``(count, 4)`` stack: bit for
    bit the quaternions of ``count`` successive :func:`random_quat` calls.

    One ``rng.normal(size=(count, 4))`` reads the same stream as ``count``
    draws of 4.  A draw whose norm is at most 1e-6 is rejected, so the draws
    after it move up one place and the shortfall is drawn after the batch,
    where draws one at a time would also have read it.
    """
    q = rng.normal(size=(count, 4))
    n = _norms(q)
    keep = n > 1e-6
    out = quat_canonical(q[keep] / n[keep, None])
    if out.shape[0] < count:
        out = np.concatenate([out, random_quats(rng, count - out.shape[0])])
    return out
