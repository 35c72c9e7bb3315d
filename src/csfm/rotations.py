"""Quaternion and axis-angle rotation algebra.

Quaternions are scalar-first ``(w, x, y, z)`` numpy arrays, kept unit-norm and
canonicalized to the ``w >= 0`` hemisphere.  Axis-angle vectors are 3-vectors
whose direction is the rotation axis and whose magnitude is the angle in
radians, restricted to the principal branch ``|angle| <= pi``.
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError

IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])

_TINY = 1e-300
UNIT_NORM_TOL = 4 * np.finfo(float).eps


def quat_canonical(q) -> np.ndarray:
    """Normalize to unit norm and the w >= 0 hemisphere.

    A quaternion whose norm is within a few ulps of 1 is kept as it is:
    dividing by such a norm again would move its last bits, so a quaternion
    read back from an artifact would differ from the one written.  At w == 0
    the sign is fixed by making the largest-magnitude vector component
    positive, so half-turn rotations canonicalize deterministically.
    """
    q = np.array(q, dtype=float)  # a copy: a unit input is returned unscaled
    if q.shape != (4,):
        raise ValidationError(f"quaternion must have shape (4,), got {q.shape}")
    n = np.linalg.norm(q)
    if not np.isfinite(n) or n < 1e-12:
        raise ValidationError("quaternion has near-zero or non-finite norm")
    if abs(n - 1.0) > UNIT_NORM_TOL:
        q = q / n
    if q[0] < 0.0:
        q = -q
    elif q[0] == 0.0:
        k = int(np.argmax(np.abs(q[1:]))) + 1
        if q[k] < 0.0:
            q = -q
    return q


def quat_multiply(a, b) -> np.ndarray:
    """Hamilton product a*b (apply b's rotation, then a's)."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_conjugate(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_to_matrix(q) -> np.ndarray:
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def matrix_to_quat(m) -> np.ndarray:
    """Shepperd's method; returns the canonical quaternion."""
    m = np.asarray(m, dtype=float)
    t = np.trace(m)
    if t > 0.0:
        r = np.sqrt(1.0 + t)
        s = 0.5 / r
        q = np.array(
            [0.5 * r, (m[2, 1] - m[1, 2]) * s, (m[0, 2] - m[2, 0]) * s, (m[1, 0] - m[0, 1]) * s]
        )
    else:
        i = int(np.argmax(np.diag(m)))
        j, k = (i + 1) % 3, (i + 2) % 3
        r = np.sqrt(max(1.0 + m[i, i] - m[j, j] - m[k, k], 0.0))
        s = 0.5 / max(r, 1e-300)
        q = np.empty(4)
        q[0] = (m[k, j] - m[j, k]) * s
        q[i + 1] = 0.5 * r
        q[j + 1] = (m[j, i] + m[i, j]) * s
        q[k + 1] = (m[k, i] + m[i, k]) * s
    return quat_canonical(q)


def rotate_points(q, pts) -> np.ndarray:
    """Apply the rotation to an (n, 3) array (or a single 3-vector)."""
    pts = np.asarray(pts, dtype=float)
    R = quat_to_matrix(q)
    if pts.ndim == 1:
        return R @ pts
    return pts @ R.T


def log_rotation(q) -> np.ndarray:
    """Axis-angle vector of the rotation; principal branch, |result| <= pi."""
    q = quat_canonical(q)
    w = q[0]
    v = q[1:]
    s = np.linalg.norm(v)
    angle = 2.0 * np.arctan2(s, w)
    if s < 1e-12:
        # series: 2*atan2(s, w)/s -> 2/w as s -> 0
        return v * (2.0 / max(w, _TINY))
    return v * (angle / s)


def exp_rotation(aa) -> np.ndarray:
    """Quaternion of an axis-angle vector (inverse of :func:`log_rotation`)."""
    aa = np.asarray(aa, dtype=float)
    if aa.shape != (3,):
        raise ValidationError(f"axis-angle vector must have shape (3,), got {aa.shape}")
    angle = np.linalg.norm(aa)
    if angle < 1e-12:
        # sin(t/2)/t ~ 1/2 - t^2/48
        factor = 0.5 - angle * angle / 48.0
        return quat_canonical(np.concatenate(([1.0], aa * factor)))
    half = 0.5 * angle
    return quat_canonical(np.concatenate(([np.cos(half)], aa * (np.sin(half) / angle))))


def log_matrix(m) -> np.ndarray:
    return log_rotation(matrix_to_quat(m))


def geodesic_angle(qa, qb) -> float:
    """Rotation angle between two quaternions, in [0, pi].

    Uses the atan2 form of the relative quaternion, which stays accurate for
    tiny angles where arccos of the dot product loses half the significand.
    """
    d = quat_multiply(quat_canonical(qa), quat_conjugate(quat_canonical(qb)))
    return 2.0 * float(np.arctan2(np.linalg.norm(d[1:]), abs(d[0])))


def random_quat(rng) -> np.ndarray:
    """Uniform random rotation (normalized 4-d Gaussian)."""
    while True:
        q = rng.normal(size=4)
        n = np.linalg.norm(q)
        if n > 1e-6:
            return quat_canonical(q / n)
