"""Similarity transforms: scale, rotation, translation (7 DoF).

``apply(p) = s * R @ p + t``.  The one similarity type: RANSAC/Horn pairwise
estimates, the planted frames of a synthetic world, and the per-community
transforms into the merged frame, which travel as ``{community id: Sim3}``
dicts through averaging, merging, refinement and ``transforms.json``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .jsonio import column, scalar
from .rotations import (
    IDENTITY_QUAT,
    quat_canonical,
    quat_conjugate,
    rotate_points,
)


@dataclass(frozen=True)
class Sim3:
    s: float = 1.0
    q: np.ndarray = field(default_factory=lambda: IDENTITY_QUAT.copy())
    t: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        if not (np.isfinite(self.s) and self.s > 0.0):
            raise ValidationError(f"scale must be positive and finite, got {self.s}")
        object.__setattr__(self, "s", float(self.s))
        q = quat_canonical(self.q)
        if q.shape != (4,):
            raise ValidationError(f"rotation must be one quaternion, not {q.shape}")
        object.__setattr__(self, "q", q)
        t = np.asarray(self.t, dtype=float)
        if t.shape != (3,) or not np.all(np.isfinite(t)):
            raise ValidationError("translation must be a finite 3-vector")
        object.__setattr__(self, "t", t)

    def apply(self, pts) -> np.ndarray:
        """Transform a 3-vector or an (n, 3) array."""
        return self.s * rotate_points(self.q, pts) + self.t

    def inverse(self) -> "Sim3":
        q_inv = quat_conjugate(self.q)
        return Sim3(s=1.0 / self.s, q=q_inv, t=-rotate_points(q_inv, self.t) / self.s)

    def to_json(self) -> dict:
        return {"s": self.s, "q": [float(v) for v in self.q], "t": [float(v) for v in self.t]}

    @classmethod
    def from_json(cls, obj: dict) -> "Sim3":
        return cls(
            s=scalar(obj["s"], "similarity scale"),
            q=column([obj["q"]], "similarity rotation", width=4)[0],
            t=column([obj["t"]], "similarity translation", width=3)[0],
        )
