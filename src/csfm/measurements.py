"""Pairwise similarity measurements between community reconstructions.

Conventions (one transform per community, applied as local -> merged frame
``X_g = s_k R_k X_k + T_k``):

* scale:        ``s_ij = s_i / s_j`` — the raw frame-i -> frame-j scale;
* rotation:     ``r_ij = R_i^T R_j`` — the transpose of the frame-i ->
  frame-j rotation, invariant to a shared left-rotation of all communities;
* translation:  ``t_ij = T_j - T_i``, recomputed after the scale/rotation
  stage from scale-and-rotation-aligned co-visible points.

Measurements are canonicalized to ``i < j``; the reverse direction is the
Sim3 inverse and is never stored twice.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .alignment import MIN_SAMPLE, ransac_similarity
from .errors import DisconnectedGraphError, ValidationError
from .graph import component_labels
from .jsonio import column, parsing, records, write_json
from .reconstruction import Reconstruction, covisible
from .rotations import quat_canonical, quat_conjugate

# One track beyond RANSAC's minimal sample, so some track can vote against
# the fit: a pair sharing exactly a minimal sample always fits all of it.
MIN_COVISIBLE = MIN_SAMPLE + 1


@dataclass(frozen=True)
class PairwiseSimilarityMeasurement:
    i: int
    j: int
    s_ij: float
    r_ij: np.ndarray  # quaternion
    t_ij: np.ndarray | None = None
    inlier_count: int = 0

    def __post_init__(self):
        if self.i == self.j:
            raise ValidationError("measurement endpoints must differ")
        if self.i > self.j:
            raise ValidationError("measurements are canonicalized to i < j")
        if not (np.isfinite(self.s_ij) and self.s_ij > 0):
            raise ValidationError(f"measured scale must be positive, got {self.s_ij}")
        object.__setattr__(self, "i", int(self.i))
        object.__setattr__(self, "j", int(self.j))
        object.__setattr__(self, "s_ij", float(self.s_ij))
        r_ij = quat_canonical(self.r_ij)
        if r_ij.shape != (4,):
            raise ValidationError(f"measured rotation must be one quaternion, not {r_ij.shape}")
        object.__setattr__(self, "r_ij", r_ij)
        if self.t_ij is not None:
            t = np.asarray(self.t_ij, dtype=float).reshape(3)
            if not np.all(np.isfinite(t)):
                raise ValidationError("measured translation must be finite")
            object.__setattr__(self, "t_ij", t)
        object.__setattr__(self, "inlier_count", int(self.inlier_count))

    def with_translation(self, t) -> "PairwiseSimilarityMeasurement":
        return PairwiseSimilarityMeasurement(
            i=self.i, j=self.j, s_ij=self.s_ij, r_ij=self.r_ij, t_ij=t,
            inlier_count=self.inlier_count,
        )


@dataclass(frozen=True)
class MeasurementGraph:
    community_count: int
    measurements: tuple
    allow_duplicates: bool = field(default=False, compare=False)

    def __post_init__(self):
        k = int(self.community_count)
        meas = tuple(self.measurements)
        if k <= 0:
            raise ValidationError("community count must be positive")
        seen = set()
        for m in meas:
            if not 0 <= m.i < k or not 0 <= m.j < k:
                raise ValidationError(f"measurement endpoint out of range: ({m.i}, {m.j})")
            key = (m.i, m.j)
            if key in seen and not self.allow_duplicates:
                raise ValidationError(f"duplicate measurement for pair {key}")
            seen.add(key)
        object.__setattr__(self, "community_count", k)
        object.__setattr__(self, "measurements", meas)

    def is_connected(self) -> bool:
        edges = np.array([(m.i, m.j) for m in self.measurements], dtype=np.int64).reshape(-1, 2)
        return bool(component_labels(self.community_count, edges).max() == 0)

    def require_connected(self, context: str = "averaging"):
        if not self.is_connected():
            raise DisconnectedGraphError(
                f"measurement graph is disconnected; {context} needs a connected graph"
            )


def pairwise_measurement(
    rec_i: Reconstruction,
    rec_j: Reconstruction,
    seed: int = 0,
) -> PairwiseSimilarityMeasurement:
    """Estimate the similarity between two communities from co-visible points.

    Runs RANSAC on the frame-i -> frame-j correspondences; the resulting scale
    is stored as-is (it already equals ``s_i / s_j``) and the rotation is
    stored transposed so it composes as ``R_i^T R_j`` of the per-community
    alignment rotations.  Translation is left unset here; it is recomputed
    after scales and rotations are averaged.
    """
    if rec_i.community_id == rec_j.community_id:
        raise ValidationError("pairwise measurement needs two distinct communities")
    if rec_i.community_id > rec_j.community_id:
        rec_i, rec_j = rec_j, rec_i
    corr = covisible(rec_i, rec_j)
    if len(corr) < MIN_COVISIBLE:
        raise ValidationError(
            f"communities {rec_i.community_id} and {rec_j.community_id} share only "
            f"{len(corr)} tracks; need at least {MIN_COVISIBLE}"
        )
    sim, inlier_ids = ransac_similarity(corr, seed=seed)
    return PairwiseSimilarityMeasurement(
        i=rec_i.community_id,
        j=rec_j.community_id,
        s_ij=sim.s,
        r_ij=quat_conjugate(sim.q),
        t_ij=None,
        inlier_count=len(inlier_ids),
    )


def median_offset(tracks_i, points_i, tracks_j, points_j) -> np.ndarray:
    """Translation offset between two scale/rotation-aligned point sets,
    given as track ids (unique, sorted) and their aligned points.

    Component-wise median of ``X'_i - X'_j`` over co-visible tracks, which
    estimates ``T_j - T_i`` and shrugs off a minority of corrupted tracks.
    """
    _, ia, ib = np.intersect1d(tracks_i, tracks_j, assume_unique=True, return_indices=True)
    if ia.size == 0:
        raise ValidationError("no co-visible tracks; translation unobservable")
    return np.median(points_i[ia] - points_j[ib], axis=0)


def measurements_to_json(mg: MeasurementGraph) -> list:
    out = []
    for m in mg.measurements:
        out.append(
            {
                "i": m.i,
                "j": m.j,
                "s_ij": m.s_ij,
                "q_ij": [float(v) for v in m.r_ij],
                "t_ij": None if m.t_ij is None else [float(v) for v in m.t_ij],
                "inliers": m.inlier_count,
            }
        )
    return out


def save_measurements(mg: MeasurementGraph, path) -> None:
    """Write the measurement list (the graph's node count is implied by the
    per-community reconstruction set it belongs to)."""
    write_json(path, measurements_to_json(mg))


def load_measurements(path, community_count=None) -> MeasurementGraph:
    """Read a measurement list; infers the community count from the largest
    endpoint unless given explicitly.  Translations are all set or all
    ``null``."""
    with parsing(path, "measurement file") as obj:
        recs = records(obj, "measurement file", "measurement")
        t = [r["t_ij"] for r in recs]
        if any(v is not None for v in t):
            t = column(t, "measured translation", width=3)
        i, j, inliers = [
            column([r[key] for r in recs], f"measurement {key}", np.int64).tolist()
            for key in ("i", "j", "inliers")
        ]
        scales = column([r["s_ij"] for r in recs], "measured scale").tolist()
        rotations = column([r["q_ij"] for r in recs], "measured rotation", width=4)
    meas = tuple(
        PairwiseSimilarityMeasurement(i=a, j=b, s_ij=s, r_ij=q, t_ij=tab, inlier_count=n)
        for a, b, s, q, tab, n in zip(i, j, scales, rotations, t, inliers)
    )
    if community_count is None:
        if not meas:
            raise ValidationError("cannot infer the community count from an empty measurement list")
        community_count = max(max(m.i, m.j) for m in meas) + 1
    return MeasurementGraph(community_count=community_count, measurements=meas)
