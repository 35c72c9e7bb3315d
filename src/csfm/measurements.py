"""Pairwise similarity measurements between community reconstructions.

Conventions (one transform per community, applied as local -> merged frame
``X_g = s_k R_k X_k + T_k``):

* scale:        ``s_ij = s_i / s_j`` — the raw frame-i -> frame-j scale;
* rotation:     ``r_ij = R_i^T R_j`` — the transpose of the frame-i ->
  frame-j rotation, invariant to a shared left-rotation of all communities;
* translation:  ``t_ij = T_j - T_i``, recomputed after the scale/rotation
  stage from scale-and-rotation-aligned co-visible points.

Measurements are canonicalized to ``i < j``; the reverse direction is the
Sim3 inverse and is never stored twice.  A :class:`MeasurementGraph` holds
them as one table of aligned columns (``i``, ``j``, ``s``, ``q``, ``t``,
``inliers``), the form the averaging solves read; the measurement files keep
one ``{"i", "j", "s_ij", "q_ij", "t_ij", "inliers"}`` record per pair.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .alignment import MIN_SAMPLE, ransac_similarity
from .errors import DisconnectedGraphError, ValidationError
from .graph import component_labels
from .jsonio import column, parsing, records, write_json
from .rotations import quat_canonical, quat_conjugate

# One track beyond RANSAC's minimal sample, so that some track outside the
# sample can vote for or against the fit.  A pair sharing only a minimal
# sample leaves none, so its estimate is weak evidence; it is not an exact
# fit (a similarity has 7 unknowns, three tracks give 9 equations).
MIN_COVISIBLE = MIN_SAMPLE + 1


@dataclass(frozen=True)
class MeasurementGraph:
    """The measured community pairs as a table of aligned columns, one row
    per pair: ends ``i < j``, scale ``s`` (``s_ij``), rotation ``q``
    (``r_ij``, canonical quaternions), RANSAC ``inliers`` and translation
    ``t`` (``t_ij``; ``None`` until the recompute stage fills every row)."""

    community_count: int
    i: np.ndarray  # (n,) int64
    j: np.ndarray  # (n,) int64
    s: np.ndarray  # (n,)
    q: np.ndarray  # (n, 4)
    inliers: np.ndarray  # (n,) int64
    t: np.ndarray | None = None  # (n, 3)

    def __post_init__(self):
        k = int(self.community_count)
        i = np.asarray(self.i, dtype=np.int64).reshape(-1)
        j = np.asarray(self.j, dtype=np.int64).reshape(-1)
        s = np.asarray(self.s, dtype=float).reshape(-1)
        q = np.asarray(self.q, dtype=float)
        t = None if self.t is None else np.asarray(self.t, dtype=float)
        inliers = np.asarray(self.inliers, dtype=np.int64).reshape(-1)
        n = i.size
        if not j.size == s.size == inliers.size == n:
            raise ValidationError("measurement columns must have one entry per pair")
        if q.shape != (n, 4):
            raise ValidationError(f"measured rotation must be one quaternion per pair, not {q.shape}")
        if t is not None and t.shape != (n, 3):
            raise ValidationError(f"measured translation must be one 3-vector per pair, not {t.shape}")
        # a row's own checks, then the graph's; the first offending row decides
        norms = np.sqrt(np.einsum("ij,ij->i", q, q))
        _first_fault(
            (i == j, lambda r: "measurement endpoints must differ"),
            (i > j, lambda r: "measurements are canonicalized to i < j"),
            (~(np.isfinite(s) & (s > 0)), lambda r: f"measured scale must be positive, got {s[r]}"),
            (~(np.isfinite(norms) & (norms >= 1e-12)),
             lambda r: "quaternion has near-zero or non-finite norm"),
            (np.zeros(n, bool) if t is None else ~np.isfinite(t).all(axis=1),
             lambda r: "measured translation must be finite"),
        )
        if k <= 0:
            raise ValidationError("community count must be positive")
        repeated = np.ones(n, dtype=bool)
        repeated[np.unique(np.column_stack([i, j]), axis=0, return_index=True)[1]] = False
        _first_fault(  # i < j on every row by now
            ((i < 0) | (j >= k), lambda r: f"measurement endpoint out of range: ({i[r]}, {j[r]})"),
            (repeated, lambda r: f"duplicate measurement for pair ({i[r]}, {j[r]})"),
        )
        for name, value in (("community_count", k), ("i", i), ("j", j), ("s", s),
                            ("q", quat_canonical(q)), ("t", t), ("inliers", inliers)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_rows(cls, community_count: int, rows) -> "MeasurementGraph":
        """Stack ``(i, j, s, q, inliers)`` rows, as :func:`pairwise_measurement`
        gives them, into a graph without translations."""
        i, j, s, q, inliers = zip(*rows) if rows else ((),) * 5
        return cls(community_count, i, j, s, np.reshape(q, (-1, 4)), inliers)

    @cached_property
    def is_connected(self) -> bool:
        """Whether the pairs connect every community; labelled once per
        graph, which its frozen columns keep valid."""
        edges = np.column_stack([self.i, self.j])
        return bool(component_labels(self.community_count, edges).max() == 0)

    def require_connected(self, context: str = "averaging"):
        if not self.is_connected:
            raise DisconnectedGraphError(
                f"measurement graph is disconnected; {context} needs a connected graph"
            )


def _first_fault(*checks):
    """Raise the message of the first failing check on the first row that
    fails any; ``checks`` pairs a per-row fault mask with a message for a row."""
    faults = np.stack([mask for mask, _ in checks])
    rows = np.flatnonzero(faults.any(axis=0))
    if rows.size:
        r = int(rows[0])
        raise ValidationError(checks[int(np.argmax(faults[:, r]))][1](r))


def pairwise_measurement(pair, seed: int = 0, counts: dict | None = None) -> tuple:
    """Estimate the similarity between two communities from their shared tracks.

    ``pair`` is a :func:`~csfm.reconstruction.covisible_pairs` entry
    ``(rec_i, rec_j, ia, ib)``, ends in ascending order of community id.
    Runs RANSAC on the frame-i -> frame-j correspondences and returns the
    pair's row ``(i, j, s_ij, r_ij, inliers)``.  The scale is the fit's as-is
    (it already equals ``s_i / s_j``) and the rotation its transpose, so it
    composes as ``R_i^T R_j`` of the per-community alignment rotations.  The
    row holds no translation; that is recomputed after scales and rotations
    are averaged.  ``counts`` is passed to :func:`ransac_similarity`.
    """
    rec_i, rec_j, ia, ib = pair
    sim, inliers = ransac_similarity(rec_i.points[ia], rec_j.points[ib], seed=seed, counts=counts)
    return rec_i.community_id, rec_j.community_id, sim.s, quat_conjugate(sim.q), inliers.size


def measurements_to_json(mg: MeasurementGraph) -> list:
    t = [None] * mg.i.size if mg.t is None else mg.t.tolist()
    columns = (mg.i.tolist(), mg.j.tolist(), mg.s.tolist(), mg.q.tolist(), t, mg.inliers.tolist())
    return [
        {"i": i, "j": j, "s_ij": s, "q_ij": q, "t_ij": t_ij, "inliers": n}
        for i, j, s, q, t_ij, n in zip(*columns)
    ]


def save_measurements(mg: MeasurementGraph, path) -> None:
    """Write the measurement records (the graph's node count is implied by the
    per-community reconstruction set it belongs to)."""
    write_json(path, measurements_to_json(mg))


def load_measurements(path, community_count=None) -> MeasurementGraph:
    """Read a measurement list; infers the community count from the largest
    endpoint unless given explicitly.  Translations are all set or all
    ``null``."""
    with parsing(path, "measurement file") as obj:
        recs = records(obj, "measurement file", "measurement")
        t = [r["t_ij"] for r in recs]
        t = column(t, "measured translation", width=3) if any(v is not None for v in t) else None
        i, j, inliers = [
            column([r[key] for r in recs], f"measurement {key}", np.int64)
            for key in ("i", "j", "inliers")
        ]
        s = column([r["s_ij"] for r in recs], "measured scale")
        q = column([r["q_ij"] for r in recs], "measured rotation", width=4)
    if community_count is None:
        if not recs:
            raise ValidationError("cannot infer the community count from an empty measurement list")
        community_count = int(max(i.max(), j.max())) + 1
    return MeasurementGraph(community_count, i, j, s, q, inliers, t)
