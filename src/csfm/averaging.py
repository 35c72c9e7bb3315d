"""Global similarity averaging: scales, rotations, then translations.

Each stage stacks one constraint per pairwise measurement into a sparse
+1/-1 system and minimizes its L1 residual, which tolerates a minority of
corrupted measurements.  Community 0 is the gauge: its transform is pinned to
``(s=1, R=I, T=0)`` by eliminating its variables from the column space.

Stage order is fixed: scales, rotations, per-pair translation recomputation
on scale/rotation-aligned points, translations.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedGraphError, ValidationError
from .jsonio import read_json, write_json
from .l1 import SparseLinearSystem, solve_l1
from .measurements import MeasurementGraph, recompute_translation
from .reconstruction import Reconstruction
from .rotations import (
    IDENTITY_QUAT,
    exp_rotation,
    log_matrix,
    matrix_to_quat,
    quat_canonical,
    quat_to_matrix,
)
from .sim3 import Sim3

log = logging.getLogger(__name__)

GAUGE_COMMUNITY = 0

# Stage-level IRLS defaults: tighter smoothing than the solver's generic
# default so gross outliers leave sub-1e-6 bias in the recovered transforms.
DEFAULT_STAGE_EPSILON = 1e-9
DEFAULT_STAGE_MAX_ITERATIONS = 100
DEFAULT_STAGE_TOLERANCE = 1e-12

ROTATION_MAX_ITERATIONS = 32
ROTATION_UPDATE_TOL = 1e-9


@dataclass(frozen=True)
class IrlsOptions:
    epsilon: float = DEFAULT_STAGE_EPSILON
    max_iterations: int = DEFAULT_STAGE_MAX_ITERATIONS
    tolerance: float = DEFAULT_STAGE_TOLERANCE


@dataclass(frozen=True)
class CommunitySimilarity:
    community_id: int
    s: float
    r: np.ndarray  # quaternion
    t: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.s) and self.s > 0):
            raise ValidationError("community scale must be positive and finite")
        object.__setattr__(self, "community_id", int(self.community_id))
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "r", quat_canonical(self.r))
        t = np.asarray(self.t, dtype=float).reshape(3)
        object.__setattr__(self, "t", t)

    def sim3(self) -> Sim3:
        return Sim3(s=self.s, q=self.r, t=self.t)


def _edge_system(mg: MeasurementGraph, rhs: np.ndarray, plus_on_j: bool) -> SparseLinearSystem:
    """One row per measurement over the non-gauge communities.

    ``plus_on_j`` selects the row sign convention: +1 on j / -1 on i for
    difference constraints (rotations, translations), the opposite for the
    log-scale constraint."""
    k = mg.community_count
    rows = len(mg.measurements)
    row_idx, col_idx, values = [], [], []
    for r, m in enumerate(mg.measurements):
        si, sj = (-1.0, 1.0) if plus_on_j else (1.0, -1.0)
        if m.i != GAUGE_COMMUNITY:
            row_idx.append(r)
            col_idx.append(m.i - 1)
            values.append(si)
        if m.j != GAUGE_COMMUNITY:
            row_idx.append(r)
            col_idx.append(m.j - 1)
            values.append(sj)
    return SparseLinearSystem(
        rows=rows,
        cols=k - 1,
        row_idx=np.array(row_idx, dtype=np.int64),
        col_idx=np.array(col_idx, dtype=np.int64),
        values=np.array(values, dtype=float),
        rhs=rhs,
    )


def average_scales(mg: MeasurementGraph, opts: IrlsOptions = IrlsOptions()) -> np.ndarray:
    """Per-community scales from ``log s_i - log s_j = log s_ij`` rows.

    The gauge community's log-scale is eliminated (s = 1 exactly);
    the remaining system is solved in the L1 sense and exponentiated.
    """
    mg.require_connected("scale averaging")
    k = mg.community_count
    scales = np.ones(k)
    if k == 1 or not mg.measurements:
        return scales
    rhs = np.array([np.log(m.s_ij) for m in mg.measurements])
    sys = _edge_system(mg, rhs, plus_on_j=False)
    x = solve_l1(sys, epsilon=opts.epsilon, max_iterations=opts.max_iterations, tolerance=opts.tolerance)
    scales[1:] = np.exp(x)
    return scales


def spanning_tree_edges(mg: MeasurementGraph) -> list:
    """BFS spanning tree from the gauge community; returns measurement indices."""
    adj = mg.adjacency()
    seen = [False] * mg.community_count
    seen[GAUGE_COMMUNITY] = True
    queue = [GAUGE_COMMUNITY]
    tree = []
    while queue:
        v = queue.pop(0)
        for w, idx in adj[v]:
            if not seen[w]:
                seen[w] = True
                tree.append(idx)
                queue.append(w)
    return tree


def _chain_initial_rotations(mg: MeasurementGraph) -> list:
    """Initialize by composing measurements along the BFS spanning tree."""
    R = [None] * mg.community_count
    R[GAUGE_COMMUNITY] = np.eye(3)
    for idx in spanning_tree_edges(mg):
        m = mg.measurements[idx]
        rot = quat_to_matrix(m.r_ij)
        if R[m.i] is not None and R[m.j] is None:
            # R_i^T R_j = r_ij  =>  R_j = R_i r_ij
            R[m.j] = R[m.i] @ rot
        elif R[m.j] is not None and R[m.i] is None:
            R[m.i] = R[m.j] @ rot.T
    return R


def average_rotations(
    mg: MeasurementGraph,
    opts: IrlsOptions = IrlsOptions(),
    max_iterations: int = ROTATION_MAX_ITERATIONS,
    update_tolerance: float = ROTATION_UPDATE_TOL,
) -> np.ndarray:
    """Per-community rotations consistent with ``R_i^T R_j = r_ij``.

    Spanning-tree chaining seeds the estimate; each sweep linearizes the
    residual rotations into axis-angle space, solves the per-axis L1 systems
    ``dw_j - dw_i = log(R_i r_ij R_j^T)``, and applies the exponential
    updates.  Consistent measurements converge in the first sweep.  Returns
    an (k, 4) array of quaternions with the gauge community exactly identity.
    """
    mg.require_connected("rotation averaging")
    k = mg.community_count
    if k == 1 or not mg.measurements:
        return np.tile(IDENTITY_QUAT, (k, 1))
    R = _chain_initial_rotations(mg)
    meas_rot = [quat_to_matrix(m.r_ij) for m in mg.measurements]
    sys_pattern = _edge_system(mg, np.zeros(len(mg.measurements)), plus_on_j=True)

    converged = False
    max_step = np.inf
    for sweep in range(max_iterations):
        resid = np.empty((len(mg.measurements), 3))
        for idx, m in enumerate(mg.measurements):
            resid[idx] = log_matrix(R[m.i] @ meas_rot[idx] @ R[m.j].T)
        delta = np.zeros((k, 3))
        for axis in range(3):
            x = solve_l1(
                sys_pattern.with_rhs(resid[:, axis]),
                epsilon=opts.epsilon,
                max_iterations=opts.max_iterations,
                tolerance=opts.tolerance,
            )
            delta[1:, axis] = x
        max_step = float(np.max(np.linalg.norm(delta, axis=1)))
        if max_step < update_tolerance:
            converged = True
            break
        for c in range(1, k):
            R[c] = quat_to_matrix(exp_rotation(delta[c])) @ R[c]
    if not converged:
        l1_resid = float(np.abs(resid).sum())
        log.warning(
            "rotation averaging stopped after %d sweeps without convergence: "
            "last update %.3e rad, residual L1 %.3e rad over %d measurements",
            max_iterations, max_step, l1_resid, len(mg.measurements),
        )
    quats = np.tile(IDENTITY_QUAT, (k, 1))
    for c in range(1, k):
        quats[c] = matrix_to_quat(R[c])
    return quats


def transform_points_stage1(rec: Reconstruction, s: float, r_quat) -> Reconstruction:
    """Apply the scale-rotation part ``X' = s R X`` (no translation yet)."""
    Rm = quat_to_matrix(r_quat)
    return Reconstruction(
        community_id=rec.community_id,
        camera_ids=rec.camera_ids,
        camera_rotations=rec.camera_rotations,
        camera_centers=s * (rec.camera_centers @ Rm.T),
        track_ids=rec.track_ids,
        points=s * (rec.points @ Rm.T),
    )


def recompute_pairwise_translations(
    recs: dict,
    scales: np.ndarray,
    rotations: np.ndarray,
    mg: MeasurementGraph,
) -> MeasurementGraph:
    """Fill each measurement's translation from aligned co-visible points.

    Every community's points are first mapped by its averaged ``s_k R_k``;
    the per-pair offset is then a robust (median) estimate of ``T_j - T_i``.
    Pairs whose co-visible set vanished are dropped with a warning; if the
    drops disconnect the measurement graph that is an error.
    """
    transformed = {
        c: transform_points_stage1(rec, float(scales[c]), rotations[c])
        for c, rec in recs.items()
    }
    kept = []
    for m in mg.measurements:
        try:
            t = recompute_translation(transformed[m.i], transformed[m.j])
        except ValidationError:
            log.warning(
                "dropping measurement (%d, %d): no surviving co-visible tracks", m.i, m.j
            )
            continue
        kept.append(m.with_translation(t))
    out = MeasurementGraph(
        community_count=mg.community_count,
        measurements=tuple(kept),
        allow_duplicates=mg.allow_duplicates,
    )
    if not out.is_connected():
        raise DisconnectedGraphError(
            "dropped measurements disconnected the measurement graph"
        )
    return out


def average_translations(mg: MeasurementGraph, opts: IrlsOptions = IrlsOptions()) -> np.ndarray:
    """Per-community translations from ``T_j - T_i = t_ij`` rows.

    Solved as three independent per-axis L1 problems (the rows decouple);
    the gauge community is pinned to zero by column elimination.
    """
    mg.require_connected("translation averaging")
    k = mg.community_count
    out = np.zeros((k, 3))
    if k == 1 or not mg.measurements:
        return out
    for m in mg.measurements:
        if m.t_ij is None:
            raise ValidationError(
                f"measurement ({m.i}, {m.j}) has no translation; run the recompute stage first"
            )
    for axis in range(3):
        rhs = np.array([m.t_ij[axis] for m in mg.measurements])
        sys = _edge_system(mg, rhs, plus_on_j=True)
        out[1:, axis] = solve_l1(
            sys, epsilon=opts.epsilon, max_iterations=opts.max_iterations, tolerance=opts.tolerance
        )
    return out


def average_similarities(
    recs: dict,
    mg: MeasurementGraph,
    opts: IrlsOptions = IrlsOptions(),
):
    """Run all four averaging stages; returns ``(transforms, mg_with_t)``."""
    scales = average_scales(mg, opts)
    rotations = average_rotations(mg, opts)
    mg_t = recompute_pairwise_translations(recs, scales, rotations, mg)
    translations = average_translations(mg_t, opts)
    transforms = [
        CommunitySimilarity(community_id=c, s=float(scales[c]), r=rotations[c], t=translations[c])
        for c in range(mg.community_count)
    ]
    return transforms, mg_t


def transforms_to_json(transforms) -> list:
    return [
        {
            "id": tr.community_id,
            "s": tr.s,
            "q": [float(v) for v in tr.r],
            "t": [float(v) for v in tr.t],
        }
        for tr in transforms
    ]


def save_transforms(transforms, path) -> None:
    write_json(path, transforms_to_json(transforms))


def load_transforms(path) -> list:
    obj = read_json(path)
    try:
        return [
            CommunitySimilarity(
                community_id=int(r["id"]),
                s=float(r["s"]),
                r=np.asarray(r["q"], dtype=float),
                t=np.asarray(r["t"], dtype=float),
            )
            for r in obj
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed transforms file: {exc}") from exc
