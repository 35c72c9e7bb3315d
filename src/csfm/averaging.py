"""Global similarity averaging: scales, rotations, then translations.

The stages read one measurement table and drop no row: a pair is kept or
refused once, when it is measured.  Each stage stacks one constraint per row
into the +1 on j / -1 on i system of :func:`_incidence` and minimizes its L1
residual, which tolerates a minority of corrupted measurements; the three
axes of a rotation or translation problem are one stacked right-hand side.
Community 0 is the gauge: its column is eliminated, pinning its transform to
``(s=1, R=I, T=0)``, so every solve fills the unknowns ``[1:]``.

Stage order is fixed: scales, rotations, per-pair translation recomputation
on scale/rotation-aligned points, translations.
"""
from __future__ import annotations

import logging
from dataclasses import replace

import numpy as np

from .errors import ValidationError
from .jsonio import column, parsing, records, write_json
from .l1 import solve_l1
from .measurements import MeasurementGraph
from .reconstruction import shared_tracks
from .rotations import (
    IDENTITY_QUAT,
    exp_rotation,
    geodesic_angle,
    log_matrix,
    matrix_to_quat,
    quat_conjugate,
    quat_multiply,
    quat_to_matrix,
)
from .sim3 import Sim3

log = logging.getLogger(__name__)

ROTATION_MAX_ITERATIONS = 32
ROTATION_UPDATE_TOL = 1e-9


def _incidence(mg: MeasurementGraph) -> np.ndarray:
    """The ``(rows, k - 1)`` matrix of the averaging problems: one row per
    measurement, +1 in the column of j and -1 in that of i, one column per
    community but the gauge."""
    rows = np.arange(mg.i.size)
    A = np.zeros((rows.size, mg.community_count))
    A[rows, mg.j] = 1.0
    A[rows, mg.i] = -1.0
    return np.delete(A, 0, axis=1)


def _solver(counts: dict | None, problem: str):
    """``solve_l1``; when ``counts`` is a dict, each weighted solve it makes
    is tallied in ``counts["irls_solves"][problem]``, which starts at 0."""
    if counts is None:
        return solve_l1
    tally = counts.setdefault("irls_solves", {})
    tally[problem] = 0

    def count(iteration, x, objective):
        tally[problem] += 1

    return lambda A, rhs: solve_l1(A, rhs, count)


def average_scales(mg: MeasurementGraph, counts: dict | None = None) -> np.ndarray:
    """Per-community scales from ``log s_j - log s_i = -log s_ij`` rows.

    The gauge community's log-scale is eliminated (s = 1 exactly);
    the remaining system is solved in the L1 sense and exponentiated.
    ``counts`` receives the IRLS solves (see :func:`average_similarities`).
    """
    mg.require_connected("scale averaging")
    solve = _solver(counts, "scale")
    k = mg.community_count
    scales = np.ones(k)
    if k == 1 or not mg.i.size:
        return scales
    scales[1:] = np.exp(solve(_incidence(mg), -np.log(mg.s)))
    return scales


def spanning_tree_edges(mg: MeasurementGraph) -> list:
    """BFS spanning tree from the gauge community, neighbours visited in
    ascending order; returns measurement indices in discovery order."""
    adj = [[] for _ in range(mg.community_count)]
    for idx, (i, j) in enumerate(zip(mg.i.tolist(), mg.j.tolist())):
        adj[i].append((j, idx))
        adj[j].append((i, idx))
    seen = [False] * mg.community_count
    seen[0] = True
    queue = [0]
    tree = []
    while queue:
        v = queue.pop(0)
        for w, idx in sorted(adj[v]):
            if not seen[w]:
                seen[w] = True
                tree.append(idx)
                queue.append(w)
    return tree


def _chain_initial_rotations(mg: MeasurementGraph, meas_rot: np.ndarray) -> list:
    """Initialize by composing the measured rotations (``meas_rot``, one
    matrix per row of ``mg``) along the BFS spanning tree."""
    R = [None] * mg.community_count
    R[0] = np.eye(3)
    for idx in spanning_tree_edges(mg):
        i, j, rot = mg.i[idx], mg.j[idx], meas_rot[idx]
        if R[i] is not None and R[j] is None:
            # R_i^T R_j = r_ij  =>  R_j = R_i r_ij
            R[j] = R[i] @ rot
        elif R[j] is not None and R[i] is None:
            R[i] = R[j] @ rot.T
    return R


def average_rotations(mg: MeasurementGraph, counts: dict | None = None) -> np.ndarray:
    """Per-community rotations consistent with ``R_i^T R_j = r_ij``.

    Spanning-tree chaining seeds the estimate; each sweep linearizes the
    residual rotations into axis-angle space, solves the L1 system
    ``dw_j - dw_i = log(R_i r_ij R_j^T)`` for the three axes at once, and
    applies the exponential updates.  Consistent measurements converge in
    the first sweep.  Returns an (k, 4) array of quaternions with the gauge
    community exactly identity.  ``counts`` receives the IRLS solves,
    ``rotation_sweeps`` and ``rotation_converged``.
    """
    mg.require_connected("rotation averaging")
    solve = _solver(counts, "rotation")
    k = mg.community_count
    sweeps, converged = 0, True
    quats = np.tile(IDENTITY_QUAT, (k, 1))
    if k > 1 and mg.i.size:
        i, j = mg.i, mg.j
        meas_rot = quat_to_matrix(mg.q)
        R = np.stack(_chain_initial_rotations(mg, meas_rot))
        A = _incidence(mg)
        converged = False
        while not converged and sweeps < ROTATION_MAX_ITERATIONS:
            sweeps += 1
            resid = log_matrix(R[i] @ meas_rot @ R[j].transpose(0, 2, 1))
            delta = solve(A, resid)
            max_step = float(np.max(np.linalg.norm(delta, axis=1)))
            converged = max_step < ROTATION_UPDATE_TOL
            if not converged:
                R[1:] = quat_to_matrix(exp_rotation(delta)) @ R[1:]
        if not converged:
            log.warning(
                "rotation averaging stopped after %d sweeps without convergence: "
                "last update %.3e rad, residual L1 %.3e rad over %d measurements",
                sweeps, max_step, float(np.abs(resid).sum()), i.size,
            )
        quats[1:] = matrix_to_quat(R[1:])
    if counts is not None:
        counts.update(rotation_sweeps=sweeps, rotation_converged=converged)
    return quats


def recompute_pairwise_translations(
    recs: dict,
    scales: np.ndarray,
    rotations: np.ndarray,
    mg: MeasurementGraph,
) -> MeasurementGraph:
    """Fill each measurement's translation from aligned co-visible points.

    Every community's points are first mapped by its averaged ``s_k R_k``
    (no translation yet); the per-pair offset is then a robust (median)
    estimate of ``T_j - T_i``.  Returns ``mg`` with ``t`` filled on every
    row.  A measured pair sharing no track in ``recs`` was measured on other
    reconstructions (another run's files): a :class:`ValidationError`.
    """
    mapped = {
        c: float(scales[c]) * (rec.points @ quat_to_matrix(rotations[c]).T)
        for c, rec in recs.items()
    }
    t = []
    for i, j in zip(mg.i.tolist(), mg.j.tolist()):
        ia, ib = shared_tracks(recs[i], recs[j])
        if ia.size == 0:
            raise ValidationError(f"measured pair ({i}, {j}) shares no track in these reconstructions")
        t.append(np.median(mapped[i][ia] - mapped[j][ib], axis=0))
    return replace(mg, t=np.reshape(t, (-1, 3)))


def average_translations(mg: MeasurementGraph, counts: dict | None = None) -> np.ndarray:
    """Per-community translations from ``T_j - T_i = t_ij`` rows.

    The axes decouple into three L1 problems, solved as one stacked system;
    the gauge community is pinned to zero by column elimination.  ``counts``
    receives the IRLS solves.
    """
    mg.require_connected("translation averaging")
    solve = _solver(counts, "translation")
    k = mg.community_count
    out = np.zeros((k, 3))
    if k == 1 or not mg.i.size:
        return out
    if mg.t is None:
        raise ValidationError(
            f"measurement ({mg.i[0]}, {mg.j[0]}) has no translation; run the recompute stage first"
        )
    out[1:] = solve(_incidence(mg), mg.t)
    return out


def average_similarities(recs: dict, mg: MeasurementGraph, counts: dict | None = None):
    """Run all four averaging stages; returns ``(transforms, mg_with_t)``,
    ``transforms`` a ``{community id: Sim3}`` dict in id order.

    When ``counts`` is a dict it receives ``irls_solves``, the weighted
    least-squares solves of the ``scale``, ``rotation`` and ``translation``
    problems; ``rotation_sweeps``, the linearize-and-solve sweeps made; and
    ``rotation_converged``, whether the last sweep's update fell below
    ``ROTATION_UPDATE_TOL``."""
    scales = average_scales(mg, counts)
    rotations = average_rotations(mg, counts)
    mg_t = recompute_pairwise_translations(recs, scales, rotations, mg)
    translations = average_translations(mg_t, counts)
    transforms = {
        c: Sim3(s=scales[c], q=rotations[c], t=translations[c])
        for c in range(mg.community_count)
    }
    return transforms, mg_t


def averaging_residuals(mg_t: MeasurementGraph, transforms: dict) -> dict:
    """L1 residuals of the scale, rotation and translation problems at the
    averaged transforms, over the table ``mg_t`` with its recomputed
    translations."""
    log_s = np.log([tr.s for tr in transforms.values()])
    q = np.stack([tr.q for tr in transforms.values()])
    T = np.stack([tr.t for tr in transforms.values()])
    i, j = mg_t.i, mg_t.j
    scale = np.abs(np.log(mg_t.s) - (log_s[i] - log_s[j]))
    rotation = geodesic_angle(quat_multiply(quat_conjugate(q[i]), q[j]), mg_t.q)
    translation = np.abs(mg_t.t - (T[j] - T[i])).sum(axis=1)
    return {
        "scale_l1_residual": float(np.sum(scale)),
        "rotation_l1_residual_rad": float(np.sum(rotation)),
        "translation_l1_residual": float(np.sum(translation)),
    }


def transforms_to_json(transforms: dict) -> list:
    return [{"id": c, **tr.to_json()} for c, tr in transforms.items()]


def save_transforms(transforms: dict, path) -> None:
    write_json(path, transforms_to_json(transforms))


def load_transforms(path) -> dict:
    """Read a transforms file into ``{community id: Sim3}``; ids unique."""
    with parsing(path, "transforms file") as obj:
        recs = records(obj, "transforms file", "transform")
        ids = column([r["id"] for r in recs], "community id", np.int64)
        scales = column([r["s"] for r in recs], "community scale")
        rotations = column([r["q"] for r in recs], "community rotation", width=4)
        translations = column([r["t"] for r in recs], "translation", width=3)
        values, counts = np.unique(ids, return_counts=True)
        if np.any(counts > 1):
            raise ValidationError(f"duplicate community id {values[counts > 1][0]}")
    return {
        c: Sim3(s=s, q=q, t=t)
        for c, s, q, t in zip(ids.tolist(), scales.tolist(), rotations, translations)
    }
