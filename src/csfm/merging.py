"""Merging partial reconstructions into one global frame, plus refinement
and ground-truth evaluation.

Community ``k`` enters the global frame through its ``Sim3`` in a
``{community id: Sim3}`` dict: points map as ``X_g = s_k R_k X + T_k`` and
camera centers as ``C_g = s_k R_k C_o + T_k`` (both ``Sim3.apply``), camera
rotations as ``R_g = R_o R_k^T`` (world-to-camera), which together preserve
each camera's viewing geometry up to the community scale.  Tracks
reconstructed by several communities fuse to the component-wise median of
their transformed duplicates.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .alignment import CorrespondenceSet, ransac_similarity
from .errors import NumericError, ValidationError
from .jsonio import column, parsing, write_json
from .reconstruction import (
    Reconstruction,
    cameras_from_json,
    cameras_to_json,
    covisible_pairs,
    points_from_json,
    points_to_json,
)
from .rotations import (
    exp_rotation,
    geodesic_angle,
    matrix_to_quat,
    quat_canonical,
    quat_conjugate,
    quat_multiply,
    quat_to_matrix,
)
from .sim3 import Sim3

log = logging.getLogger(__name__)

REFINE_MAX_ITERATIONS = 50
REFINE_REL_TOL = 1e-10


@dataclass(frozen=True)
class MergedModel:
    camera_ids: np.ndarray
    camera_rotations: np.ndarray  # world-to-camera quaternions, global frame
    camera_centers: np.ndarray
    track_ids: np.ndarray
    points: np.ndarray
    provenance: dict  # track id -> tuple of contributing community ids
    fusion_spread: dict  # multi-community track id -> max deviation from the fused point

    @property
    def camera_count(self) -> int:
        return int(self.camera_ids.shape[0])


def _require_transforms(recs, transforms: dict) -> None:
    for rec in recs:
        if rec.community_id not in transforms:
            raise ValidationError(f"no transform for community {rec.community_id}")


def merge_reconstructions(recs, transforms: dict) -> MergedModel:
    """Map every community into the global frame through its ``Sim3`` in
    ``transforms`` (keyed by community id) and fuse duplicate tracks."""
    _require_transforms(recs, transforms)
    cam_ids = [np.empty(0, dtype=np.int64)]
    cam_q = [np.empty((0, 4))]
    cam_c = [np.empty((0, 3))]
    track_blocks = [np.empty(0, dtype=np.int64)]
    community_blocks = [np.empty(0, dtype=np.int64)]
    point_blocks = [np.empty((0, 3))]
    for rec in sorted(recs, key=lambda r: r.community_id):
        tr = transforms[rec.community_id]
        cam_ids.append(rec.camera_ids)
        cam_q.append(quat_canonical(quat_multiply(rec.camera_rotations, quat_conjugate(tr.q))))
        cam_c.append(tr.apply(rec.camera_centers))
        track_blocks.append(rec.track_ids)
        community_blocks.append(np.full(rec.track_ids.size, rec.community_id, dtype=np.int64))
        point_blocks.append(tr.apply(rec.points))

    cam_ids = np.concatenate(cam_ids)
    if np.unique(cam_ids).size != cam_ids.size:
        raise ValidationError("a camera id appears in more than one community")
    order = np.argsort(cam_ids, kind="stable")

    tracks, fused, provenance, fusion_spread = _fuse_tracks(
        np.concatenate(track_blocks), np.concatenate(community_blocks), np.concatenate(point_blocks)
    )
    return MergedModel(
        camera_ids=cam_ids[order],
        camera_rotations=np.concatenate(cam_q)[order],
        camera_centers=np.concatenate(cam_c)[order],
        track_ids=tracks,
        points=fused,
        provenance=provenance,
        fusion_spread=fusion_spread,
    )


def _fuse_tracks(track_ids, communities, points):
    """Fuse the copies of each track to their component-wise median.

    The copies are sorted on ``(track, community)``, so each track is one
    segment of that order.  Segments of equal size ``k`` are fused together
    as one ``(n_k, k, 3)`` stack.  The median is taken the way ``np.median``
    takes it, a partition at the same positions and then the mean of the
    middle one or two, so it is bit-identical to ``np.median`` per track.
    Returns the sorted unique tracks, their fused points, and the
    ``provenance`` and ``fusion_spread`` maps of :class:`MergedModel`.
    """
    order = np.lexsort((communities, track_ids))
    track_ids, communities, points = track_ids[order], communities[order], points[order]
    first = np.ones(track_ids.size, dtype=bool)
    first[1:] = track_ids[1:] != track_ids[:-1]
    starts = np.flatnonzero(first)
    bounds = np.append(starts, track_ids.size)
    sizes = np.diff(bounds)
    tracks = track_ids[starts]
    fused = points[starts]
    spread = np.zeros(tracks.size)
    for k in np.unique(sizes[sizes > 1]).tolist():
        rows = np.flatnonzero(sizes == k)
        stack = points[starts[rows, None] + np.arange(k)]
        half = k // 2
        if k % 2:
            median = np.partition(stack, [half, -1], axis=1)[:, half]
        else:
            part = np.partition(stack, [half - 1, half, -1], axis=1)
            median = (part[:, half - 1] + part[:, half]) / 2
        fused[rows] = median
        spread[rows] = np.max(np.linalg.norm(stack - median[:, None, :], axis=2), axis=1)

    comm, bounds = communities.tolist(), bounds.tolist()
    provenance = dict(
        zip(tracks.tolist(), (tuple(comm[a:b]) for a, b in zip(bounds[:-1], bounds[1:])))
    )
    multi = sizes > 1
    fusion_spread = dict(zip(tracks[multi].tolist(), spread[multi].tolist()))
    return tracks, fused, provenance, fusion_spread


def joint_refine(recs, transforms: dict):
    """Jointly polish all non-gauge community transforms.

    Minimizes a Huber loss over the disagreement of co-visible tracks,
    ``s_i R_i X_ik + T_i - (s_j R_j X_jk + T_j)``, by damped Gauss-Newton in
    ``(log s, rotation update, T)`` per community (7 parameters each, gauge
    community fixed).  Returns ``(refined transforms, merged model, info)``,
    the transforms keyed by the id of each reconstruction; when there is
    nothing to refine the inputs pass through unchanged.
    """
    recs = sorted(recs, key=lambda r: r.community_id)
    _require_transforms(recs, transforms)
    transforms = {r.community_id: transforms[r.community_id] for r in recs}

    # Huber scale per pair, same rule as the consensus threshold: 1% of that
    # pair's co-visible cloud extent in the merged frame.  Tracks far outside
    # the pair's own residual distribution are consensus outliers; keeping
    # them would bias the quadratic steps through the loss's linear tail, so
    # they are gated out against a median-based scale that tracks the actual
    # residual level (a coherently perturbed start keeps all its rows).
    pairs = []
    deltas = []
    for rec_a, rec_b, ia, ib in covisible_pairs(recs):
        cloud = transforms[rec_a.community_id].apply(rec_a.points[ia])
        delta = max(0.01 * float(np.median(np.ptp(cloud, axis=0))), 1e-12)
        r0 = np.linalg.norm(cloud - transforms[rec_b.community_id].apply(rec_b.points[ib]), axis=1)
        gate = max(10.0 * float(np.median(r0)), delta)
        keep = r0 <= gate
        if np.any(keep):
            pairs.append((rec_a, rec_b, ia[keep], ib[keep]))
            deltas.append(delta)
    if not pairs:
        log.info("joint refinement skipped: no co-visible tracks between communities")
        return transforms, merge_reconstructions(recs, transforms), {
            "skipped": True, "iterations": 0, "initial_cost": 0.0, "final_cost": 0.0,
        }

    ids = list(transforms)
    col = {cid: k for k, cid in enumerate(ids)}
    free = {cid: k - 1 for k, cid in enumerate(ids) if k > 0}  # gauge = first id
    n_var = 7 * len(free)

    s = np.array([t.s for t in transforms.values()])
    R = [quat_to_matrix(t.q) for t in transforms.values()]
    T = np.stack([t.t for t in transforms.values()])

    def mapped(k, x):
        return s[k] * (x @ R[k].T) + T[k]

    def residuals():
        blocks = []
        for (rec_a, rec_b, ia, ib), delta in zip(pairs, deltas):
            ka, kb = col[rec_a.community_id], col[rec_b.community_id]
            pa = mapped(ka, rec_a.points[ia])
            pb = mapped(kb, rec_b.points[ib])
            blocks.append((ka, kb, rec_a.points[ia], rec_b.points[ib], pa - pb, delta))
        return blocks

    def cost_of(blocks):
        total = 0.0
        for _, _, _, _, r, delta in blocks:
            nrm = np.linalg.norm(r, axis=1)
            quad = nrm <= delta
            total += float(np.sum(0.5 * nrm[quad] ** 2))
            total += float(np.sum(delta * (nrm[~quad] - 0.5 * delta)))
        return total

    def stacked_jacobian(k, x, sign):
        """(n, 3, 7) residual Jacobians wrt (log s, rotation update, T)."""
        rx = s[k] * (x @ R[k].T)
        n = rx.shape[0]
        J = np.zeros((n, 3, 7))
        J[:, :, 0] = sign * rx
        # -sign * skew(rx) row blocks
        J[:, 0, 2] = sign * rx[:, 2]
        J[:, 0, 3] = -sign * rx[:, 1]
        J[:, 1, 1] = -sign * rx[:, 2]
        J[:, 1, 3] = sign * rx[:, 0]
        J[:, 2, 1] = sign * rx[:, 1]
        J[:, 2, 2] = -sign * rx[:, 0]
        J[:, 0, 4] = sign
        J[:, 1, 5] = sign
        J[:, 2, 6] = sign
        return J

    blocks = residuals()
    cost = cost_of(blocks)
    initial_cost = cost
    lam = 1e-8
    iterations = 0
    for _ in range(REFINE_MAX_ITERATIONS):
        H = np.zeros((n_var, n_var))
        g = np.zeros(n_var)
        for ka, kb, xa, xb, r, delta in blocks:
            nrm = np.maximum(np.linalg.norm(r, axis=1), 1e-300)
            w = np.where(nrm <= delta, 1.0, delta / nrm)
            Ja = stacked_jacobian(ka, xa, 1.0) if ids[ka] in free else None
            Jb = stacked_jacobian(kb, xb, -1.0) if ids[kb] in free else None
            if Ja is not None:
                base = 7 * free[ids[ka]]
                H[base : base + 7, base : base + 7] += np.einsum("n,nij,nik->jk", w, Ja, Ja)
                g[base : base + 7] += np.einsum("n,nij,ni->j", w, Ja, r)
            if Jb is not None:
                base = 7 * free[ids[kb]]
                H[base : base + 7, base : base + 7] += np.einsum("n,nij,nik->jk", w, Jb, Jb)
                g[base : base + 7] += np.einsum("n,nij,ni->j", w, Jb, r)
            if Ja is not None and Jb is not None:
                ba, bb = 7 * free[ids[ka]], 7 * free[ids[kb]]
                Hab = np.einsum("n,nij,nik->jk", w, Ja, Jb)
                H[ba : ba + 7, bb : bb + 7] += Hab
                H[bb : bb + 7, ba : ba + 7] += Hab.T
        try:
            step = np.linalg.solve(H + lam * np.eye(n_var), -g)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"refinement normal equations singular: {exc}") from exc

        s_try, R_try, T_try = s.copy(), list(R), T.copy()
        for cid, fidx in free.items():
            k = col[cid]
            d = step[7 * fidx : 7 * fidx + 7]
            s_try[k] = s[k] * np.exp(d[0])
            R_try[k] = quat_to_matrix(exp_rotation(d[1:4])) @ R[k]
            T_try[k] = T[k] + d[4:7]
        s_old, R_old, T_old = s, R, T
        s, R, T = s_try, R_try, T_try
        new_blocks = residuals()
        new_cost = cost_of(new_blocks)
        if new_cost > cost:
            s, R, T = s_old, R_old, T_old
            lam *= 10.0
            if lam > 1e6:
                break
            continue
        lam = max(lam * 0.3, 1e-12)
        iterations += 1
        blocks = new_blocks
        improvement = cost - new_cost
        cost = new_cost
        if improvement < REFINE_REL_TOL * max(cost, 1e-300):
            break

    refined = {c: Sim3(s=s[k], q=matrix_to_quat(R[k]), t=T[k]) for c, k in col.items()}
    model = merge_reconstructions(recs, refined)
    return refined, model, {
        "skipped": False,
        "iterations": iterations,
        "initial_cost": initial_cost,
        "final_cost": cost,
    }


def evaluate_against_truth(model: MergedModel, truth: Reconstruction) -> dict:
    """Error metrics after aligning the merged model onto the ground truth.

    The gauge is removed with a robust similarity fit on common camera
    centers (consensus then closed-form refit, so a stray camera cannot bend
    the alignment); errors are reported in the truth's units.  ``point_rmse``
    is None when the model and the truth share no track.
    """
    common, im, it = np.intersect1d(
        model.camera_ids, truth.camera_ids, assume_unique=True, return_indices=True
    )
    if common.size < 3:
        raise ValidationError(
            f"need at least 3 common cameras for gauge alignment, got {common.size}"
        )
    corr = CorrespondenceSet(
        track_ids=common,
        points_a=model.camera_centers[im],
        points_b=truth.camera_centers[it],
    )
    # residuals live in truth units, so the consensus threshold must too;
    # this keeps the metrics invariant to the model's arbitrary gauge
    threshold = max(0.01 * float(np.median(np.ptp(corr.points_b, axis=0))), 1e-12)
    align, _ = ransac_similarity(corr, inlier_threshold=threshold)
    centers_aligned = align.apply(model.camera_centers[im])
    center_err = np.linalg.norm(centers_aligned - truth.camera_centers[it], axis=1)

    rot_err = geodesic_angle(
        quat_multiply(model.camera_rotations[im], quat_conjugate(align.q)),
        truth.camera_rotations[it],
    )

    shared, ipm, ipt = np.intersect1d(
        model.track_ids, truth.track_ids, assume_unique=True, return_indices=True
    )
    if shared.size:
        pts_aligned = align.apply(model.points[ipm])
        point_rmse = float(
            np.sqrt(np.mean(np.sum((pts_aligned - truth.points[ipt]) ** 2, axis=1)))
        )
    else:
        point_rmse = None  # no shared track: written as null, never NaN

    return {
        "n_cameras": int(common.size),
        "n_shared_tracks": int(shared.size),
        "median_center_error": float(np.median(center_err)),
        "rmse_center_error": float(np.sqrt(np.mean(center_err**2))),
        "median_rotation_error_rad": float(np.median(rot_err)),
        "point_rmse": point_rmse,
        "aligned_scale": align.s,
    }


def merged_to_json(model: MergedModel) -> dict:
    fused = sorted(model.fusion_spread.items())
    return {
        "cameras": cameras_to_json(model.camera_ids, model.camera_rotations, model.camera_centers),
        **points_to_json(model.track_ids, model.points),
        "communities": [model.provenance[t] for t in model.track_ids.tolist()],
        "fusion": {"tracks": [t for t, _ in fused], "spread": [v for _, v in fused]},
    }


def save_merged(model: MergedModel, path) -> None:
    write_json(path, merged_to_json(model))


def load_merged(path) -> MergedModel:
    with parsing(path, "merged-model file") as obj:
        ids, rotations, centers = cameras_from_json(obj["cameras"], "merged model")
        tracks, points = points_from_json(obj, "merged model")
        communities = obj["communities"]
        if not isinstance(communities, list) or len(communities) != tracks.size:
            raise ValidationError("merged-model communities do not align with its tracks")
        provenance = dict(zip(tracks.tolist(), map(tuple, communities)))
        if not all(provenance.values()):
            raise ValidationError("merged-model track with no contributing community")
        column(list(chain.from_iterable(provenance.values())), "merged-model communities", np.int64)
        fusion = obj["fusion"]
        fusion_tracks = column(fusion["tracks"], "merged-model fusion tracks", np.int64)
        spread = column(fusion["spread"], "merged-model fusion spreads")
        if fusion_tracks.size != spread.size:
            raise ValidationError("merged-model fusion tracks and spreads differ in length")
    return MergedModel(
        camera_ids=ids,
        camera_rotations=rotations,
        camera_centers=centers,
        track_ids=tracks,
        points=points,
        provenance=provenance,
        fusion_spread=dict(zip(fusion_tracks.tolist(), spread.tolist())),
    )


_PALETTE = (
    (228, 26, 28), (55, 126, 184), (77, 175, 74), (152, 78, 163),
    (255, 127, 0), (255, 255, 51), (166, 86, 40), (247, 129, 191),
)


def export_ply(model: MergedModel, path, color_by_community: bool = False) -> None:
    """ASCII point-cloud export; optional per-community coloring (fused
    tracks take their lowest contributing community's color)."""
    lines = ["ply", "format ascii 1.0", f"element vertex {model.track_ids.size}"]
    lines += ["property float x", "property float y", "property float z"]
    if color_by_community:
        lines += ["property uchar red", "property uchar green", "property uchar blue"]
    lines.append("end_header")
    rows = [f"{x:.8g} {y:.8g} {z:.8g}" for x, y, z in model.points.tolist()]
    if color_by_community:
        suffix = [f" {r} {g} {b}" for r, g, b in _PALETTE]
        rows = [
            row + suffix[min(model.provenance[t]) % len(suffix)]
            for row, t in zip(rows, model.track_ids.tolist())
        ]
    lines += rows
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
