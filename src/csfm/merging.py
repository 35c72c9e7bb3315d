"""Merging partial reconstructions into one global frame, plus refinement
and ground-truth evaluation.

Point pipeline per community: ``X' = s_k R_k X`` then ``X_g = X' + T_k``.
Cameras: ``R_g = R_o R_k^T`` (world-to-camera) and ``C_g = s_k R_k C_o + T_k``,
which together preserve each camera's viewing geometry up to the community
scale.  Tracks reconstructed by several communities fuse to the
component-wise median of their transformed duplicates.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .alignment import CorrespondenceSet, ransac_similarity
from .averaging import CommunitySimilarity
from .errors import NumericError, ValidationError
from .jsonio import read_json, write_json
from .reconstruction import Reconstruction, covisible
from .rotations import (
    exp_rotation,
    geodesic_angle,
    matrix_to_quat,
    quat_canonical,
    quat_conjugate,
    quat_multiply,
    quat_to_matrix,
)

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


def merge_reconstructions(recs, transforms) -> MergedModel:
    """Map every community into the global frame and fuse duplicate tracks."""
    tr_by_id = {t.community_id: t for t in transforms}
    cam_ids, cam_q, cam_c = [], [], []
    track_positions = {}
    for rec in sorted(recs, key=lambda r: r.community_id):
        if rec.community_id not in tr_by_id:
            raise ValidationError(f"no transform for community {rec.community_id}")
        tr = tr_by_id[rec.community_id]
        Rm = quat_to_matrix(tr.r)
        staged = tr.s * (rec.points @ Rm.T)
        pts_global = staged + tr.t
        centers_global = tr.s * (rec.camera_centers @ Rm.T) + tr.t
        r_conj = quat_conjugate(tr.r)
        for cid, q, c in zip(rec.camera_ids, rec.camera_rotations, centers_global):
            cam_ids.append(int(cid))
            cam_q.append(quat_canonical(quat_multiply(q, r_conj)))
            cam_c.append(c)
        for t, p in zip(rec.track_ids, pts_global):
            track_positions.setdefault(int(t), []).append((rec.community_id, p))

    cam_ids = np.asarray(cam_ids, dtype=np.int64)
    if np.unique(cam_ids).size != cam_ids.size:
        raise ValidationError("a camera id appears in more than one community")
    order = np.argsort(cam_ids, kind="stable")

    tracks = np.array(sorted(track_positions), dtype=np.int64)
    fused = np.empty((tracks.size, 3))
    provenance = {}
    fusion_spread = {}
    for row, t in enumerate(tracks):
        entries = track_positions[int(t)]
        provenance[int(t)] = tuple(c for c, _ in entries)
        if len(entries) == 1:
            fused[row] = entries[0][1]
        else:
            stack = np.stack([p for _, p in entries])
            fused[row] = np.median(stack, axis=0)
            fusion_spread[int(t)] = float(
                np.max(np.linalg.norm(stack - fused[row], axis=1))
            )
    return MergedModel(
        camera_ids=cam_ids[order],
        camera_rotations=np.stack(cam_q)[order] if cam_ids.size else np.zeros((0, 4)),
        camera_centers=np.stack(cam_c)[order] if cam_ids.size else np.zeros((0, 3)),
        track_ids=tracks,
        points=fused,
        provenance=provenance,
        fusion_spread=fusion_spread,
    )


def _covisible_pairs(recs):
    """All community pairs with shared tracks, with their joined indices."""
    recs = sorted(recs, key=lambda r: r.community_id)
    pairs = []
    for a in range(len(recs)):
        for b in range(a + 1, len(recs)):
            common, ia, ib = np.intersect1d(
                recs[a].track_ids, recs[b].track_ids, assume_unique=True, return_indices=True
            )
            if common.size:
                pairs.append((recs[a], recs[b], ia, ib))
    return pairs


def joint_refine(
    recs,
    transforms,
    huber_delta: float | None = None,
    max_iterations: int = REFINE_MAX_ITERATIONS,
    rel_tol: float = REFINE_REL_TOL,
):
    """Jointly polish all non-gauge community transforms.

    Minimizes a Huber loss over the disagreement of co-visible tracks,
    ``s_i R_i X_ik + T_i - (s_j R_j X_jk + T_j)``, by damped Gauss-Newton in
    ``(log s, rotation update, T)`` per community (7 parameters each, gauge
    community fixed).  Returns ``(refined transforms, merged model, info)``;
    when there is nothing to refine the inputs pass through unchanged.
    """
    recs = sorted(recs, key=lambda r: r.community_id)
    transforms = sorted(transforms, key=lambda t: t.community_id)
    pairs = _covisible_pairs(recs)
    if not pairs or len(transforms) < 2:
        log.info("joint refinement skipped: no co-visible tracks between communities")
        return transforms, merge_reconstructions(recs, transforms), {
            "skipped": True, "iterations": 0, "initial_cost": 0.0, "final_cost": 0.0,
        }

    ids = [t.community_id for t in transforms]
    col = {cid: k for k, cid in enumerate(ids)}
    free = {cid: k - 1 for k, cid in enumerate(ids) if k > 0}  # gauge = first id
    n_var = 7 * len(free)

    s = np.array([t.s for t in transforms])
    R = [quat_to_matrix(t.r) for t in transforms]
    T = np.stack([t.t for t in transforms])

    def mapped(k, x):
        return s[k] * (x @ R[k].T) + T[k]

    # Huber scale per pair, same rule as the consensus threshold: 1% of that
    # pair's co-visible cloud extent in the merged frame (an explicit
    # huber_delta overrides it for every pair).  Tracks far outside the
    # pair's own residual distribution are consensus outliers; keeping them
    # would bias the quadratic steps through the loss's linear tail, so they
    # are gated out against a median-based scale that tracks the actual
    # residual level (a coherently perturbed start keeps all its rows).
    gated_pairs = []
    deltas = []
    for rec_a, rec_b, ia, ib in pairs:
        ka, kb = col[rec_a.community_id], col[rec_b.community_id]
        if huber_delta is None:
            cloud = mapped(ka, rec_a.points[ia])
            delta = max(0.01 * float(np.median(np.ptp(cloud, axis=0))), 1e-12)
        else:
            delta = huber_delta
        r0 = np.linalg.norm(mapped(ka, rec_a.points[ia]) - mapped(kb, rec_b.points[ib]), axis=1)
        gate = max(10.0 * float(np.median(r0)), delta)
        keep = r0 <= gate
        if np.any(keep):
            gated_pairs.append((rec_a, rec_b, ia[keep], ib[keep]))
            deltas.append(delta)
    if not gated_pairs:
        log.info("joint refinement skipped: no co-visible tracks within the gate")
        return transforms, merge_reconstructions(recs, transforms), {
            "skipped": True, "iterations": 0, "initial_cost": 0.0, "final_cost": 0.0,
        }
    pairs = gated_pairs

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
    for _ in range(max_iterations):
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
        if improvement < rel_tol * max(cost, 1e-300):
            break

    refined = [
        CommunitySimilarity(community_id=ids[k], s=float(s[k]), r=matrix_to_quat(R[k]), t=T[k])
        for k in range(len(ids))
    ]
    model = merge_reconstructions(recs, refined)
    return refined, model, {
        "skipped": False,
        "iterations": iterations,
        "initial_cost": initial_cost,
        "final_cost": cost,
    }


def evaluate_against_truth(model: MergedModel, truth: Reconstruction, seed: int = 0) -> dict:
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
    align, _ = ransac_similarity(corr, inlier_threshold=threshold, seed=seed)
    centers_aligned = align.apply(model.camera_centers[im])
    center_err = np.linalg.norm(centers_aligned - truth.camera_centers[it], axis=1)

    q_align_conj = quat_conjugate(align.q)
    rot_err = np.array(
        [
            geodesic_angle(quat_multiply(qm, q_align_conj), qt)
            for qm, qt in zip(model.camera_rotations[im], truth.camera_rotations[it])
        ]
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
    return {
        "cameras": [
            {"id": int(cid), "q": [float(v) for v in q], "c": [float(v) for v in c]}
            for cid, q, c in zip(model.camera_ids, model.camera_rotations, model.camera_centers)
        ],
        "points": [
            {
                "track": int(t),
                "xyz": [float(v) for v in p],
                "communities": list(model.provenance[int(t)]),
            }
            for t, p in zip(model.track_ids, model.points)
        ],
        "fusion": [
            {"track": int(t), "spread": model.fusion_spread[t]}
            for t in sorted(model.fusion_spread)
        ],
    }


def save_merged(model: MergedModel, path) -> None:
    write_json(path, merged_to_json(model))


def load_merged(path) -> MergedModel:
    obj = read_json(path)
    try:
        cams = obj["cameras"]
        pts = obj["points"]
        model = MergedModel(
            camera_ids=np.array([c["id"] for c in cams], dtype=np.int64),
            camera_rotations=np.array([c["q"] for c in cams], dtype=float).reshape(-1, 4),
            camera_centers=np.array([c["c"] for c in cams], dtype=float).reshape(-1, 3),
            track_ids=np.array([p["track"] for p in pts], dtype=np.int64),
            points=np.array([p["xyz"] for p in pts], dtype=float).reshape(-1, 3),
            provenance={int(p["track"]): tuple(p.get("communities", ())) for p in pts},
            fusion_spread={int(r["track"]): float(r["spread"]) for r in obj.get("fusion", [])},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed merged-model file: {exc}") from exc
    return model


_PALETTE = np.array(
    [
        [228, 26, 28], [55, 126, 184], [77, 175, 74], [152, 78, 163],
        [255, 127, 0], [255, 255, 51], [166, 86, 40], [247, 129, 191],
    ],
    dtype=np.int64,
)


def export_ply(model: MergedModel, path, color_by_community: bool = False) -> None:
    """ASCII point-cloud export; optional per-community coloring (fused
    tracks take their lowest contributing community's color)."""
    lines = ["ply", "format ascii 1.0", f"element vertex {model.track_ids.size}"]
    lines += ["property float x", "property float y", "property float z"]
    if color_by_community:
        lines += ["property uchar red", "property uchar green", "property uchar blue"]
    lines.append("end_header")
    for t, p in zip(model.track_ids, model.points):
        row = f"{p[0]:.8g} {p[1]:.8g} {p[2]:.8g}"
        if color_by_community:
            c = min(model.provenance[int(t)])
            rgb = _PALETTE[c % len(_PALETTE)]
            row += f" {rgb[0]} {rgb[1]} {rgb[2]}"
        lines.append(row)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
