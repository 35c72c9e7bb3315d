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

from .alignment import ransac_similarity
from .errors import NumericError, ValidationError
from .jsonio import as_column, column, int_lists, parsing, write_json_files
from .reconstruction import (
    Reconstruction,
    cameras_from_json,
    cameras_to_json,
    covisible_pairs,
    points_from_json,
    points_to_json,
    shared_tracks,
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
_EVAL_BLOCK = 4096  # truth points gathered per subtraction in evaluate_against_truth()


@dataclass(frozen=True)
class MergedModel:
    camera_ids: np.ndarray
    camera_rotations: np.ndarray  # world-to-camera quaternions, global frame
    camera_centers: np.ndarray
    track_ids: np.ndarray  # (n,) sorted, unique
    points: np.ndarray
    # track_ids[i] was reconstructed by communities[community_bounds[i]:community_bounds[i + 1]]
    communities: np.ndarray  # (copies,) contributing community ids, track by track
    community_bounds: np.ndarray  # (n + 1,) offsets into communities
    fusion_tracks: np.ndarray  # (f,) the tracks reconstructed more than once
    fusion_spread: np.ndarray  # (f,) each one's max deviation from its fused point

    @property
    def camera_count(self) -> int:
        return int(self.camera_ids.shape[0])


def _require_transforms(recs, transforms: dict) -> None:
    for rec in recs:
        if rec.community_id not in transforms:
            raise ValidationError(f"no transform for community {rec.community_id}")


def merge_reconstructions(recs, transforms: dict, like: MergedModel | None = None) -> MergedModel:
    """Map every community into the global frame through its ``Sim3`` in
    ``transforms`` (keyed by community id) and fuse duplicate tracks.

    ``like``, a model merged from the same ``recs`` under any transforms,
    lends its camera ids, track ids, ``communities``, ``community_bounds``
    and ``fusion_tracks``: the result holds those very arrays, and only the
    cameras, points and spreads are new.  A ``like`` merged from other
    reconstructions raises :class:`ValidationError`.
    """
    recs = sorted(recs, key=lambda r: r.community_id)
    _require_transforms(recs, transforms)
    if like is None:
        structure = _structure(recs)
    else:
        structure = (like.camera_ids, like.track_ids, like.communities,
                     like.community_bounds, like.fusion_tracks)
    return _fill(recs, transforms, *structure)


def _structure(recs) -> tuple:
    """The merge of ``recs`` (in community order) without its numbers: the
    ``camera_ids``, ``track_ids``, ``communities``, ``community_bounds`` and
    ``fusion_tracks`` of :class:`MergedModel`, each track's communities in
    ascending order.  Each reconstruction's tracks are sorted, so one stable
    sort of all copies on track id orders them by track, then community."""
    cam_ids = np.sort(np.concatenate([np.empty(0, np.int64)] + [r.camera_ids for r in recs]))
    if np.any(cam_ids[1:] == cam_ids[:-1]):
        raise ValidationError("a camera id appears in more than one community")
    copies = np.concatenate([np.empty(0, np.int64)] + [r.track_ids for r in recs])
    order = np.argsort(copies, kind="stable")
    communities = np.repeat(np.array([r.community_id for r in recs], dtype=np.int64),
                            [r.point_count for r in recs])[order]
    copies = copies[order]
    del order
    first = np.ones(copies.size, dtype=bool)
    first[1:] = copies[1:] != copies[:-1]
    bounds = np.append(np.flatnonzero(first), copies.size)
    tracks = copies[bounds[:-1]]
    return cam_ids, tracks, communities, bounds, tracks[np.diff(bounds) > 1]


def _positions(ids: np.ndarray, wanted: np.ndarray):
    """Where each of the sorted ``wanted`` ids sits in the sorted ``ids``, or
    ``None`` when one of them is missing."""
    at = np.searchsorted(ids, wanted)
    if wanted.size and not (ids.size and np.array_equal(np.take(ids, at, mode="clip"), wanted)):
        return None
    return at


def _as_rows(a: np.ndarray) -> np.ndarray:
    """A C-contiguous ``(n, 3)`` float array as ``n`` opaque 24-byte items,
    which numpy copies by fancy index several times faster than rows."""
    return a.view(np.dtype((np.void, 3 * a.itemsize))).reshape(-1)


def _fill(recs, transforms: dict, cam_ids, tracks, communities, bounds, fusion_tracks):
    """The :class:`MergedModel` of ``recs`` on the structure :func:`_structure` gives.

    Each community writes its cameras and its single-copy points straight
    into their rows; the copies of a track reconstructed more than once go,
    in community order, to that track's run of a buffer that holds only
    such tracks.  Runs of equal size ``k`` are fused together as one
    ``(n_k, k, 3)`` stack.  The median is taken the way ``np.median`` takes
    it, a partition at the same positions and then the mean of the middle
    one or two, so it is bit-identical to ``np.median`` per track.
    """
    multi = np.diff(bounds) > 1
    fused_rows = np.flatnonzero(multi)
    fused_sizes = bounds[fused_rows + 1] - bounds[fused_rows]
    next_copy = bounds[:-1].copy()  # each track's next copy, in community order
    run_start = np.cumsum(fused_sizes) - fused_sizes  # each fused track's run in the buffer
    to_buffer = np.zeros(tracks.size, dtype=np.int64)  # a fused track's copy -> its buffer row
    to_buffer[fused_rows] = run_start - bounds[fused_rows]
    cam_filled = np.zeros(cam_ids.size, dtype=np.int64)
    rotations, centers = np.empty((cam_ids.size, 4)), np.empty((cam_ids.size, 3))
    points, buffer = np.empty((tracks.size, 3)), np.empty((int(fused_sizes.sum()), 3))
    point_rows, buffer_rows = _as_rows(points), _as_rows(buffer)
    for rec in recs:
        cams = _positions(cam_ids, rec.camera_ids)
        rows = _positions(tracks, rec.track_ids)
        # one comparison per community: the next copy of each of its tracks is its own
        if cams is None or rows is None or not np.all(
            np.take(communities, next_copy[rows], mode="clip") == rec.community_id
        ):
            raise ValidationError("model structure not merged from these reconstructions "
                                  f"(community {rec.community_id})")
        tr = transforms[rec.community_id]
        rotations[cams] = quat_canonical(quat_multiply(rec.camera_rotations, quat_conjugate(tr.q)))
        centers[cams] = tr.apply(rec.camera_centers)
        cam_filled[cams] += 1
        pts = _as_rows(tr.apply(rec.points))
        copied = multi[rows]
        point_rows[rows[~copied]] = pts[~copied]
        dup = rows[copied]
        buffer_rows[next_copy[dup] + to_buffer[dup]] = pts[copied]
        next_copy[rows] += 1
    if not (np.all(cam_filled == 1) and np.array_equal(next_copy, bounds[1:])
            and np.array_equal(fusion_tracks, tracks[fused_rows])):
        raise ValidationError("model structure not merged from these reconstructions")

    spread = np.empty(fused_rows.size)
    for k in np.unique(fused_sizes).tolist():
        sel = np.flatnonzero(fused_sizes == k)
        stack = buffer[run_start[sel, None] + np.arange(k)]
        half = k // 2
        if k % 2:
            median = np.partition(stack, [half, -1], axis=1)[:, half]
        else:
            part = np.partition(stack, [half - 1, half, -1], axis=1)
            median = (part[:, half - 1] + part[:, half]) / 2
        points[fused_rows[sel]] = median
        spread[sel] = np.max(np.linalg.norm(stack - median[:, None, :], axis=2), axis=1)
    return MergedModel(
        camera_ids=cam_ids,
        camera_rotations=rotations,
        camera_centers=centers,
        track_ids=tracks,
        points=points,
        communities=communities,
        community_bounds=bounds,
        fusion_tracks=fusion_tracks,
        fusion_spread=spread,
    )


def _jacobian(rx, sign):
    """``(n, 3, 7)`` Jacobians of ``sign * (s R x + T)`` with respect to
    ``(log s, rotation update, T)``, given the rows' ``rx = s R x``; ``sign``
    is a number or an ``(n, 1, 1)`` per-row factor."""
    J = np.zeros((rx.shape[0], 3, 7))
    J[:, :, 0] = rx
    # -skew(rx) row blocks
    J[:, 0, 2], J[:, 0, 3] = rx[:, 2], -rx[:, 1]
    J[:, 1, 1], J[:, 1, 3] = -rx[:, 2], rx[:, 0]
    J[:, 2, 1], J[:, 2, 2] = rx[:, 1], -rx[:, 0]
    J[:, :, 4:] = np.eye(3)
    J *= sign
    return J


def joint_refine(recs, transforms: dict, like: MergedModel | None = None):
    """Jointly polish all non-gauge community transforms.

    Minimizes a Huber loss over the disagreement of co-visible tracks,
    ``s_i R_i X_ik + T_i - (s_j R_j X_jk + T_j)``, by damped Gauss-Newton in
    ``(log s, rotation update, T)`` per community (7 parameters each, gauge
    community fixed).  The loop ends at the first step that moves the cost
    by less than ``REFINE_REL_TOL`` relative, up or down; that step is
    dropped, and ``info["iterations"]`` counts the accepted steps.
    Returns ``(refined transforms, merged model, info)``,
    the transforms keyed by the id of each reconstruction; when there is
    nothing to refine the inputs pass through unchanged.  The model is
    :func:`merge_reconstructions` of the refined transforms, on the
    structure of ``like`` when given (a model merged from the same
    ``recs``, such as the unrefined one).
    ``info["log_scale_change"]`` is each community's ``log s_refined -
    log s_in`` in id order, exactly 0 for the gauge.
    """
    recs = sorted(recs, key=lambda r: r.community_id)
    _require_transforms(recs, transforms)
    transforms = {r.community_id: transforms[r.community_id] for r in recs}
    col = {cid: k for k, cid in enumerate(transforms)}  # gauge = first id

    # Huber scale per pair, same rule as the consensus threshold: 1% of that
    # pair's co-visible cloud extent in the merged frame.  Tracks far outside
    # the pair's own residual distribution are consensus outliers; keeping
    # them would bias the quadratic steps through the loss's linear tail, so
    # they are gated out against a median-based scale that tracks the actual
    # residual level (a coherently perturbed start keeps all its rows).
    pairs, xa, xb, deltas = [], [], [], []
    for rec_a, rec_b, ia, ib in covisible_pairs(recs):
        cloud = transforms[rec_a.community_id].apply(rec_a.points[ia])
        delta = max(0.01 * float(np.median(np.ptp(cloud, axis=0))), 1e-12)
        r0 = np.linalg.norm(cloud - transforms[rec_b.community_id].apply(rec_b.points[ib]), axis=1)
        keep = r0 <= max(10.0 * float(np.median(r0)), delta)
        if np.any(keep):
            pairs.append((col[rec_a.community_id], col[rec_b.community_id]))
            xa.append(rec_a.points[ia[keep]])
            xb.append(rec_b.points[ib[keep]])
            deltas.append(delta)
    if not pairs:
        log.info("joint refinement skipped: no co-visible tracks between communities")
        return transforms, merge_reconstructions(recs, transforms, like), {
            "skipped": True, "iterations": 0, "initial_cost": 0.0, "final_cost": 0.0,
            "log_scale_change": [0.0] * len(transforms),
        }

    # one row per kept track of a pair; the rows of pair p start at starts[p]
    counts = [x.shape[0] for x in xa]
    starts = np.cumsum(counts) - counts
    pa, pb = np.array(pairs).T
    ka, kb = np.repeat(pa, counts), np.repeat(pb, counts)
    xa, xb = np.concatenate(xa), np.concatenate(xb)
    delta = np.repeat(deltas, counts)
    K = len(transforms)

    def residuals(s, R, T):
        """``(s R x)`` of both sides, the residuals, their norms and the Huber cost."""
        rxa = s[ka, None] * (R[ka] @ xa[:, :, None])[:, :, 0]
        rxb = s[kb, None] * (R[kb] @ xb[:, :, None])[:, :, 0]
        r = (rxa + T[ka]) - (rxb + T[kb])
        nrm = np.linalg.norm(r, axis=1)
        cost = np.where(nrm <= delta, 0.5 * nrm**2, delta * (nrm - 0.5 * delta))
        return (rxa, rxb, r, nrm), float(np.sum(cost))

    def normal_equations(rxa, rxb, r, nrm):
        """Gauss-Newton system of the free communities: per-row products of
        the Jacobians, summed per pair and placed in ``(K, K, 7, 7)``
        blocks; the gauge's rows and columns are then sliced off."""
        # sqrt of the Huber weight folded into J and r: a row's J^T J is then
        # its w J^T J, and only one weighted Jacobian per side is held
        sw = np.sqrt(np.where(nrm <= delta, 1.0, delta / np.maximum(nrm, 1e-300)))[:, None, None]
        Ja, Jb, swr = _jacobian(rxa, sw), _jacobian(rxb, -sw), sw * r[:, :, None]

        def per_pair(A, B):
            """Sum of ``A_n^T B_n`` over each pair's rows."""
            return np.add.reduceat(A.transpose(0, 2, 1) @ B, starts)

        Hab = per_pair(Ja, Jb)
        blocks, g = np.zeros((K, K, 7, 7)), np.zeros((K, 7))
        np.add.at(blocks, (pa, pa), per_pair(Ja, Ja))
        np.add.at(blocks, (pb, pb), per_pair(Jb, Jb))
        np.add.at(blocks, (pa, pb), Hab)
        np.add.at(blocks, (pb, pa), Hab.transpose(0, 2, 1))
        np.add.at(g, pa, per_pair(Ja, swr)[:, :, 0])
        np.add.at(g, pb, per_pair(Jb, swr)[:, :, 0])
        n_var = 7 * (K - 1)
        return blocks[1:, 1:].transpose(0, 2, 1, 3).reshape(n_var, n_var), g[1:].reshape(n_var)

    s_in = np.array([t.s for t in transforms.values()])
    s, T = s_in, np.stack([t.t for t in transforms.values()])
    R = quat_to_matrix(np.stack([t.q for t in transforms.values()]))
    rows, cost = residuals(s, R, T)
    initial_cost = cost
    H, g = normal_equations(*rows)
    lam = 1e-8
    iterations = 0
    for _ in range(REFINE_MAX_ITERATIONS):
        try:
            step = np.linalg.solve(H + lam * np.eye(H.shape[0]), -g).reshape(K - 1, 7)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"refinement normal equations singular: {exc}") from exc
        # the gauge's row is never written, so it keeps its bits
        s_try, R_try, T_try = s.copy(), R.copy(), T.copy()
        s_try[1:] = s[1:] * np.exp(step[:, 0])
        R_try[1:] = quat_to_matrix(exp_rotation(step[:, 1:4])) @ R[1:]
        T_try[1:] = T[1:] + step[:, 4:]
        new_rows, new_cost = residuals(s_try, R_try, T_try)
        if abs(new_cost - cost) < REFINE_REL_TOL * max(cost, 1e-300):
            break  # converged: a step that moves the cost this little is dropped
        if new_cost > cost:
            lam *= 10.0
            if lam > 1e6:
                break
            continue
        lam = max(lam * 0.3, 1e-12)
        iterations += 1
        s, R, T, rows, cost = s_try, R_try, T_try, new_rows, new_cost
        H, g = normal_equations(*rows)

    q = matrix_to_quat(R)
    refined = {c: Sim3(s=s[k], q=q[k], t=T[k]) for c, k in col.items()}
    model = merge_reconstructions(recs, refined, like)
    return refined, model, {
        "skipped": False,
        "iterations": iterations,
        "initial_cost": initial_cost,
        "final_cost": cost,
        "log_scale_change": (np.log(s) - np.log(s_in)).tolist(),
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
    model_centers, truth_centers = model.camera_centers[im], truth.camera_centers[it]
    # residuals live in truth units, so the consensus threshold must too;
    # this keeps the metrics invariant to the model's arbitrary gauge
    threshold = max(0.01 * float(np.median(np.ptp(truth_centers, axis=0))), 1e-12)
    align, _ = ransac_similarity(model_centers, truth_centers, inlier_threshold=threshold)
    center_err = np.linalg.norm(align.apply(model_centers) - truth_centers, axis=1)

    rot_err = geodesic_angle(
        quat_multiply(model.camera_rotations[im], quat_conjugate(align.q)),
        truth.camera_rotations[it],
    )

    ipm, ipt = shared_tracks(model, truth)
    if ipm.size:
        # ids are sorted and unique, so a model whose every track is shared
        # needs no gather; the truth's points are gathered a block at a time
        diff = align.apply(model.points if ipm.size == model.track_ids.size else model.points[ipm])
        for start in range(0, ipt.size, _EVAL_BLOCK):
            diff[start : start + _EVAL_BLOCK] -= truth.points[ipt[start : start + _EVAL_BLOCK]]
        point_rmse = float(np.sqrt(np.mean(np.sum(np.square(diff, out=diff), axis=1))))
    else:
        point_rmse = None  # no shared track: written as null, never NaN

    return {
        "n_cameras": int(common.size),
        "n_shared_tracks": int(ipm.size),
        "median_center_error": float(np.median(center_err)),
        "rmse_center_error": float(np.sqrt(np.mean(center_err**2))),
        "median_rotation_error_rad": float(np.median(rot_err)),
        "point_rmse": point_rmse,
        "aligned_scale": align.s,
    }


def merged_to_json(model: MergedModel) -> dict:
    return {
        "cameras": cameras_to_json(model.camera_ids, model.camera_rotations, model.camera_centers),
        **points_to_json(model.track_ids, model.points),
        "communities": int_lists(model.communities, model.community_bounds),
        "fusion": {
            "tracks": as_column(model.fusion_tracks, np.int64),
            "spread": as_column(model.fusion_spread),
        },
    }


def save_merged(model: MergedModel, path, *also) -> None:
    """Write ``model`` to ``path`` and each ``(path, obj)`` of ``also`` with
    it, every file checked before any is opened, so a value that cannot be
    written leaves none of them behind."""
    write_json_files((path, merged_to_json(model)), *also)


def load_merged(path) -> MergedModel:
    """Read a merged model; camera ids and track ids are unique.  Tracks
    listed out of order are sorted, with their points and communities, as
    a :class:`MergedModel`'s are; otherwise each track's communities and the
    fusion entries keep the file's order, so the model writes back to the
    same bytes."""
    with parsing(path, "merged-model file") as obj:
        ids, rotations, centers = cameras_from_json(obj["cameras"], "merged model")
        tracks, points = points_from_json(obj, "merged model")
        for what, values in (("camera", ids), ("track", tracks)):
            unique, counts = np.unique(values, return_counts=True)
            if np.any(counts > 1):
                raise ValidationError(f"duplicate merged-model {what} id {unique[counts > 1][0]}")
        communities = obj["communities"]
        if not isinstance(communities, list) or len(communities) != tracks.size:
            raise ValidationError("merged-model communities do not align with its tracks")
        flat = list(chain.from_iterable(communities))
        sizes = np.fromiter(map(len, communities), np.int64, len(communities))
        if np.any(sizes == 0):
            raise ValidationError("merged-model track with no contributing community")
        flat = column(flat, "merged-model communities", np.int64)
        fusion = obj["fusion"]
        fusion_tracks = column(fusion["tracks"], "merged-model fusion tracks", np.int64)
        spread = column(fusion["spread"], "merged-model fusion spreads")
        if fusion_tracks.size != spread.size:
            raise ValidationError("merged-model fusion tracks and spreads differ in length")
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    if np.any(tracks[1:] < tracks[:-1]):
        order = np.argsort(tracks)
        tracks, points, sizes = tracks[order], points[order], sizes[order]
        moved = np.concatenate([[0], np.cumsum(sizes)])
        flat = flat[np.repeat(bounds[:-1][order] - moved[:-1], sizes) + np.arange(flat.size)]
        bounds = moved
    return MergedModel(
        camera_ids=ids,
        camera_rotations=rotations,
        camera_centers=centers,
        track_ids=tracks,
        points=points,
        communities=flat,
        community_bounds=bounds,
        fusion_tracks=fusion_tracks,
        fusion_spread=spread,
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
    row, values = "%.8g %.8g %.8g", model.points
    if color_by_community:
        # a loaded file may list a track's communities in any order
        lowest = np.minimum.reduceat(model.communities, model.community_bounds[:-1])
        row, values = row + " %d %d %d", np.hstack([values, np.array(_PALETTE)[lowest % len(_PALETTE)]])
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
        fh.write((row + "\n") * values.shape[0] % tuple(values.ravel().tolist()))
