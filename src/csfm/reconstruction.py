"""Per-community reconstructions: cameras and 3D points on global track ids.

Camera rotations are world-to-camera; centers live in the community's local
frame.  Track ids are global, which is what makes cross-community joins
(:func:`shared_tracks`) possible.

The point-cloud layout every artifact shares is defined here: cameras as
``{"id", "q", "c"}`` records and points as aligned ``"tracks"`` and
``"points"`` columns.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .jsonio import as_column, column, parsing, records, scalar, write_json
from .rotations import quat_canonical


@dataclass(frozen=True)
class Reconstruction:
    community_id: int
    camera_ids: np.ndarray  # (k,) unique
    camera_rotations: np.ndarray  # (k, 4) world-to-camera quaternions
    camera_centers: np.ndarray  # (k, 3)
    track_ids: np.ndarray  # (n,) unique, sorted
    points: np.ndarray  # (n, 3)

    def __post_init__(self):
        cam_ids = np.asarray(self.camera_ids, dtype=np.int64).reshape(-1)
        rots = np.asarray(self.camera_rotations, dtype=float).reshape(-1, 4)
        centers = np.asarray(self.camera_centers, dtype=float).reshape(-1, 3)
        tracks = np.asarray(self.track_ids, dtype=np.int64).reshape(-1)
        pts = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if not (cam_ids.shape[0] == rots.shape[0] == centers.shape[0]):
            raise ValidationError("camera arrays must have matching lengths")
        if tracks.shape[0] != pts.shape[0]:
            raise ValidationError("track and point arrays must have matching lengths")
        for name, values in (("camera rotations", rots), ("camera centers", centers), ("points", pts)):
            if not np.all(np.isfinite(values)):
                raise ValidationError(f"reconstruction {name} contain a non-finite number")
        order = _sorting_order(cam_ids, "camera")
        torder = _sorting_order(tracks, "track")
        if order is not None:
            cam_ids, rots, centers = cam_ids[order], rots[order], centers[order]
        if torder is not None:
            tracks, pts = tracks[torder], pts[torder]
        rots = quat_canonical(rots)
        object.__setattr__(self, "community_id", int(self.community_id))
        object.__setattr__(self, "camera_ids", cam_ids)
        object.__setattr__(self, "camera_rotations", rots)
        object.__setattr__(self, "camera_centers", centers)
        object.__setattr__(self, "track_ids", tracks)
        object.__setattr__(self, "points", pts)

    @property
    def camera_count(self) -> int:
        return int(self.camera_ids.shape[0])

    @property
    def point_count(self) -> int:
        return int(self.track_ids.shape[0])


def _sorting_order(ids: np.ndarray, what: str):
    """The stable order that sorts ``ids``, or ``None`` when they are
    strictly increasing already (every fractured or loaded reconstruction's);
    a repeated id raises."""
    if np.all(ids[1:] > ids[:-1]):
        return None
    order = np.argsort(ids, kind="stable")
    if np.any(ids[order[1:]] == ids[order[:-1]]):
        raise ValidationError(f"duplicate {what} id in reconstruction")
    return order


def shared_tracks(rec_a, rec_b) -> tuple:
    """Indices ``(ia, ib)`` of the tracks two reconstructions (or a merged
    model and a reconstruction) share, in ascending track id:
    ``rec_a.track_ids[ia] == rec_b.track_ids[ib]``.  Both hold sorted,
    unique ids, so the shorter list is looked up in the longer one by
    binary search."""
    a, b = rec_a.track_ids, rec_b.track_ids
    swap = a.size > b.size
    if swap:
        a, b = b, a
    if b.size == 0:
        return np.empty(0, np.intp), np.empty(0, np.intp)
    at = np.searchsorted(b, a)
    ia = np.flatnonzero(np.take(b, at, mode="clip") == a)
    ib = at[ia]
    return (ib, ia) if swap else (ia, ib)


def covisible_pairs(recs, min_shared: int = 1) -> list:
    """Every community pair sharing at least ``min_shared`` tracks, ordered by
    community id, as ``(rec_a, rec_b, ia, ib)`` with ``ia``/``ib`` the
    :func:`shared_tracks` of the pair."""
    recs = sorted(recs, key=lambda r: r.community_id)
    pairs = []
    for a in range(len(recs)):
        for b in range(a + 1, len(recs)):
            ia, ib = shared_tracks(recs[a], recs[b])
            if ia.size >= min_shared:
                pairs.append((recs[a], recs[b], ia, ib))
    return pairs


def check_community_ids(recs) -> None:
    """Refuse a reconstruction set unless it holds communities 0..K-1 once each."""
    ids = sorted(rec.community_id for rec in recs)
    if ids != list(range(len(ids))):
        raise ValidationError(
            f"reconstruction community ids must be 0..{len(ids) - 1} once each, got {ids}"
        )


def cameras_to_json(ids, rotations, centers) -> list:
    return [
        {"id": cid, "q": q, "c": c}
        for cid, q, c in zip(ids.tolist(), rotations.tolist(), centers.tolist())
    ]


def cameras_from_json(cams, what: str) -> tuple:
    """``(ids, rotations, centers)`` of a list of ``{"id", "q", "c"}`` records."""
    cams = records(cams, f"{what} cameras", "camera")
    return (
        column([c["id"] for c in cams], f"{what} camera ids", np.int64),
        column([c["q"] for c in cams], f"{what} camera rotations", width=4),
        column([c["c"] for c in cams], f"{what} camera centers", width=3),
    )


def points_to_json(track_ids, points) -> dict:
    """The columnar point block shared by every point-cloud artifact."""
    return {"tracks": as_column(track_ids, np.int64), "points": as_column(points)}


def points_from_json(obj, what: str) -> tuple:
    """``(track ids, points)`` of a point block, with equal lengths."""
    if "tracks" not in obj:
        # the per-record layout ({"track", "xyz"} per point) has no "tracks" column
        raise ValidationError(f'{what} has no "tracks" column')
    tracks = column(obj["tracks"], f"{what} tracks", np.int64)
    points = column(obj["points"], f"{what} points", width=3)
    if tracks.shape[0] != points.shape[0]:
        raise ValidationError(
            f"{what} has {tracks.shape[0]} tracks but {points.shape[0]} points"
        )
    return tracks, points


def reconstruction_to_json(rec: Reconstruction) -> dict:
    return {
        "community": rec.community_id,
        "cameras": cameras_to_json(rec.camera_ids, rec.camera_rotations, rec.camera_centers),
        **points_to_json(rec.track_ids, rec.points),
    }


def save_reconstruction(rec: Reconstruction, path) -> None:
    write_json(path, reconstruction_to_json(rec))


def save_reconstructions(recs, out_dir) -> None:
    """Write one ``rec_<community id>.json`` per reconstruction into ``out_dir``."""
    for rec in recs:
        save_reconstruction(rec, Path(out_dir) / f"rec_{rec.community_id}.json")


def load_reconstruction(path) -> Reconstruction:
    with parsing(path, "reconstruction") as obj:
        ids, rotations, centers = cameras_from_json(obj["cameras"], "reconstruction")
        tracks, points = points_from_json(obj, "reconstruction")
        community = scalar(obj["community"], "reconstruction community", np.int64)
    return Reconstruction(
        community_id=community,
        camera_ids=ids,
        camera_rotations=rotations,
        camera_centers=centers,
        track_ids=tracks,
        points=points,
    )
