"""Per-community reconstructions: cameras and 3D points on global track ids.

Camera rotations are world-to-camera; centers live in the community's local
frame.  Track ids are global, which is what makes cross-community joins
(:func:`covisible`) possible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alignment import CorrespondenceSet
from .errors import ValidationError
from .jsonio import read_json, write_json
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
        if np.unique(cam_ids).size != cam_ids.size:
            raise ValidationError("duplicate camera id in reconstruction")
        if np.unique(tracks).size != tracks.size:
            raise ValidationError("duplicate track id in reconstruction")
        order = np.argsort(cam_ids, kind="stable")
        cam_ids, rots, centers = cam_ids[order], rots[order], centers[order]
        torder = np.argsort(tracks, kind="stable")
        tracks, pts = tracks[torder], pts[torder]
        rots = np.stack([quat_canonical(q) for q in rots]) if rots.size else rots
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


def covisible(rec_a: Reconstruction, rec_b: Reconstruction) -> CorrespondenceSet:
    """Join the two point sets on global track id, ordered by track id."""
    common, ia, ib = np.intersect1d(
        rec_a.track_ids, rec_b.track_ids, assume_unique=True, return_indices=True
    )
    return CorrespondenceSet(
        track_ids=common, points_a=rec_a.points[ia], points_b=rec_b.points[ib]
    )


def reconstruction_to_json(rec: Reconstruction) -> dict:
    return {
        "community": rec.community_id,
        "cameras": [
            {"id": cid, "q": q, "c": c}
            for cid, q, c in zip(
                rec.camera_ids.tolist(), rec.camera_rotations.tolist(), rec.camera_centers.tolist()
            )
        ],
        "points": [
            {"track": t, "xyz": p} for t, p in zip(rec.track_ids.tolist(), rec.points.tolist())
        ],
    }


def reconstruction_from_json(obj: dict) -> Reconstruction:
    try:
        cams = obj["cameras"]
        pts = obj["points"]
        return Reconstruction(
            community_id=int(obj["community"]),
            camera_ids=np.array([c["id"] for c in cams], dtype=np.int64),
            camera_rotations=np.array([c["q"] for c in cams], dtype=float).reshape(-1, 4),
            camera_centers=np.array([c["c"] for c in cams], dtype=float).reshape(-1, 3),
            track_ids=np.array([p["track"] for p in pts], dtype=np.int64),
            points=np.array([p["xyz"] for p in pts], dtype=float).reshape(-1, 3),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed reconstruction record: {exc}") from exc


def save_reconstruction(rec: Reconstruction, path) -> None:
    write_json(path, reconstruction_to_json(rec))


def load_reconstruction(path) -> Reconstruction:
    return reconstruction_from_json(read_json(path))
