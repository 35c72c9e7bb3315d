"""Synthetic ground-truth worlds: clustered cameras, points, and an
image-match graph derived from shared visibility.

Camera clusters sit on a ring; each cluster's points surround its center and
a backbone of points between adjacent clusters guarantees cross-cluster
co-visibility, so the planted community graph stays connected.  Fracturing
maps each community into its own arbitrary local frame (the stand-in for an
independent per-community reconstruction), with optional Gaussian noise and
corrupted shared tracks.  Everything is a pure function of the seed.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .community import Partition
from .errors import ValidationError
from .graph import EpipolarGraph, save_graph
from .jsonio import read_json, write_json
from .reconstruction import Reconstruction
from .rotations import quat_canonical, quat_multiply, random_quat
from .sim3 import Sim3

# seed-stream tags so the per-purpose generators never collide
_STREAM_WORLD = 11
_STREAM_TRANSFORM = 101
_STREAM_NOISE = 202


@dataclass(frozen=True)
class WorldSpec:
    camera_count: int = 200
    point_count: int = 5000
    cluster_count: int = 4
    cluster_spread: float = 2.0
    cluster_separation: float = 20.0
    visibility_radius: float = 9.0
    min_shared_tracks: int = 15
    noise_sigma: float = 0.0
    outlier_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if min(self.camera_count, self.point_count, self.cluster_count) <= 0:
            raise ValidationError("camera, point, and cluster counts must be positive")
        if not 0.0 <= self.outlier_fraction < 0.5:
            raise ValidationError("outlier fraction must lie in [0, 0.5)")
        if min(self.cluster_spread, self.cluster_separation, self.visibility_radius) <= 0:
            raise ValidationError("spread, separation, and visibility radius must be positive")
        if self.min_shared_tracks < 1:
            raise ValidationError("min shared tracks must be at least 1")
        if self.noise_sigma < 0:
            raise ValidationError("noise sigma must be non-negative")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "WorldSpec":
        try:
            return cls(**obj)
        except TypeError as exc:
            raise ValidationError(f"malformed world spec: {exc}") from exc


@dataclass(frozen=True)
class GroundTruthWorld:
    spec: WorldSpec
    camera_centers: np.ndarray  # (n, 3) global frame
    camera_rotations: np.ndarray  # (n, 4) world-to-camera
    track_ids: np.ndarray
    points: np.ndarray
    labels: np.ndarray  # planted cluster per camera
    graph: EpipolarGraph
    planted_transforms: tuple  # Sim3 per planted cluster, local -> global

    def truth_reconstruction(self) -> Reconstruction:
        """The world itself as a single global-frame reconstruction."""
        return world_truth(vars(self))


def world_truth(fields: dict) -> Reconstruction:
    """A world's geometry as a single global-frame reconstruction, from its
    fields by name (``vars`` of a world, or :func:`read_world`'s output)."""
    return Reconstruction(
        community_id=0,
        camera_ids=np.arange(fields["camera_centers"].shape[0]),
        camera_rotations=fields["camera_rotations"],
        camera_centers=fields["camera_centers"],
        track_ids=fields["track_ids"],
        points=fields["points"],
    )


def community_frame(seed: int, community: int) -> Sim3:
    """The local->global transform a community's reconstruction is planted in."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_TRANSFORM, community]))
    s = float(np.exp(rng.uniform(np.log(0.6), np.log(1.8))))
    q = random_quat(rng)
    t = rng.uniform(-10.0, 10.0, size=3)
    return Sim3(s=s, q=q, t=t)


def _cluster_centers(spec: WorldSpec) -> np.ndarray:
    k = spec.cluster_count
    if k == 1:
        return np.zeros((1, 3))
    radius = spec.cluster_separation / (2.0 * math.sin(math.pi / k))
    ang = 2.0 * math.pi * np.arange(k) / k
    return np.column_stack([radius * np.cos(ang), radius * np.sin(ang), np.zeros(k)])


def generate_world(spec: WorldSpec) -> GroundTruthWorld:
    """Build the world, its visibility-derived match graph, and planted frames.

    Raises :class:`ValidationError` when the spec yields a disconnected
    planted community graph or an internally disconnected cluster (retry with
    a larger visibility radius or smaller separation).
    """
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, _STREAM_WORLD]))
    k = spec.cluster_count
    centers = _cluster_centers(spec)

    n_cam = spec.camera_count
    per_cluster = [n_cam // k + (1 if c < n_cam % k else 0) for c in range(k)]
    labels = np.concatenate([np.full(cnt, c, dtype=np.int64) for c, cnt in enumerate(per_cluster)])
    cam_centers = np.empty((n_cam, 3))
    row = 0
    for c, cnt in enumerate(per_cluster):
        cam_centers[row : row + cnt] = centers[c] + spec.cluster_spread * rng.uniform(
            -1.0, 1.0, size=(cnt, 3)
        )
        row += cnt
    cam_rotations = np.stack([random_quat(rng) for _ in range(n_cam)])

    links = [(c, (c + 1) % k) for c in range(k)] if k > 2 else ([(0, 1)] if k == 2 else [])
    backbone_per_link = 6 * spec.min_shared_tracks
    n_backbone = min(len(links) * backbone_per_link, spec.point_count // 3)
    n_scene = spec.point_count - n_backbone
    per_cluster_pts = [n_scene // k + (1 if c < n_scene % k else 0) for c in range(k)]
    pts = np.empty((spec.point_count, 3))
    row = 0
    for c, cnt in enumerate(per_cluster_pts):
        pts[row : row + cnt] = centers[c] + 1.5 * spec.cluster_spread * rng.uniform(
            -1.0, 1.0, size=(cnt, 3)
        )
        row += cnt
    if links:
        per_link = [n_backbone // len(links) + (1 if c < n_backbone % len(links) else 0) for c in range(len(links))]
        for (a, b), cnt in zip(links, per_link):
            mid = 0.5 * (centers[a] + centers[b])
            pts[row : row + cnt] = mid + 0.08 * spec.cluster_separation * rng.uniform(
                -1.0, 1.0, size=(cnt, 3)
            )
            row += cnt
    track_ids = np.arange(spec.point_count, dtype=np.int64)

    graph = _match_graph(spec, cam_centers, pts)
    _check_planted_structure(graph, labels, k)

    transforms = tuple(community_frame(spec.seed, c) for c in range(k))
    return GroundTruthWorld(
        spec=spec,
        camera_centers=cam_centers,
        camera_rotations=cam_rotations,
        track_ids=track_ids,
        points=pts,
        labels=labels,
        graph=graph,
        planted_transforms=transforms,
    )


def _visible(cam_centers: np.ndarray, points: np.ndarray, radius: float) -> np.ndarray:
    """Dense ``(n_cam, n_pts)`` bool: camera sees point within ``radius``."""
    d2 = np.sum((cam_centers[:, None, :] - points[None, :, :]) ** 2, axis=2)
    return d2 <= radius**2


def _match_graph(spec: WorldSpec, cam_centers: np.ndarray, points: np.ndarray) -> EpipolarGraph:
    """Visibility by distance, match edges by co-visible track count."""
    visible = _visible(cam_centers, points, spec.visibility_radius)
    co = visible.astype(np.int64) @ visible.T.astype(np.int64)
    iu, ju = np.triu_indices(cam_centers.shape[0], k=1)
    strong = co[iu, ju] >= spec.min_shared_tracks
    return EpipolarGraph(
        node_count=cam_centers.shape[0],
        edges=np.column_stack([iu[strong], ju[strong]]),
        weights=co[iu, ju][strong],
    )


def _check_planted_structure(graph: EpipolarGraph, labels: np.ndarray, k: int):
    li = labels[graph.edges[:, 0]]
    lj = labels[graph.edges[:, 1]]
    # each planted cluster must be internally connected
    for c in range(k):
        nodes = np.flatnonzero(labels == c)
        intra = graph.edges[(li == c) & (lj == c)]
        if not _connected_on(nodes, intra):
            raise ValidationError(
                f"planted cluster {c} is internally disconnected; widen the visibility radius"
            )
    if k > 1:
        # the community-level graph over planted clusters must be connected
        cross = {(int(min(a, b)), int(max(a, b))) for a, b in zip(li, lj) if a != b}
        if not _connected_on(np.arange(k), np.array(sorted(cross), dtype=np.int64).reshape(-1, 2)):
            raise ValidationError(
                "planted community graph is disconnected; widen the visibility radius "
                "or reduce the cluster separation"
            )


def _connected_on(nodes: np.ndarray, edges: np.ndarray) -> bool:
    if nodes.size == 0:
        return True
    index = {int(v): i for i, v in enumerate(nodes)}
    adj = [[] for _ in nodes]
    for a, b in edges:
        adj[index[int(a)]].append(index[int(b)])
        adj[index[int(b)]].append(index[int(a)])
    seen = [False] * len(nodes)
    stack = [0]
    seen[0] = True
    cnt = 1
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                cnt += 1
                stack.append(w)
    return cnt == len(nodes)


@dataclass(frozen=True)
class FractureResult:
    reconstructions: tuple  # Reconstruction per community
    transforms: tuple  # the local->global Sim3 actually used per community
    outlier_tracks: dict  # community id -> sorted corrupted shared-track ids


def fracture(
    world: GroundTruthWorld,
    partition: Partition,
    transforms=None,
) -> FractureResult:
    """Split the world into per-community reconstructions in local frames.

    Each community's cameras and its tracks seen by at least two of them are
    mapped through the inverse of that community's local->global transform
    (``transforms`` overrides the seeded default).  Gaussian noise
    (``spec.noise_sigma``, in world units) lands on local point positions and
    camera centers; a ``spec.outlier_fraction`` share of each community's
    shared tracks is displaced uniformly.  Track ids stay global.
    """
    spec = world.spec
    n_cam = world.camera_centers.shape[0]
    if partition.assignment.shape[0] != n_cam:
        raise ValidationError("partition does not cover the world's cameras")
    k = partition.community_count
    if transforms is None:
        transforms = tuple(community_frame(spec.seed, c) for c in range(k))
    elif len(transforms) != k:
        raise ValidationError("need one transform per community")

    visible = _visible(world.camera_centers, world.points, spec.visibility_radius)

    # a community reconstructs the tracks seen by >= 2 of its cameras
    member_tracks = []
    for c in range(k):
        cams = np.flatnonzero(partition.assignment == c)
        seen_count = visible[cams].sum(axis=0)
        member_tracks.append(np.flatnonzero(seen_count >= 2))
    multiplicity = np.zeros(world.points.shape[0], dtype=np.int64)
    for tracks in member_tracks:
        multiplicity[tracks] += 1

    world_extent = float(np.max(np.ptp(world.points, axis=0)))
    recs = []
    outlier_tracks = {}
    for c in range(k):
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, _STREAM_NOISE, c]))
        tr = transforms[c]
        inv = tr.inverse()
        cams = np.flatnonzero(partition.assignment == c)
        tracks = member_tracks[c]
        pts_local = inv.apply(world.points[tracks])
        centers_local = inv.apply(world.camera_centers[cams])
        # world-to-camera in the local frame: fold the local->global rotation in
        rot_local = np.stack(
            [
                quat_canonical(quat_multiply(world.camera_rotations[ci], tr.q))
                for ci in cams
            ]
        ) if cams.size else np.zeros((0, 4))

        if spec.noise_sigma > 0:
            local_sigma = spec.noise_sigma / tr.s  # world-unit sigma in local units
            pts_local = pts_local + rng.normal(0.0, local_sigma, size=pts_local.shape)
            centers_local = centers_local + rng.normal(0.0, local_sigma, size=centers_local.shape)

        shared = tracks[multiplicity[tracks] >= 2]
        n_corrupt = int(spec.outlier_fraction * shared.size)
        if n_corrupt > 0:
            chosen = np.sort(rng.choice(shared, size=n_corrupt, replace=False))
            rows = np.searchsorted(tracks, chosen)
            bump = rng.uniform(-0.5, 0.5, size=(n_corrupt, 3)) * world_extent / tr.s
            pts_local[rows] = pts_local[rows] + bump
            outlier_tracks[c] = [int(t) for t in chosen]
        else:
            outlier_tracks[c] = []

        recs.append(
            Reconstruction(
                community_id=c,
                camera_ids=cams,
                camera_rotations=rot_local,
                camera_centers=centers_local,
                track_ids=tracks,
                points=pts_local,
            )
        )
    return FractureResult(
        reconstructions=tuple(recs), transforms=tuple(transforms), outlier_tracks=outlier_tracks
    )


def world_to_json(world: GroundTruthWorld) -> dict:
    return {
        "spec": world.spec.to_json(),
        "cameras": [
            {"id": int(i), "q": [float(v) for v in q], "c": [float(v) for v in c]}
            for i, (q, c) in enumerate(zip(world.camera_rotations, world.camera_centers))
        ],
        "points": [
            {"track": int(t), "xyz": [float(v) for v in p]}
            for t, p in zip(world.track_ids, world.points)
        ],
        "labels": [int(v) for v in world.labels],
        "planted": [tr.to_json() for tr in world.planted_transforms],
    }


def save_world(world: GroundTruthWorld, path) -> None:
    write_json(path, world_to_json(world))


def write_world_files(world: GroundTruthWorld, out_dir) -> None:
    """Write a world's ``world.json``, ``eg.json`` and ``truth-labels.json``."""
    out = Path(out_dir)
    save_world(world, out / "world.json")
    save_graph(world.graph, out / "eg.json")
    write_json(out / "truth-labels.json", {"labels": [int(v) for v in world.labels]})


def read_world(path) -> dict:
    """Parse a world file into every :class:`GroundTruthWorld` field except
    ``graph``, deriving nothing from the stored geometry."""
    obj = read_json(path)
    try:
        spec = WorldSpec.from_json(obj["spec"])
        cams = obj["cameras"]
        pts = obj["points"]
        fields = dict(
            spec=spec,
            camera_centers=np.array([c["c"] for c in cams], dtype=float).reshape(-1, 3),
            camera_rotations=np.array([c["q"] for c in cams], dtype=float).reshape(-1, 4),
            track_ids=np.array([p["track"] for p in pts], dtype=np.int64),
            points=np.array([p["xyz"] for p in pts], dtype=float).reshape(-1, 3),
            labels=np.array(obj["labels"], dtype=np.int64),
            planted_transforms=tuple(Sim3.from_json(r) for r in obj["planted"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed world file: {exc}") from exc
    if fields["labels"].shape[0] != fields["camera_centers"].shape[0]:
        raise ValidationError("world file labels do not cover the cameras")
    return fields


def load_world(path) -> GroundTruthWorld:
    """Rebuild a world from its file; the match graph is re-derived from the
    stored geometry with the spec's visibility rule."""
    f = read_world(path)
    graph = _match_graph(f["spec"], f["camera_centers"], f["points"])
    return GroundTruthWorld(**f, graph=graph)
