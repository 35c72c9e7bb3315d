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
from typing import NamedTuple

import numpy as np

from .community import Partition
from .errors import ValidationError
from .graph import EpipolarGraph, component_labels, save_graph
from .jsonio import as_column, column, parsing, scalar, write_json
from .reconstruction import (
    Reconstruction,
    cameras_from_json,
    cameras_to_json,
    points_from_json,
    points_to_json,
)
from .rotations import quat_canonical, quat_multiply, random_quat, random_quats
from .sim3 import Sim3

# seed-stream tags so the per-purpose generators never collide
_STREAM_WORLD = 11
_STREAM_TRANSFORM = 101
_STREAM_NOISE = 202

_WORLD_DRAWS = 4  # geometry draws generate_world tries before giving up
_CAMERA_CHUNK = 16  # cameras per candidate search in visibility()
_CAMERA_BLOCK = 512  # cameras per packed incidence block; every perfbench world is one
_POINT_BLOCK = 2048  # incidence columns per float32 product in _match_graph(); a multiple of 8


def check_seed(seed) -> None:
    """Refuse a seed outside ``0..2**63-1``: numpy's SeedSequence takes no
    negative number, and artifacts hold integers to 64 bits."""
    if scalar(seed, "seed", np.int64) < 0:
        raise ValidationError("seed must be non-negative")


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
        for name in ("camera_count", "point_count", "cluster_count", "min_shared_tracks"):
            scalar(getattr(self, name), name, np.int64)
        check_seed(self.seed)
        for name in (
            "cluster_spread", "cluster_separation", "visibility_radius", "noise_sigma",
            "outlier_fraction",
        ):
            scalar(getattr(self, name), name)
        if min(self.camera_count, self.point_count, self.cluster_count) <= 0:
            raise ValidationError("camera, point, and cluster counts must be positive")
        if self.cluster_count > self.camera_count:
            raise ValidationError("cluster count must not exceed camera count")
        if not 0.0 <= self.outlier_fraction < 0.5:
            raise ValidationError("outlier fraction must lie in [0, 0.5)")
        if min(self.cluster_spread, self.cluster_separation, self.visibility_radius) <= 0:
            raise ValidationError("spread, separation, and visibility radius must be positive")
        if self.min_shared_tracks < 1:
            raise ValidationError("min shared tracks must be at least 1")
        if self.noise_sigma < 0:
            raise ValidationError("noise sigma must be non-negative")
        if self.point_count >= 2**24:
            # float32 co-visibility counts (see _match_graph) are exact below 2**24
            raise ValidationError("point count must be below 2**24")
        if self.camera_count >= 2**24:
            # no world this large fits in memory (its edge list alone can reach
            # n_cam**2 / 2 rows); the bound, once set by a camera x camera count
            # matrix, is kept so that the specs accepted do not change
            raise ValidationError("camera count must be below 2**24")

    def to_json(self) -> dict:
        return asdict(self)


class Incidence(NamedTuple):
    """Camera x point 0/1 incidence, one entry per block of ``_CAMERA_BLOCK``
    cameras (the last block may be shorter).  ``columns[b]`` holds the points
    some camera of block ``b`` sees, ascending; row ``r`` of the uint8
    ``bits[b]`` is the incidence of the block's ``r``-th camera on those
    columns, packed by ``np.packbits`` (zero bits pad the last byte)."""

    columns: tuple
    bits: tuple

    @property
    def bounds(self) -> list:
        """Block ``b`` holds cameras ``bounds[b]`` up to ``bounds[b + 1] - 1``."""
        return np.cumsum([0] + [bits.shape[0] for bits in self.bits]).tolist()

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.columns + self.bits)


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
    visible: Incidence  # (n_cam, n_pts) 0/1 incidence from visibility(), packed per camera block

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

    The geometry is drawn from the seed's world stream.  When it yields a
    disconnected planted community graph or an internally disconnected
    cluster, it is drawn again from the sub-stream ``[seed, _STREAM_WORLD,
    attempt]``, up to ``_WORLD_DRAWS`` draws in all; the first draw is the
    plain ``[seed, _STREAM_WORLD]`` stream.  :class:`ValidationError` is
    raised when every draw fails (retry with a larger visibility radius or
    smaller separation).
    """
    for attempt in range(_WORLD_DRAWS):
        stream = [spec.seed, _STREAM_WORLD] + ([attempt] if attempt else [])
        labels, cam_centers, cam_rotations, pts = _draw_geometry(
            spec, np.random.default_rng(np.random.SeedSequence(stream))
        )
        visible = visibility(cam_centers, pts, spec.visibility_radius)
        graph = _match_graph(spec, cam_centers, visible)
        try:
            _check_planted_structure(graph, labels, spec.cluster_count)
            break
        except ValidationError:
            if attempt == _WORLD_DRAWS - 1:
                raise

    transforms = tuple(community_frame(spec.seed, c) for c in range(spec.cluster_count))
    return GroundTruthWorld(
        spec=spec,
        camera_centers=cam_centers,
        camera_rotations=cam_rotations,
        track_ids=np.arange(spec.point_count, dtype=np.int64),
        points=pts,
        labels=labels,
        graph=graph,
        planted_transforms=transforms,
        visible=visible,
    )


def _draw_geometry(spec: WorldSpec, rng: np.random.Generator):
    """Planted labels, camera centers and rotations, and points, in draw order."""
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
    cam_rotations = random_quats(rng, n_cam)

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
    return labels, cam_centers, cam_rotations, pts


def visibility(centers: np.ndarray, points: np.ndarray, radius: float) -> Incidence:
    """The ``(n_cam, n_pts)`` incidence: camera ``i`` sees point ``j`` when
    ``d2 <= radius**2``, with ``d2`` the squared distance summed over x, y, z
    in that order.  Columns are int32: ``WorldSpec`` keeps the point count
    below 2**24.

    The points are sorted on x once.  Each chunk of ``_CAMERA_CHUNK`` cameras
    of a block takes as candidates the slab of points whose x lies within
    ``radius`` of the chunk's x-range, found by two binary searches, and keeps
    those whose y and z lie within ``radius`` of the chunk's range too.  The
    margin is widened by a relative 1e-9, far beyond the rounding of any
    coordinate difference involved, so the candidates hold every point a
    camera of the chunk sees.  The exact rule decides each of them on a dense
    ``(chunk, candidates)`` mask.  A block's columns are the union of the
    points its chunks see; each chunk's mask is spread over those columns
    and packed into the block's rows.
    """
    n_cam = centers.shape[0]
    by_axis = np.ascontiguousarray(points.T)
    order = np.argsort(by_axis[0], kind="stable")
    xs = by_axis[0, order]
    margin = radius * (1.0 + 1e-9)
    columns, bits = [], []
    for block in range(0, n_cam, _CAMERA_BLOCK):
        stop = min(block + _CAMERA_BLOCK, n_cam)
        parts = []  # (first row, points the chunk sees, the chunk's mask on them)
        for start in range(block, stop, _CAMERA_CHUNK):
            chunk = centers[start : min(start + _CAMERA_CHUNK, stop)]
            lo, hi = chunk.min(axis=0) - margin, chunk.max(axis=0) + margin
            slab = order[np.searchsorted(xs, lo[0], "left") : np.searchsorted(xs, hi[0], "right")]
            y, z = by_axis[1, slab], by_axis[2, slab]
            near = np.sort(slab[(y >= lo[1]) & (y <= hi[1]) & (z >= lo[2]) & (z <= hi[2])])
            cand = by_axis[:, near]
            d2 = (chunk[:, 0:1] - cand[0]) ** 2
            d2 += (chunk[:, 1:2] - cand[1]) ** 2
            d2 += (chunk[:, 2:3] - cand[2]) ** 2
            seen = d2 <= radius**2
            hit = seen.any(axis=0)
            parts.append((start - block, near[hit], seen[:, hit]))
        cols = np.unique(np.concatenate([near for _, near, _ in parts]))
        packed = np.empty((stop - block, -(-cols.size // 8)), dtype=np.uint8)
        for row, near, seen in parts:
            dense = np.zeros((seen.shape[0], cols.size), dtype=bool)
            dense[:, np.searchsorted(cols, near)] = seen
            packed[row : row + seen.shape[0]] = np.packbits(dense, axis=1)
        columns.append(cols.astype(np.int32))
        bits.append(packed)
    return Incidence(tuple(columns), tuple(bits))


def _match_graph(spec: WorldSpec, centers: np.ndarray, visible: Incidence) -> EpipolarGraph:
    """Match edges by co-visible track count, in row-major ``(i < j)`` order.

    ``visible`` is the incidence :func:`visibility` gives for ``centers`` at
    ``spec.visibility_radius``.  Two cameras more than ``2 * radius`` apart
    share no point (the triangle inequality, with the 1e-9 slack of
    :func:`visibility`), so a pair of camera blocks is counted only when the
    bounding boxes of their centers lie within that distance.  Each kept
    pair's counts are one float32 product of the two blocks' incidence over
    the point columns both see, unpacked ``_POINT_BLOCK`` columns at a time
    (``x @ x.T`` on the diagonal, which numpy hands to ``syrk``).  Every
    partial sum is an integer no larger than the point count, which
    ``WorldSpec`` keeps below 2**24, so float32 holds each one exactly, in
    any order of summation.
    """
    n_cam = centers.shape[0]
    bounds = visible.bounds
    lo = np.minimum.reduceat(centers, bounds[:-1], axis=0)
    hi = np.maximum.reduceat(centers, bounds[:-1], axis=0)
    gap = np.maximum(np.maximum(lo[None] - hi[:, None], lo[:, None] - hi[None]), 0.0)
    reach = 2.0 * spec.visibility_radius * (1.0 + 1e-9)
    linked = np.sum(gap**2, axis=2) <= reach**2
    edges, weights = [np.zeros((0, 2), np.int64)], [np.zeros(0, np.float32)]
    for a in range(len(bounds) - 1):
        partners = (np.flatnonzero(linked[a, a:]) + a).tolist()
        # one row of count blocks, in column order, so nonzero is row-major
        co = np.hstack([_block_counts(visible, a, b) for b in partners])
        cams = np.concatenate([np.arange(bounds[b], bounds[b + 1]) for b in partners])
        i, j = np.nonzero(co >= spec.min_shared_tracks)
        edges.append(np.column_stack([i + bounds[a], cams[j]]))
        weights.append(co[i, j])
    return EpipolarGraph(
        node_count=n_cam,
        edges=np.concatenate(edges),
        weights=np.concatenate(weights).astype(np.int64),
    )


def _block_counts(visible: Incidence, a: int, b: int) -> np.ndarray:
    """Co-visible point counts between the cameras of blocks ``a <= b``, as
    a float32 matrix; on the diagonal only the strict upper triangle is set.

    On the diagonal each step unpacks a slice of ``_POINT_BLOCK / 8`` bytes
    (the last one's zero padding bits add nothing).  Off it, each step
    unpacks the bytes that span its next ``_POINT_BLOCK`` shared columns on
    either side and takes those columns."""
    x, y = visible.bits[a], visible.bits[b]
    co = np.zeros((x.shape[0], y.shape[0]), dtype=np.float32)
    if a == b:
        for start in range(0, x.shape[1], _POINT_BLOCK // 8):
            part = np.unpackbits(x[:, start : start + _POINT_BLOCK // 8], axis=1).astype(np.float32)
            co += part @ part.T
        return np.triu(co, 1)
    _, in_left, in_right = np.intersect1d(
        visible.columns[a], visible.columns[b], assume_unique=True, return_indices=True
    )
    for start in range(0, in_left.size, _POINT_BLOCK):
        stop = start + _POINT_BLOCK
        co += _unpacked(x, in_left[start:stop]) @ _unpacked(y, in_right[start:stop]).T
    return co


def _unpacked(bits: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """The float32 columns ``positions`` (ascending) of packed rows ``bits``,
    unpacking only the bytes from the first position's to the last's."""
    first = int(positions[0]) // 8
    window = np.unpackbits(bits[:, first : int(positions[-1]) // 8 + 1], axis=1)
    return window[:, positions - 8 * first].astype(np.float32)


def _check_planted_structure(graph: EpipolarGraph, labels: np.ndarray, k: int):
    li = labels[graph.edges[:, 0]]
    lj = labels[graph.edges[:, 1]]
    # each planted cluster must be internally connected
    component = component_labels(graph.node_count, graph.edges[li == lj])
    for c in range(k):
        if np.ptp(component[labels == c]) > 0:
            raise ValidationError(
                f"planted cluster {c} is internally disconnected; widen the visibility radius"
            )
    if k > 1:
        # the community-level graph over planted clusters must be connected
        cross = li != lj
        if component_labels(k, np.column_stack([li[cross], lj[cross]])).max() > 0:
            raise ValidationError(
                "planted community graph is disconnected; widen the visibility radius "
                "or reduce the cluster separation"
            )


@dataclass(frozen=True)
class FractureResult:
    reconstructions: tuple  # Reconstruction per community
    outlier_tracks: dict  # community id -> sorted corrupted shared-track ids


def fracture(world: GroundTruthWorld, partition: Partition) -> FractureResult:
    """Split the world into per-community reconstructions in local frames.

    Each community's cameras and its tracks seen by at least two of them are
    mapped through the inverse of that community's local->global transform,
    :func:`community_frame` of the spec's seed.  Gaussian noise
    (``spec.noise_sigma``, in world units) lands on local point positions and
    camera centers; a ``spec.outlier_fraction`` share of each community's
    shared tracks is displaced uniformly.  Track ids stay global.
    """
    spec = world.spec
    n_cam = world.camera_centers.shape[0]
    if partition.assignment.shape[0] != n_cam:
        raise ValidationError("partition does not cover the world's cameras")
    k = partition.community_count

    # a community reconstructs the tracks seen by >= 2 of its cameras, counted
    # block by block over its own cameras' unpacked incidence rows
    n_pts = world.points.shape[0]
    visible = world.visible
    bounds = visible.bounds
    community_cams = [np.flatnonzero(partition.assignment == c) for c in range(k)]
    member_tracks = []
    multiplicity = np.zeros(n_pts, dtype=np.int64)  # communities that reconstruct each track
    for cams in community_cams:
        views = np.zeros(n_pts, dtype=np.int64)  # member cameras that see each track
        cuts = np.searchsorted(cams, bounds).tolist()
        for b, (columns, bits) in enumerate(zip(visible.columns, visible.bits)):
            if cuts[b] < cuts[b + 1]:
                rows = np.unpackbits(bits[cams[cuts[b] : cuts[b + 1]] - bounds[b]], axis=1,
                                     count=columns.size)
                views[columns] += rows.sum(axis=0, dtype=np.int16)  # at most _CAMERA_BLOCK
        member = views >= 2
        member_tracks.append(np.flatnonzero(member))
        multiplicity += member

    world_extent = float(np.max(np.ptp(world.points, axis=0)))
    recs = []
    outlier_tracks = {}
    for c in range(k):
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, _STREAM_NOISE, c]))
        tr = community_frame(spec.seed, c)
        inv = tr.inverse()
        cams = community_cams[c]
        tracks = member_tracks[c]
        pts_local = inv.apply(world.points[tracks])
        centers_local = inv.apply(world.camera_centers[cams])
        # world-to-camera in the local frame: fold the local->global rotation in
        rot_local = quat_canonical(quat_multiply(world.camera_rotations[cams], tr.q))

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
    return FractureResult(reconstructions=tuple(recs), outlier_tracks=outlier_tracks)


def world_to_json(world: GroundTruthWorld) -> dict:
    return {
        "spec": world.spec.to_json(),
        "cameras": cameras_to_json(
            np.arange(world.camera_centers.shape[0]), world.camera_rotations, world.camera_centers
        ),
        **points_to_json(world.track_ids, world.points),
        "labels": as_column(world.labels, np.int64),
        "planted": [tr.to_json() for tr in world.planted_transforms],
    }


def save_world(world: GroundTruthWorld, path) -> None:
    write_json(path, world_to_json(world))


def write_world_files(world: GroundTruthWorld, out_dir) -> None:
    """Write a world's ``world.json``, ``eg.json`` and ``truth-labels.json``."""
    out = Path(out_dir)
    save_world(world, out / "world.json")
    save_graph(world.graph, out / "eg.json")
    write_json(out / "truth-labels.json", {"labels": as_column(world.labels, np.int64)})


def read_world(path) -> dict:
    """Parse a world file into every :class:`GroundTruthWorld` field except
    ``graph`` and ``visible``, deriving nothing from the stored geometry."""
    with parsing(path, "world file") as obj:
        spec = WorldSpec(**obj["spec"])
        _, rotations, centers = cameras_from_json(obj["cameras"], "world file")
        tracks, points = points_from_json(obj, "world file")
        labels = column(obj["labels"], "world file labels", np.int64)
        if labels.shape[0] != centers.shape[0]:
            raise ValidationError("world file labels do not cover the cameras")
        if (centers.shape[0], points.shape[0]) != (spec.camera_count, spec.point_count):
            raise ValidationError("world file camera and point counts differ from its spec")
        return dict(
            spec=spec,
            camera_centers=centers,
            camera_rotations=rotations,
            track_ids=tracks,
            points=points,
            labels=labels,
            planted_transforms=tuple(Sim3.from_json(r) for r in obj["planted"]),
        )


def load_world(path) -> GroundTruthWorld:
    """Rebuild a world from its file; the visibility incidence and the match
    graph are re-derived from the stored geometry with the spec's rule."""
    f = read_world(path)
    visible = visibility(f["camera_centers"], f["points"], f["spec"].visibility_radius)
    graph = _match_graph(f["spec"], f["camera_centers"], visible)
    return GroundTruthWorld(**f, graph=graph, visible=visible)
