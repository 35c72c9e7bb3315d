import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csfm import synth
from csfm.averaging import average_similarities
from csfm.community import Partition, best_partition, recursive_partition
from csfm.errors import ValidationError
from csfm.graph import EpipolarGraph, save_graph
from csfm.jsonio import write_json
from csfm.measurements import MIN_COVISIBLE, MeasurementGraph
from csfm.merging import evaluate_against_truth, merge_reconstructions
from csfm.pipeline import PipelineConfig, measure_pairs, run_pipeline
from csfm.reconstruction import covisible_pairs, shared_tracks
from csfm.sim3 import Sim3
from csfm.synth import (
    _CAMERA_BLOCK,
    _CAMERA_CHUNK,
    _POINT_BLOCK,
    _STREAM_WORLD,
    WorldSpec,
    _check_planted_structure,
    _draw_geometry,
    _match_graph,
    fracture,
    generate_world,
    load_world,
    save_world,
    visibility,
    world_to_json,
)

from helpers import dense_visibility, incidence_array, kdtree_match_graph, kdtree_visibility

STRONG = dict(
    camera_count=120,
    point_count=3000,
    cluster_count=3,
    cluster_spread=2.0,
    cluster_separation=20.0,
    visibility_radius=9.0,
    min_shared_tracks=15,
)


@pytest.fixture
def counted(monkeypatch):
    """The ``(a, b)`` camera-block pairs whose counts ``_match_graph`` takes."""
    pairs = []
    block_counts = synth._block_counts

    def record(visible, a, b):
        pairs.append((a, b))
        return block_counts(visible, a, b)

    monkeypatch.setattr(synth, "_block_counts", record)
    return pairs


def planted_partition(world):
    return Partition(assignment=world.labels, community_count=int(world.labels.max()) + 1)


class TestGenerateWorld:
    def test_single_cluster_has_no_structure(self):
        spec = WorldSpec(camera_count=40, point_count=800, cluster_count=1, seed=0)
        world = generate_world(spec)
        _, _, significant = best_partition(world.graph)
        assert not significant

    def test_planted_labels_recovered(self):
        # oracle: the generator's own labels
        world = generate_world(WorldSpec(seed=1, **STRONG))
        part = recursive_partition(world.graph)
        assert part.community_count == 3
        mapping = {}
        for cam, lbl in enumerate(world.labels):
            c = int(part.assignment[cam])
            assert mapping.setdefault(c, int(lbl)) == int(lbl)

    def test_same_seed_bit_identical(self):
        a = generate_world(WorldSpec(seed=7, **STRONG))
        b = generate_world(WorldSpec(seed=7, **STRONG))
        assert np.array_equal(a.camera_centers, b.camera_centers)
        assert np.array_equal(a.camera_rotations, b.camera_rotations)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.graph.edges, b.graph.edges)
        for ta, tb in zip(a.planted_transforms, b.planted_transforms):
            assert ta.s == tb.s
            assert np.array_equal(ta.q, tb.q)
            assert np.array_equal(ta.t, tb.t)

    def test_disconnected_world_reported(self):
        spec = WorldSpec(
            camera_count=40,
            point_count=800,
            cluster_count=3,
            cluster_spread=1.0,
            cluster_separation=50.0,
            visibility_radius=3.0,
            seed=2,
        )
        with pytest.raises(ValidationError, match="disconnected"):
            generate_world(spec)

    def test_disconnected_draw_is_redrawn_from_a_sub_stream(self):
        # the perfbench dense-points spec at world seed 1021: the plain world
        # stream gives a disconnected community graph, the first redraw not
        spec = WorldSpec(camera_count=180, point_count=27000, cluster_count=4,
                         cluster_spread=1.5, noise_sigma=1e-3, seed=1021)

        def draw(*stream):
            labels, centers, _, points = _draw_geometry(
                spec, np.random.default_rng(np.random.SeedSequence(stream))
            )
            return labels, centers, points

        labels, centers, points = draw(spec.seed, _STREAM_WORLD)
        graph = _match_graph(spec, centers, visibility(centers, points, spec.visibility_radius))
        with pytest.raises(ValidationError, match="community graph is disconnected"):
            _check_planted_structure(graph, labels, spec.cluster_count)
        world = generate_world(spec)
        _, centers, points = draw(spec.seed, _STREAM_WORLD, 1)
        assert np.array_equal(world.camera_centers, centers)
        assert np.array_equal(world.points, points)

    def test_first_draw_uses_the_plain_world_stream(self):
        spec = WorldSpec(seed=7, **STRONG)
        world = generate_world(spec)
        labels, centers, rotations, points = _draw_geometry(
            spec, np.random.default_rng(np.random.SeedSequence([spec.seed, _STREAM_WORLD]))
        )
        assert np.array_equal(world.labels, labels)
        assert np.array_equal(world.camera_centers, centers)
        assert np.array_equal(world.camera_rotations, rotations)
        assert np.array_equal(world.points, points)

    def test_bad_specs_rejected(self):
        with pytest.raises(ValidationError):
            WorldSpec(outlier_fraction=0.6)
        with pytest.raises(ValidationError):
            WorldSpec(camera_count=0)
        with pytest.raises(ValidationError):
            WorldSpec(noise_sigma=-1.0)
        # every planted cluster needs a camera
        with pytest.raises(ValidationError, match="cluster count"):
            WorldSpec(camera_count=3, cluster_count=4)
        assert WorldSpec(camera_count=4, cluster_count=4).cluster_count == 4
        # float32 co-visibility counts are exact only below 2**24
        with pytest.raises(ValidationError, match="2\\*\\*24"):
            WorldSpec(point_count=2**24)
        assert WorldSpec(point_count=2**24 - 1).point_count == 2**24 - 1
        # and the camera count is held to the same bound
        with pytest.raises(ValidationError, match="camera count must be below 2\\*\\*24"):
            WorldSpec(camera_count=2**24)
        with pytest.raises(ValidationError, match="camera count must be below 2\\*\\*24"):
            WorldSpec(camera_count=2**62, point_count=600, cluster_count=3)
        assert WorldSpec(camera_count=2**24 - 1).camera_count == 2**24 - 1

    @pytest.mark.parametrize("seed, match", [(-1, "non-negative"), (-(2**63), "non-negative"),
                                             (2**63, "out of range")])
    def test_seed_outside_seed_sequence_range_rejected(self, seed, match):
        with pytest.raises(ValidationError, match=match):
            WorldSpec(seed=seed)
        assert WorldSpec(seed=2**63 - 1).seed == 2**63 - 1

    @pytest.mark.parametrize(
        "field, value",
        [
            ("camera_count", 100.5),
            ("point_count", 3000.0),
            ("camera_count", True),
            ("cluster_count", "4"),
            ("min_shared_tracks", None),
            ("seed", 1.0),
            ("visibility_radius", float("nan")),
            ("noise_sigma", float("inf")),
            ("cluster_separation", "20"),
            ("outlier_fraction", False),
        ],
    )
    def test_spec_field_types_and_finiteness_checked(self, field, value):
        with pytest.raises(ValidationError, match=field):
            WorldSpec(**{field: value})

    def test_integer_valued_spec_lengths_accepted(self):
        spec = WorldSpec(visibility_radius=9, noise_sigma=0, cluster_spread=2)
        assert (spec.visibility_radius, spec.noise_sigma, spec.cluster_spread) == (9, 0, 2)


# every (3, 4, 0) or (0, 0, 5) offset, permuted and signed: length 5 exactly
BOUNDARY_OFFSETS = np.unique(
    [np.multiply(perm, signs) for base in ((3, 4, 0), (0, 0, 5))
     for perm in itertools.permutations(base) for signs in itertools.product((-1, 1), repeat=3)],
    axis=0,
).astype(float)


@settings(max_examples=80)
@given(
    n_cam=st.integers(1, 2 * _CAMERA_BLOCK + 5),
    n_pts=st.integers(0, 300),
    layout=st.sampled_from(["spread", "two-clusters", "duplicates"]),
    blind_share=st.sampled_from([0.0, 0.3, 1.0]),
    scale_exp=st.integers(-3, 2),
    which_chunk=st.integers(0, (2 * _CAMERA_BLOCK + 5) // _CAMERA_CHUNK),
    seed=st.integers(0, 2**32 - 1),
)
# one camera; a chunk straddling two clusters 2000 units apart, with a partial
# last chunk; duplicate cameras and blind ones; no camera sees a scene point;
# three camera blocks, the last one partial, and a chunk of the second
@example(n_cam=1, n_pts=50, layout="spread", blind_share=0.0, scale_exp=0, which_chunk=0, seed=0)
@example(n_cam=2 * _CAMERA_BLOCK + 5, n_pts=300, layout="two-clusters", blind_share=0.3,
         scale_exp=0, which_chunk=_CAMERA_BLOCK // _CAMERA_CHUNK + 1, seed=4)
@example(n_cam=2 * _CAMERA_CHUNK + 3, n_pts=200, layout="two-clusters", blind_share=0.0,
         scale_exp=1, which_chunk=2, seed=1)
@example(n_cam=_CAMERA_CHUNK + 1, n_pts=120, layout="duplicates", blind_share=0.3, scale_exp=-1,
         which_chunk=1, seed=2)
@example(n_cam=_CAMERA_CHUNK, n_pts=80, layout="spread", blind_share=1.0, scale_exp=0,
         which_chunk=0, seed=3)
def test_visibility_matches_the_dense_rule(n_cam, n_pts, layout, blind_share, scale_exp,
                                           which_chunk, seed):
    rng = np.random.default_rng(seed)
    radius = 5.0 * 2.0**scale_exp
    if layout == "two-clusters":  # alternating, so every chunk straddles both
        centers = rng.uniform(-2.0, 2.0, size=(n_cam, 3)) * radius
        centers[1::2, 0] += 2000.0
    elif layout == "duplicates":  # a few distinct centers, each repeated
        centers = (rng.uniform(-2.0, 2.0, size=(3, 3)) * radius)[rng.integers(0, 3, size=n_cam)]
    else:
        centers = rng.uniform(-3.0, 3.0, size=(n_cam, 3)) * radius
    # on a grid of 1/8, so that the boundary offsets below add and subtract exactly
    centers = np.round(centers * 8.0) / 8.0
    blind = rng.random(n_cam) < blind_share
    centers[blind, 2] += 1e4  # far above every scene point
    owners = centers[~blind] if not blind.all() else np.zeros((1, 3))
    points = owners[rng.integers(0, owners.shape[0], size=n_pts)]
    points = points + rng.uniform(-1.5, 1.5, size=(n_pts, 3)) * radius
    # a point at exactly radius from the camera of a chunk farthest from the
    # chunk's midpoint, as far from that midpoint as the offsets allow, and
    # that point one ulp further out along the offset's largest axis; the
    # coordinate moved is no smaller than the offset, so its ulp counts
    start = which_chunk % -(-n_cam // _CAMERA_CHUNK) * _CAMERA_CHUNK
    chunk = centers[start : start + _CAMERA_CHUNK]
    mid = 0.5 * (chunk.min(axis=0) + chunk.max(axis=0))
    far = start + int(np.argmax(np.sum((chunk - mid) ** 2, axis=1)))
    offsets = BOUNDARY_OFFSETS * (radius / 5.0)
    axes = np.argmax(np.abs(offsets), axis=1)
    outward = offsets[np.arange(axes.size), axes] * centers[far, axes] >= 0
    reach = np.where(outward, np.sum((centers[far] + offsets - mid) ** 2, axis=1), -1.0)
    offset, axis = offsets[np.argmax(reach)], axes[np.argmax(reach)]
    edge = centers[far] + offset
    beyond = edge.copy()
    beyond[axis] = np.nextafter(beyond[axis], np.sign(offset[axis]) * np.inf)
    assert np.sum((edge - centers[far]) ** 2) == radius**2
    points = np.vstack([points, edge, beyond])

    want = dense_visibility(centers, points, radius)
    assert want[far, -2] and not want[far, -1]
    assert not want[blind, :n_pts].any()
    got = incidence_array(visibility(centers, points, radius), n_pts + 2)
    assert np.array_equal(got, want)
    assert np.array_equal(got, kdtree_visibility(centers, points, radius).toarray())


class TestVisibility:
    def test_boundary_kept_and_one_ulp_beyond_dropped(self):
        # squared distances of exactly r**2 (3-4-0 and axis offsets), then the
        # same offsets pushed out by one ulp of their largest coordinate
        center = np.array([[1.5, -2.25, 0.5]])
        offsets = np.array([[3.0, 4.0, 0.0], [0.0, 0.0, -5.0], [-5.0, 0.0, 0.0], [0.0, -4.0, 3.0]])
        beyond = offsets.copy()
        big = np.argmax(np.abs(beyond), axis=1)
        rows = np.arange(4)
        beyond[rows, big] = np.nextafter(beyond[rows, big], np.sign(beyond[rows, big]) * np.inf)
        points = center + np.vstack([offsets, beyond])
        assert np.all(np.sum((center - points[:4]) ** 2, axis=1) == 25.0)
        assert np.all(np.sum((center - points[4:]) ** 2, axis=1) > 25.0)
        got = incidence_array(visibility(center, points, 5.0), 8)
        assert got.tolist() == [[True] * 4 + [False] * 4]
        assert kdtree_visibility(center, points, 5.0).toarray().tolist() == got.tolist()

    def test_points_at_radius_beyond_each_face_of_the_chunk_box(self):
        # the slab and box margins: past the chunk's extreme camera on each
        # axis and side, a point exactly radius out is seen and the same point
        # one ulp further out is not; centers on a grid of 1/8 keep it exact,
        # and every coordinate is at least the radius, so its ulp counts
        rng = np.random.default_rng(24)
        centers = 20.0 + np.round(rng.uniform(-6.0, 6.0, size=(2 * _CAMERA_CHUNK, 3)) * 8.0) / 8.0
        points, owners = [rng.uniform(11.0, 29.0, size=(300, 3))], []
        for start in (0, _CAMERA_CHUNK):
            chunk = centers[start : start + _CAMERA_CHUNK]
            for axis in range(3):
                for side, pick in ((1.0, np.argmax), (-1.0, np.argmin)):
                    cam = start + int(pick(chunk[:, axis]))
                    edge = centers[cam].copy()
                    edge[axis] += side * 5.0
                    beyond = edge.copy()
                    beyond[axis] = np.nextafter(beyond[axis], side * np.inf)
                    points.append(np.vstack([edge, beyond]))
                    owners.append(cam)
        points = np.vstack(points)
        got = incidence_array(visibility(centers, points, 5.0), points.shape[0])
        assert np.array_equal(got, dense_visibility(centers, points, 5.0))
        assert np.array_equal(got, kdtree_visibility(centers, points, 5.0).toarray())
        for k, cam in enumerate(owners):
            assert got[cam, 300 + 2 * k] and not got[cam, 301 + 2 * k]

    def test_matches_dense_rule_on_random_worlds(self):
        # up to four camera chunks of the candidate search
        rng = np.random.default_rng(20)
        for _ in range(40):
            n_cam, n_pts = int(rng.integers(1, 4 * _CAMERA_CHUNK)), int(rng.integers(1, 400))
            radius = float(rng.uniform(0.5, 6.0))
            centers = rng.uniform(-5.0, 5.0, size=(n_cam, 3))
            points = rng.uniform(-8.0, 8.0, size=(n_pts, 3))
            # half the points on the sphere around a random camera, give or
            # take a few ulps, where rounding decides the rule
            near = rng.random(n_pts) < 0.5
            u = rng.normal(size=(n_pts, 3))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            owner = rng.integers(0, n_cam, size=n_pts)
            shell = radius * (1.0 + rng.integers(-4, 5, size=(n_pts, 1)) * np.finfo(float).eps)
            points[near] = (centers[owner] + shell * u)[near]
            dense = incidence_array(visibility(centers, points, radius), n_pts)
            assert np.array_equal(dense, dense_visibility(centers, points, radius))
            assert np.array_equal(dense, kdtree_visibility(centers, points, radius).toarray())

    def test_match_counts_match_int64_product_across_point_blocks(self, monkeypatch, counted):
        # several point blocks of the float32 product, the last one partial,
        # and several camera chunks of the visibility query; then again over
        # several camera blocks, with two groups of cameras too far apart to
        # share a point, so that the bounding-box test must drop their block pairs
        rng = np.random.default_rng(21)
        cases = [(1, 2 * _POINT_BLOCK, 1, False), (37, 3 * _POINT_BLOCK + 5, 1, False),
                 (3 * _CAMERA_CHUNK + 2, 5 * _POINT_BLOCK // 2, 40, False),
                 (45, 2 * _POINT_BLOCK + 9, 1, True)]
        for camera_block in (_CAMERA_BLOCK, 8):
            monkeypatch.setattr(synth, "_CAMERA_BLOCK", camera_block)
            for n_cam, n_pts, min_shared, far in cases:
                centers = rng.uniform(-4.0, 4.0, size=(n_cam, 3))
                points = rng.uniform(-6.0, 6.0, size=(n_pts, 3))
                if far:  # the second half of the cameras and points 100 units off
                    centers[n_cam // 2 :, 0] += 100.0
                    points[n_pts // 2 :, 0] += 100.0
                visible = visibility(centers, points, 3.0)
                assert np.array_equal(incidence_array(visible, n_pts),
                                      dense_visibility(centers, points, 3.0))
                counted.clear()
                spec = WorldSpec(min_shared_tracks=min_shared, visibility_radius=3.0)
                graph = _match_graph(spec, centers, visible)
                dense = dense_visibility(centers, points, 3.0).astype(np.int64)
                co = dense @ dense.T
                iu, ju = np.triu_indices(n_cam, k=1)
                strong = co[iu, ju] >= min_shared
                assert 0 < strong.sum() < iu.size or n_cam == 1
                assert np.array_equal(graph.edges, np.column_stack([iu[strong], ju[strong]]))
                assert np.array_equal(graph.weights, co[iu, ju][strong])
                n_blocks = -(-n_cam // camera_block)
                if far and n_blocks > 1:
                    first, last = 0, n_blocks - 1  # blocks wholly in one group each
                    assert (first, last) not in counted
                    assert (first, first) in counted and (last, last) in counted
                elif n_cam > 1:
                    assert len(counted) == n_blocks * (n_blocks + 1) // 2

    def test_cameras_two_radii_apart_share_their_midpoint(self, monkeypatch):
        # the boundary of the block-pair filter: two cameras in
        # two blocks, exactly 2 * radius apart, both seeing the point between
        monkeypatch.setattr(synth, "_CAMERA_BLOCK", 1)
        centers = np.array([[0.5, -1.25, 2.0], [6.5, -1.25, 2.0]])
        points = np.array([[3.5, -1.25, 2.0]])
        visible = visibility(centers, points, 3.0)
        assert incidence_array(visible, 1).tolist() == [[True], [True]]
        graph = _match_graph(WorldSpec(min_shared_tracks=1, visibility_radius=3.0), centers, visible)
        assert graph.edges.tolist() == [[0, 1]] and graph.weights.tolist() == [1]

    def test_match_graph_is_exact_on_cameras_out_of_cluster_order(self, counted):
        # a world's cameras in a random order, so that no camera block is
        # spatially compact and the bounding-box test drops no block pair:
        # the incidence and the match graph are still the dense rule's, and
        # the world's own graph relabelled
        spec = WorldSpec(**PERFBENCH_SPECS["staged-cli"], seed=3)
        world = generate_world(spec)
        perm = np.random.default_rng(3).permutation(spec.camera_count)
        centers = world.camera_centers[perm]
        visible = visibility(centers, world.points, spec.visibility_radius)
        counted.clear()
        graph = _match_graph(spec, centers, visible)
        n_blocks = len(visible.bits)
        assert n_blocks > 1 and len(counted) == n_blocks * (n_blocks + 1) // 2
        dense = dense_visibility(centers, world.points, spec.visibility_radius)
        assert np.array_equal(incidence_array(visible, spec.point_count), dense)
        co = dense.astype(np.int64) @ dense.T.astype(np.int64)
        iu, ju = np.triu_indices(spec.camera_count, k=1)
        strong = co[iu, ju] >= spec.min_shared_tracks
        assert np.array_equal(graph.edges, np.column_stack([iu[strong], ju[strong]]))
        assert np.array_equal(graph.weights, co[iu, ju][strong])
        # the same edges as the world's, camera i of the world being camera
        # rank[i] here
        rank = np.argsort(perm)
        ends = np.sort(rank[world.graph.edges], axis=1)
        order = np.lexsort((ends[:, 1], ends[:, 0]))
        assert np.array_equal(ends[order], graph.edges)
        assert np.array_equal(world.graph.weights[order], graph.weights)

    def test_match_graph_multiplies_only_block_pairs_that_share_points(self, counted):
        # the float32 multiply-adds of the block products on the staged-cli
        # world at seed 0, a half per diagonal pair (syrk), over unpacked
        # padded columns on the diagonal and shared columns off it:
        # 41,338,880, 5.2% of the 800,000,000 that one block of every camera
        # over every point takes
        spec = WorldSpec(**PERFBENCH_SPECS["staged-cli"], seed=0)
        visible = generate_world(spec).visible
        madds = 0
        for a, b in counted:
            x, y = visible.bits[a], visible.bits[b]
            if a == b:
                madds += x.shape[0] ** 2 * 8 * x.shape[1] // 2
            else:
                shared = np.intersect1d(visible.columns[a], visible.columns[b]).size
                madds += x.shape[0] * y.shape[0] * shared
        assert 0 < madds <= spec.camera_count**2 * spec.point_count // 2 // 10

    def test_world_incidence_and_match_counts_match_dense_rule(self):
        # the stored incidence and the float32 co-visibility counts against
        # the dense rule and an exact int64 product, over more than one block
        assert STRONG["point_count"] > _POINT_BLOCK
        for seed in range(3):
            spec = WorldSpec(seed=seed, **STRONG)
            world = generate_world(spec)
            # every packed block: int32 columns, a row of ceil(columns / 8) bytes per camera
            bounds = world.visible.bounds
            assert len(bounds) - 1 == -(-spec.camera_count // _CAMERA_BLOCK)
            for columns, bits, start, stop in zip(*world.visible, bounds[:-1], bounds[1:]):
                assert columns.dtype == np.int32 and bits.dtype == np.uint8
                assert bits.shape == (stop - start, -(-columns.size // 8))
            dense = dense_visibility(world.camera_centers, world.points, spec.visibility_radius)
            assert np.array_equal(incidence_array(world.visible, spec.point_count), dense)
            co = dense.astype(np.int64) @ dense.T.astype(np.int64)
            iu, ju = np.triu_indices(spec.camera_count, k=1)
            strong = co[iu, ju] >= spec.min_shared_tracks
            assert np.array_equal(world.graph.edges, np.column_stack([iu[strong], ju[strong]]))
            assert np.array_equal(world.graph.weights, co[iu, ju][strong])


class TestFracture:
    def test_identity_transforms_give_world_slices(self, monkeypatch):
        world = generate_world(WorldSpec(seed=3, **STRONG))
        part = planted_partition(world)
        monkeypatch.setattr(synth, "community_frame", lambda seed, c: Sim3())
        fr = fracture(world, part)
        for rec in fr.reconstructions:
            cams = np.flatnonzero(part.assignment == rec.community_id)
            assert np.array_equal(rec.camera_ids, cams)
            assert np.allclose(rec.camera_centers, world.camera_centers[cams], atol=0)
            assert np.allclose(rec.points, world.points[rec.track_ids], atol=0)

    def test_planted_scale_halves_distances(self, monkeypatch):
        # a community planted at scale 2 stores its local geometry at half
        # the global size (local = inverse transform of world)
        world = generate_world(WorldSpec(seed=4, **STRONG))
        part = planted_partition(world)
        monkeypatch.setattr(
            synth, "community_frame", lambda seed, c: Sim3(s=2.0) if c == 0 else Sim3()
        )
        fr = fracture(world, part)
        rec = fr.reconstructions[0]
        a, b = rec.points[0], rec.points[1]
        wa, wb = world.points[rec.track_ids[0]], world.points[rec.track_ids[1]]
        ratio = np.linalg.norm(a - b) / np.linalg.norm(wa - wb)
        assert ratio == pytest.approx(0.5, rel=1e-9)

    def test_outlier_bookkeeping(self):
        spec = WorldSpec(seed=5, outlier_fraction=0.2, **STRONG)
        world = generate_world(spec)
        part = planted_partition(world)
        fr = fracture(world, part)
        clean = fracture(world, part)  # same seed: same corruption
        for c, rec in enumerate(fr.reconstructions):
            shared = [
                t
                for t in rec.track_ids
                if any(
                    t in other.track_ids
                    for other in fr.reconstructions
                    if other.community_id != c
                )
            ]
            expected = int(0.2 * len(shared))
            assert len(fr.outlier_tracks[c]) == expected
            assert fr.outlier_tracks[c] == clean.outlier_tracks[c]
            # corrupted ids are a subset of that community's shared tracks
            assert set(fr.outlier_tracks[c]) <= set(shared)

    def test_determinism(self):
        spec = WorldSpec(seed=6, noise_sigma=1e-3, outlier_fraction=0.1, **STRONG)
        world = generate_world(spec)
        part = planted_partition(world)
        a = fracture(world, part)
        b = fracture(world, part)
        for ra, rb in zip(a.reconstructions, b.reconstructions):
            assert np.array_equal(ra.points, rb.points)
            assert np.array_equal(ra.camera_centers, rb.camera_centers)


class TestCovisibleCounts:
    def test_planted_shared_track_count(self):
        # oracle: generator bookkeeping; co-visible = tracks reconstructed
        # (seen by >= 2 member cameras) on both sides
        spec = WorldSpec(seed=8, **STRONG)
        world = generate_world(spec)
        part = planted_partition(world)
        fr = fracture(world, part)
        visible = dense_visibility(world.camera_centers, world.points, spec.visibility_radius)
        for a in range(3):
            for b in range(a + 1, 3):
                seen_a = visible[np.flatnonzero(part.assignment == a)].sum(axis=0) >= 2
                seen_b = visible[np.flatnonzero(part.assignment == b)].sum(axis=0) >= 2
                expected = int(np.sum(seen_a & seen_b))
                got = shared_tracks(fr.reconstructions[a], fr.reconstructions[b])[0].size
                assert got == expected


def test_end_to_end_identity_round_trip(monkeypatch):
    # fracture with identity frames and zero noise, then run the full
    # in-memory chain; the world must come back exactly (post-alignment)
    world = generate_world(WorldSpec(seed=9, **STRONG))
    part = recursive_partition(world.graph)
    monkeypatch.setattr(synth, "community_frame", lambda seed, c: Sim3())
    fr = fracture(world, part)
    recs = list(fr.reconstructions)
    meas = measure_pairs(covisible_pairs(recs, MIN_COVISIBLE), seed=0)
    mg = MeasurementGraph.from_rows(len(recs), meas)
    transforms, _ = average_similarities({r.community_id: r for r in recs}, mg)
    model = merge_reconstructions(recs, transforms)
    metrics = evaluate_against_truth(model, world.truth_reconstruction())
    assert metrics["median_center_error"] < 1e-8
    assert metrics["rmse_center_error"] < 1e-8


def test_world_json_round_trip(tmp_path):
    world = generate_world(WorldSpec(seed=10, **STRONG))
    save_world(world, tmp_path / "world.json")
    back = load_world(tmp_path / "world.json")
    assert np.array_equal(back.camera_centers, world.camera_centers)
    assert np.array_equal(back.points, world.points)
    assert np.array_equal(back.labels, world.labels)
    assert np.array_equal(back.graph.edges, world.graph.edges)
    assert np.array_equal(back.graph.weights, world.graph.weights)
    for got, want in zip(back.visible, world.visible, strict=True):
        assert len(got) == len(want) and all(map(np.array_equal, got, want))
    assert back.spec == world.spec


# the specs of perfbench's three workloads (perfbench/run.py WORKLOADS)
PERFBENCH_SPECS = {
    "large-graph": dict(camera_count=450, point_count=6000, cluster_count=6, noise_sigma=1e-3),
    "dense-points": dict(camera_count=180, point_count=27000, cluster_count=4, cluster_spread=1.5,
                         noise_sigma=1e-3),
    "staged-cli": dict(camera_count=400, point_count=10000, cluster_count=16, noise_sigma=1e-3,
                       outlier_fraction=0.2),
}
# sha256 of each spec's eg.json at seeds 0-2, written by an earlier,
# independent implementation (a pair query per camera chunk and one
# n_cam x n_cam product); the file holds only integers, so the pin does not
# hang on float formatting
PINNED_MATCH_GRAPHS = {
    ("large-graph", 0): "81c4ecc6a884c4438b9922997259a976c93b69904159e7cab2cb88606a015fa8",
    ("large-graph", 1): "8368ab3fe0cb2dcac77cd029a298894ad61f0d04806ffe5354d271df35868e3b",
    ("large-graph", 2): "ef650bfef6ce0e8b184010a23850b50401a3602a0eed05a41bc9c5c90fc1492f",
    ("dense-points", 0): "1a402be4e26179803764137efc6f804be8af4dd09de851d098fddb74049d6852",
    ("dense-points", 1): "7d87c1ca736b49c1046718a7141490d666d5797ba2aa8697f8aeff76ddb2ba91",
    ("dense-points", 2): "73358bac765c736b0f0db6f2f92b286b629c9b6fd4c0157da5553b4d0be03023",
    ("staged-cli", 0): "bce65f2efb7f1628a6d25931ffdf05523f59cbeb7dd88881f5c1f68798b1d46a",
    ("staged-cli", 1): "460e73451a5944a597bfbd046e8f8e5b72bb9057e18186ac9d2c42823fcf2d86",
    ("staged-cli", 2): "30dfa0392f95d943388b542b59e2b6c6c3bbaabc2123dec47a5b7974a3ddd1f7",
}


def test_match_graph_files_are_pinned(tmp_path):
    for (workload, seed), digest in PINNED_MATCH_GRAPHS.items():
        world = generate_world(WorldSpec(**PERFBENCH_SPECS[workload], seed=seed))
        save_graph(world.graph, tmp_path / "eg.json")
        assert hashlib.sha256((tmp_path / "eg.json").read_bytes()).hexdigest() == digest, (
            workload, seed)


# sha256 of the pairwise and averaging artifacts of run_pipeline on each
# spec at seed 0, recorded before the pairwise stage and the translation
# recompute shared one track join, and of its point-cloud artifacts, recorded
# before merged.json's community lists were formatted in one pass.  They
# match at one BLAS thread and at the default count; the refine outputs do
# not, so they are not pinned.
PINNED_PIPELINE_ARTIFACTS = {
    "large-graph": {
        "measurements.json": "a5938b8b69d208cde69fe51956d1c21f1e49302869b5a5c21c7f1ca103a72580",
        "measurements_with_t.json": "331d05cab844cdf9cdc9cf8f0520135a929eb861c619ecfc433e353a97a874c0",
        "transforms.json": "9ce9f4ea3526f25c6d833c8ee2e9e0b0fe1939de47d2c1ce801fe37ce496fa88",
        "world.json": "ef12f86dc7c1b58babd50e3b6a0732fbbaa466721acd7221d3e70903b235133a",
        "rec_0.json": "889c482c0ca3c8ec5f081c21bf275ab29bc031ac74b7321b120ee57b73d01f75",
        "merged.json": "e5a354d8ffaca3c82d6ea03190682aa66eebb44812cdf09f04f14fc31687bb29",
    },
    "dense-points": {
        "measurements.json": "8b0a1846c21b1a8fcca2365e3e570de68f2826f76b135e00e3e3e7dc72d71f9f",
        "measurements_with_t.json": "9056b55ddf8df0c4f25d5c779dbdca86608eaf5a52669f002f1f8755e9abf06d",
        "transforms.json": "6b2963af43cd6b5e844cd27a9751f7d9a8042f7ab2c175f70cc94282a1f9f2e3",
        "world.json": "dd10b9b0ad6ee4c5f775efcda7cf24806b11e1b70398da8395c34f2835c35579",
        "rec_0.json": "27d2f3976bc2876e47be34ebc74e6f22fd985e55fc9771c74da41a549181d45d",
        "merged.json": "48fb70add614b6d402e545c5ab6726b54061c94147673b15f82b977b03efe2b4",
    },
    "staged-cli": {
        "measurements.json": "7d5af9e5ac7494e145c9f7a7d225392fd4eeddc3830e03695884254f9284b1ff",
        "measurements_with_t.json": "9b04bdf02b2b54ed60931ebd958e6b23910ffee0c94ab71f0d1b75c0ab9e9295",
        "transforms.json": "812d50f8c9ca399b97b2b3127d742e5d9575eb3b21ccad8864ea225d99c33ae4",
        "world.json": "50dd2d55202e902c37ebf32c33e061fb1be2459b971e10c82d89602e5374ed35",
        "rec_0.json": "f59a766f0a1194a1837164eb4250708d38227b0f8e9bc8f17cefb6b46e5085ca",
        "merged.json": "41af5224008bb4566fb1e7fa1051d09ec0ed7d2cbf804bf38e94c01ea940cc23",
    },
}


@pytest.mark.parametrize("workload", sorted(PINNED_PIPELINE_ARTIFACTS))
def test_pairwise_and_averaging_files_are_pinned(tmp_path, workload):
    world = generate_world(WorldSpec(**PERFBENCH_SPECS[workload], seed=0))
    run_pipeline(PipelineConfig(out_dir=str(tmp_path), seed=0, world=world))
    for name, digest in PINNED_PIPELINE_ARTIFACTS[workload].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def _assert_matches_the_scipy_oracle(world, tmp_path):
    # the incidence and the eg.json bytes against the k-d tree and BLAS oracles
    spec = world.spec
    oracle = kdtree_visibility(world.camera_centers, world.points, spec.visibility_radius)
    assert np.array_equal(incidence_array(world.visible, spec.point_count), oracle.toarray())
    edges, weights = kdtree_match_graph(spec, world.camera_centers, oracle)
    save_graph(world.graph, tmp_path / "eg.json")
    save_graph(EpipolarGraph(spec.camera_count, edges, weights), tmp_path / "oracle.json")
    assert (tmp_path / "eg.json").read_bytes() == (tmp_path / "oracle.json").read_bytes()


@pytest.mark.parametrize("workload", sorted(PERFBENCH_SPECS))
def test_perfbench_worlds_match_the_scipy_oracle(tmp_path, workload):
    for seed in range(5):
        _assert_matches_the_scipy_oracle(
            generate_world(WorldSpec(**PERFBENCH_SPECS[workload], seed=seed)), tmp_path)


@pytest.fixture(scope="module")
def several_blocks_world():
    # two full camera blocks and a shorter third
    spec = WorldSpec(camera_count=5 * _CAMERA_BLOCK // 2 + 5, point_count=11000, cluster_count=8,
                     noise_sigma=1e-3, seed=4)
    assert 2 * _CAMERA_BLOCK < spec.camera_count < 3 * _CAMERA_BLOCK
    return generate_world(spec)


def test_a_world_of_several_camera_blocks_matches_the_scipy_oracle(tmp_path, several_blocks_world):
    assert len(several_blocks_world.visible.bits) == 3
    _assert_matches_the_scipy_oracle(several_blocks_world, tmp_path)


def test_fracture_counts_views_across_uneven_camera_blocks(several_blocks_world):
    # two full camera blocks and a shorter third; four runs of a quarter of
    # the cameras each, two of which straddle the two block boundaries,
    # every seventh camera forms a community that takes scattered rows of
    # all three blocks, and three pairs of neighbours are communities of
    # their own: one astride each boundary and the last two cameras.  A
    # community's tracks are those that two or more of its cameras see by
    # the dense rule.
    world = several_blocks_world
    n_cam = world.spec.camera_count
    assert world.visible.bounds == [0, _CAMERA_BLOCK, 2 * _CAMERA_BLOCK, n_cam]
    assignment = np.arange(n_cam) * 4 // n_cam
    for boundary in (_CAMERA_BLOCK, 2 * _CAMERA_BLOCK):
        assert assignment[boundary - 1] == assignment[boundary]
    assignment[3::7] = 4
    for c, first in enumerate([_CAMERA_BLOCK - 1, 2 * _CAMERA_BLOCK - 1, n_cam - 2], start=5):
        assignment[first : first + 2] = c
    fr = fracture(world, Partition(assignment=assignment, community_count=8))
    for c, rec in enumerate(fr.reconstructions):
        cams = np.flatnonzero(assignment == c)
        views = sum(
            dense_visibility(world.camera_centers[cams[s : s + 64]], world.points,
                             world.spec.visibility_radius).sum(axis=0)
            for s in range(0, cams.size, 64)
        )
        assert np.array_equal(rec.camera_ids, cams)
        assert rec.track_ids.size > 0 and np.array_equal(rec.track_ids, np.flatnonzero(views >= 2))


@pytest.mark.parametrize("seed", range(3))
def test_fracture_members_are_the_unpack_and_sum_count(several_blocks_world, seed):
    # eight communities scattered over all three blocks, one of a single
    # camera, and two of one camera on either side of a block boundary,
    # whose tracks are each seen once in two blocks: a community's tracks
    # are those its unpacked incidence rows sum to 2 or more on
    world = several_blocks_world
    n_cam = world.spec.camera_count
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, 8, size=n_cam)
    assignment[[_CAMERA_BLOCK - 1, _CAMERA_BLOCK]] = 9
    assignment[[2 * _CAMERA_BLOCK - 2, 2 * _CAMERA_BLOCK + 1]] = 10
    assignment[rng.choice(np.flatnonzero(assignment < 8))] = 8
    fr = fracture(world, Partition(assignment=assignment, community_count=11))
    dense = incidence_array(world.visible, world.points.shape[0])
    for c, rec in enumerate(fr.reconstructions):
        views = dense[assignment == c].sum(axis=0)
        assert np.array_equal(rec.track_ids, np.flatnonzero(views >= 2))
    assert fr.reconstructions[8].track_ids.size == 0
    assert fr.reconstructions[9].track_ids.size > 0 and fr.reconstructions[10].track_ids.size > 0


def test_world_file_counts_must_match_its_spec(tmp_path):
    world = generate_world(WorldSpec(seed=10, **STRONG))
    obj = world_to_json(world)
    obj["tracks"], obj["points"] = obj["tracks"][:-1], obj["points"][:-1]
    write_json(tmp_path / "world.json", obj)
    with pytest.raises(ValidationError, match="point counts differ"):
        load_world(tmp_path / "world.json")


@pytest.mark.parametrize("workload", ["dense-points", "large-graph"])
def test_perfbench_world_incidence_is_packed(workload):
    # the five worlds of one perfbench run hold their incidence in at most
    # one int32 column index per point and one bit per camera and point,
    # 3,577,500 bytes on dense-points and 1,807,500 on large-graph; a block
    # keeps only the columns its cameras see, so at seeds 0-4 they hold
    # 2,333,468 and 763,528 bytes, where int32 compressed rows took
    # 24,101,008 and 8,539,852
    spec = WorldSpec(**PERFBENCH_SPECS[workload])
    packed = sum(generate_world(WorldSpec(**PERFBENCH_SPECS[workload], seed=seed)).visible.nbytes
                 for seed in range(5))
    assert packed <= 5 * (4 * spec.point_count + spec.camera_count * -(-spec.point_count // 8))


def test_dense_points_world_memory_rise_is_bounded():
    # generate_world on the perfbench dense-points spec, in a fresh process:
    # the rise of its peak resident set over the import.  Measured at 17.0-17.1
    # MiB on a 2-core Intel Xeon with numpy 2.4 since the incidence is packed
    # per camera block (21-23 MiB with int32 compressed rows, 86 MiB when
    # every candidate pair was held at once with int64 incidence indices);
    # since csfm stopped importing scipy, the rise includes numpy.random's
    # first import, about 5 MiB.  The bound leaves a margin of about half the
    # measured rise.
    script = (
        "import resource\n"
        "from csfm.synth import WorldSpec, generate_world\n"
        "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "generate_world(WorldSpec(camera_count=180, point_count=27000, cluster_count=4,\n"
        "                         cluster_spread=1.5, noise_sigma=1e-3, seed=1))\n"
        "print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base) / 1024)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    rise_mb = float(done.stdout.split()[-1])
    assert rise_mb < 26.0, rise_mb
