import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from csfm.averaging import average_similarities
from csfm.community import Partition, best_partition, recursive_partition
from csfm.errors import ValidationError
from csfm.jsonio import write_json
from csfm.measurements import MeasurementGraph
from csfm.merging import evaluate_against_truth, merge_reconstructions
from csfm.pipeline import measure_pairs
from csfm.reconstruction import covisible
from csfm.sim3 import Sim3
from csfm.synth import (
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

from helpers import dense_visibility

STRONG = dict(
    camera_count=120,
    point_count=3000,
    cluster_count=3,
    cluster_spread=2.0,
    cluster_separation=20.0,
    visibility_radius=9.0,
    min_shared_tracks=15,
)


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
        graph = _match_graph(spec, visibility(centers, points, spec.visibility_radius))
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
        # the n_cam x n_cam count matrix bounds the camera count the same way
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
        got = visibility(center, points, 5.0).toarray()
        assert got.tolist() == [[True] * 4 + [False] * 4]

    def test_matches_dense_rule_on_random_worlds(self):
        # up to four camera chunks of the k-d tree query
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
            got = visibility(centers, points, radius)
            assert got.shape == (n_cam, n_pts)
            assert got.indices.dtype == np.int32 and got.indptr.dtype == np.int32
            assert got.has_canonical_format
            assert np.array_equal(got.toarray(), dense_visibility(centers, points, radius))

    def test_match_counts_match_int64_product_across_point_blocks(self):
        # several point blocks of the float32 product, the last one partial,
        # and several camera chunks of the visibility query
        rng = np.random.default_rng(21)
        for n_cam, n_pts, min_shared in [(1, 2 * _POINT_BLOCK, 1), (37, 3 * _POINT_BLOCK + 5, 1),
                                         (3 * _CAMERA_CHUNK + 2, 5 * _POINT_BLOCK // 2, 40)]:
            centers = rng.uniform(-4.0, 4.0, size=(n_cam, 3))
            points = rng.uniform(-6.0, 6.0, size=(n_pts, 3))
            visible = visibility(centers, points, 3.0)
            graph = _match_graph(WorldSpec(min_shared_tracks=min_shared), visible)
            dense = dense_visibility(centers, points, 3.0).astype(np.int64)
            co = dense @ dense.T
            iu, ju = np.triu_indices(n_cam, k=1)
            strong = co[iu, ju] >= min_shared
            assert 0 < strong.sum() < iu.size or n_cam == 1
            assert np.array_equal(graph.edges, np.column_stack([iu[strong], ju[strong]]))
            assert np.array_equal(graph.weights, co[iu, ju][strong])

    def test_world_incidence_and_match_counts_match_dense_rule(self):
        # the stored incidence and the float32 co-visibility counts against
        # the dense rule and an exact int64 product, over more than one block
        assert STRONG["point_count"] > _POINT_BLOCK
        for seed in range(3):
            spec = WorldSpec(seed=seed, **STRONG)
            world = generate_world(spec)
            assert world.visible.indices.dtype == np.int32
            dense = dense_visibility(world.camera_centers, world.points, spec.visibility_radius)
            assert np.array_equal(world.visible.toarray(), dense)
            co = dense.astype(np.int64) @ dense.T.astype(np.int64)
            iu, ju = np.triu_indices(spec.camera_count, k=1)
            strong = co[iu, ju] >= spec.min_shared_tracks
            assert np.array_equal(world.graph.edges, np.column_stack([iu[strong], ju[strong]]))
            assert np.array_equal(world.graph.weights, co[iu, ju][strong])


class TestFracture:
    def test_identity_transforms_give_world_slices(self):
        world = generate_world(WorldSpec(seed=3, **STRONG))
        part = planted_partition(world)
        fr = fracture(world, part, transforms=[Sim3()] * 3)
        for rec in fr.reconstructions:
            cams = np.flatnonzero(part.assignment == rec.community_id)
            assert np.array_equal(rec.camera_ids, cams)
            assert np.allclose(rec.camera_centers, world.camera_centers[cams], atol=0)
            assert np.allclose(rec.points, world.points[rec.track_ids], atol=0)

    def test_planted_scale_halves_distances(self):
        # a community planted at scale 2 stores its local geometry at half
        # the global size (local = inverse transform of world)
        world = generate_world(WorldSpec(seed=4, **STRONG))
        part = planted_partition(world)
        tr = [Sim3(s=2.0), Sim3(), Sim3()]
        fr = fracture(world, part, transforms=tr)
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
                got = len(covisible(fr.reconstructions[a], fr.reconstructions[b]))
                assert got == expected


def test_end_to_end_identity_round_trip():
    # fracture with identity frames and zero noise, then run the full
    # in-memory chain; the world must come back exactly (post-alignment)
    world = generate_world(WorldSpec(seed=9, **STRONG))
    part = recursive_partition(world.graph)
    fr = fracture(world, part, transforms=[Sim3()] * part.community_count)
    recs = list(fr.reconstructions)
    pairs = [
        (a.community_id, b.community_id)
        for i, a in enumerate(recs)
        for b in recs[i + 1 :]
        if len(covisible(a, b)) >= 3
    ]
    meas = measure_pairs(recs, pairs, seed=0)
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
    assert np.array_equal(back.visible.toarray(), world.visible.toarray())
    assert back.spec == world.spec


def test_world_file_counts_must_match_its_spec(tmp_path):
    world = generate_world(WorldSpec(seed=10, **STRONG))
    obj = world_to_json(world)
    obj["tracks"], obj["points"] = obj["tracks"][:-1], obj["points"][:-1]
    write_json(tmp_path / "world.json", obj)
    with pytest.raises(ValidationError, match="point counts differ"):
        load_world(tmp_path / "world.json")


def test_dense_points_world_memory_rise_is_bounded():
    # generate_world on the perfbench dense-points spec, in a fresh process:
    # the rise of its peak resident set over the import.  Measured at 21-23
    # MiB on a 2-core Intel Xeon with numpy 2.4 and scipy 1.17 (86 MiB when
    # every candidate pair was held at once with int64 incidence indices),
    # so the bound leaves a margin of about half the measured rise.
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
    assert rise_mb < 35.0, rise_mb
