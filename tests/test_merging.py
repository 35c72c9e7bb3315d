import dataclasses
import json

import numpy as np
import pytest

from csfm.averaging import average_similarities
from csfm.community import DEFAULT_MIN_COMMUNITY_SIZE, DEFAULT_Q_THRESHOLD, detect_communities
from csfm import jsonio
from csfm.errors import NumericError, ValidationError
from csfm.jsonio import write_json
from csfm.measurements import MIN_COVISIBLE, MeasurementGraph
from csfm.merging import (
    _PALETTE,
    MergedModel,
    evaluate_against_truth,
    export_ply,
    joint_refine,
    load_merged,
    merge_reconstructions,
    save_merged,
)
from csfm.pipeline import measure_pairs
from csfm.reconstruction import Reconstruction, covisible_pairs
from csfm.rotations import (
    IDENTITY_QUAT,
    geodesic_angle,
    quat_multiply,
    quat_to_matrix,
    random_quat,
)
from csfm.sim3 import Sim3
from csfm.synth import WorldSpec, fracture, generate_world

from helpers import (
    BENCH_WORLDS,
    PROVENANCE_FIELDS,
    loop_cameras,
    loop_export_ply,
    loop_joint_refine,
    loop_merge,
    provenance_arrays,
    random_sim3,
)


def rz(angle):
    return np.array([np.cos(angle / 2), 0.0, 0.0, np.sin(angle / 2)])


def one_copy_each(track_ids):
    """The provenance fields of a model whose every track has one copy, in community 0."""
    return dict(
        communities=np.zeros(len(track_ids), dtype=np.int64),
        community_bounds=np.arange(len(track_ids) + 1),
        fusion_tracks=np.empty(0, dtype=np.int64),
        fusion_spread=np.empty(0),
    )


def simple_rec(cid, cam_ids, tracks, points, rng, centers=None, rotations=None):
    n = len(cam_ids)
    return Reconstruction(
        community_id=cid,
        camera_ids=np.asarray(cam_ids),
        camera_rotations=rotations if rotations is not None else np.stack([random_quat(rng) for _ in range(n)]),
        camera_centers=centers if centers is not None else rng.normal(size=(n, 3)),
        track_ids=np.asarray(tracks),
        points=np.asarray(points, dtype=float),
    )


class TestMerge:
    def test_identity_transform_is_identity(self):
        rng = np.random.default_rng(0)
        rec = simple_rec(0, [0, 1, 2], [10, 11], rng.normal(size=(2, 3)), rng)
        model = merge_reconstructions([rec], {0: Sim3()})
        assert np.array_equal(model.camera_ids, rec.camera_ids)
        assert np.allclose(model.camera_centers, rec.camera_centers, atol=0)
        assert np.allclose(model.camera_rotations, rec.camera_rotations, atol=0)
        assert np.allclose(model.points, rec.points, atol=0)

    def test_camera_center_formula(self):
        # C_g = s R C + T with s=2, quarter turn, lift: (1,0,0) -> (0,2,1)
        rng = np.random.default_rng(1)
        rec = simple_rec(
            0, [5], [1], [[0.0, 0.0, 0.0]], rng, centers=np.array([[1.0, 0.0, 0.0]])
        )
        tr = Sim3(s=2.0, q=rz(np.pi / 2), t=np.array([0.0, 0.0, 1.0]))
        model = merge_reconstructions([rec], {0: tr})
        assert np.allclose(model.camera_centers[0], [0.0, 2.0, 1.0], atol=1e-12)

    def test_camera_rotation_formula(self):
        # R_g = R_o R_k^T: identity camera under a quarter-turn community
        # rotation becomes the inverse quarter turn
        rng = np.random.default_rng(2)
        rec = simple_rec(
            0, [5], [1], [[0.0, 0.0, 0.0]], rng, rotations=np.array([IDENTITY_QUAT])
        )
        tr = Sim3(s=1.0, q=rz(np.pi / 2), t=np.zeros(3))
        model = merge_reconstructions([rec], {0: tr})
        assert geodesic_angle(model.camera_rotations[0], rz(-np.pi / 2)) < 1e-12

    def test_multi_community_track_fused_to_median(self):
        rng = np.random.default_rng(3)
        p = np.array([[1.0, 1.0, 1.0]])
        recs = [
            simple_rec(0, [0], [7], p, rng),
            simple_rec(1, [1], [7], p + 0.02, rng),
            simple_rec(2, [2], [7], p - 0.5, rng),
        ]
        model = merge_reconstructions(recs, {c: Sim3() for c in range(3)})
        assert np.allclose(model.points[0], p[0], atol=1e-12)  # median of the three
        assert model.communities.tolist() == [0, 1, 2]
        assert model.community_bounds.tolist() == [0, 3]
        assert model.fusion_tracks.tolist() == [7]
        assert model.fusion_spread[0] == pytest.approx(np.sqrt(3 * 0.25), abs=1e-12)

    @pytest.mark.parametrize("seed", range(40))
    def test_fusion_matches_per_track_median(self, seed):
        # each track is reconstructed by 1-5 of 6 communities, so every
        # segment size, odd and even, is fused; on odd seeds the transforms
        # are identities and the points lie on a coarse grid, so copies tie
        rng = np.random.default_rng(seed)
        k, n_tracks = 6, int(rng.integers(1, 300))
        copies = rng.integers(1, 6, size=n_tracks)
        owners = [rng.choice(k, size=c, replace=False) for c in copies]
        recs, transforms = [], {}
        for c in rng.permutation(k):
            tracks = np.array([t for t in range(n_tracks) if c in owners[t]], dtype=np.int64)
            pts = rng.normal(scale=10.0, size=(tracks.size, 3))
            if seed % 2:
                pts, tr = np.round(pts / 5.0), Sim3()
            else:
                tr = Sim3(s=float(rng.uniform(0.5, 2.0)), q=random_quat(rng), t=rng.normal(size=3))
            recs.append(simple_rec(int(c), [int(c)], tracks, pts, rng))
            transforms[int(c)] = tr
        self.assert_fusion_matches_loop(recs, transforms)

    def test_fusion_without_shared_tracks_matches_per_track_median(self):
        rng = np.random.default_rng(41)
        recs = [simple_rec(c, [c], range(10 * c, 10 * c + 7), rng.normal(size=(7, 3)), rng)
                for c in range(3)]
        model = self.assert_fusion_matches_loop(recs, {c: Sim3() for c in range(3)})
        assert model.fusion_tracks.shape == model.fusion_spread.shape == (0,)

    @staticmethod
    def assert_fusion_matches_loop(recs, transforms):
        model = merge_reconstructions(recs, transforms)
        tracks, points, provenance, fusion_spread = loop_merge(recs, transforms)
        assert model.track_ids.dtype == np.int64
        assert np.array_equal(model.track_ids, tracks)
        # bit for bit, signed zeros included
        assert model.points.tobytes() == points.tobytes()
        expected = provenance_arrays(tracks, provenance, fusion_spread)
        for field, want in zip(PROVENANCE_FIELDS, expected):
            got = getattr(model, field)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        return model

    @pytest.mark.parametrize("seed", range(5))
    def test_cameras_match_one_at_a_time(self, seed):
        # 0-6 cameras per community, some rotations half-turns (w == 0)
        rng = np.random.default_rng(seed)
        recs, transforms = [], {}
        for c in rng.permutation(5):
            n = int(rng.integers(0, 7))
            rotations = np.array([random_quat(rng) for _ in range(n)]).reshape(-1, 4)
            rotations[rng.random(n) < 0.3, 0] = 0.0
            recs.append(simple_rec(int(c), 10 * c + np.arange(n), [int(c)], [[0.0, 0, 0]], rng,
                                   rotations=rotations))
            transforms[int(c)] = random_sim3(rng)
        model = merge_reconstructions(recs, transforms)
        ids, rotations, centers = loop_cameras(recs, transforms)
        assert np.array_equal(model.camera_ids, ids)
        assert model.camera_rotations.tobytes() == rotations.tobytes()
        assert model.camera_centers.tobytes() == centers.tobytes()

    def test_duplicate_camera_ids_rejected(self):
        rng = np.random.default_rng(4)
        recs = [
            simple_rec(0, [0], [1], [[0.0, 0, 0]], rng),
            simple_rec(1, [0], [2], [[0.0, 0, 0]], rng),
        ]
        with pytest.raises(ValidationError, match="camera id"):
            merge_reconstructions(recs, {0: Sim3(), 1: Sim3()})

    def test_missing_transform_rejected(self):
        rng = np.random.default_rng(5)
        rec = simple_rec(0, [0], [1], [[0.0, 0, 0]], rng)
        with pytest.raises(ValidationError, match="no transform"):
            merge_reconstructions([rec], {1: Sim3()})

    def test_viewing_geometry_preserved(self):
        # R_g (X_g - C_g) = s R_o (X_o - C_o) for every camera/point pair
        rng = np.random.default_rng(6)
        rec = simple_rec(0, [0, 1, 2], range(5), rng.normal(size=(5, 3)), rng)
        tr = Sim3(s=1.7, q=random_quat(rng), t=rng.normal(size=3))
        model = merge_reconstructions([rec], {0: tr})
        for ci in range(3):
            Rg = quat_to_matrix(model.camera_rotations[ci])
            Ro = quat_to_matrix(rec.camera_rotations[ci])
            for pi in range(5):
                lhs = Rg @ (model.points[pi] - model.camera_centers[ci])
                rhs = tr.s * (Ro @ (rec.points[pi] - rec.camera_centers[ci]))
                assert np.allclose(lhs, rhs, atol=1e-9)


def fracture_world(rng, k=3, n_world=60, transforms=None, cams_per=3):
    """World points observed by k communities in planted local frames."""
    world_pts = rng.uniform(-8, 8, size=(n_world, 3))
    world_centers = rng.uniform(-8, 8, size=(k * cams_per, 3))
    transforms = transforms or [random_sim3(rng) for _ in range(k)]
    recs = []
    for c in range(k):
        inv = transforms[c].inverse()
        cams = np.arange(c * cams_per, (c + 1) * cams_per)
        recs.append(
            Reconstruction(
                community_id=c,
                camera_ids=cams,
                camera_rotations=np.stack([random_quat(rng) for _ in cams]),
                camera_centers=inv.apply(world_centers[cams]),
                track_ids=np.arange(n_world),
                points=inv.apply(world_pts),
            )
        )
    return recs, dict(enumerate(transforms)), world_pts, world_centers


class TestJointRefine:
    def test_consistent_input_unchanged(self):
        rng = np.random.default_rng(7)
        recs, applied, _, _ = fracture_world(rng)
        refined, model, info = joint_refine(recs, applied)
        assert not info["skipped"]
        assert info["final_cost"] <= info["initial_cost"] + 1e-12
        for c, tr in applied.items():
            ref = refined[c]
            assert ref.s == pytest.approx(tr.s, rel=1e-9)
            assert geodesic_angle(ref.q, tr.q) < 1e-9
            assert np.allclose(ref.t, tr.t, atol=1e-8)

    def test_perturbed_transforms_recovered(self):
        # oracle: planted transforms; zero-noise data pulls the perturbed
        # guesses back to them (up to the unconstrained gauge)
        rng = np.random.default_rng(8)
        recs, applied, world_pts, _ = fracture_world(rng, k=3)
        from csfm.rotations import exp_rotation

        perturbed = {0: applied[0]}
        for c, tr in list(applied.items())[1:]:
            perturbed[c] = Sim3(
                s=tr.s * (1 + 1e-3),
                q=quat_multiply(exp_rotation(rng.normal(size=3) * 1e-3), tr.q),
                t=tr.t + rng.normal(size=3) * 1e-3,
            )
        refined, model, info = joint_refine(recs, perturbed)
        # the gauge community is fixed, so planted values are recovered as-is
        for c, tr in applied.items():
            ref = refined[c]
            assert ref.s == pytest.approx(tr.s, rel=1e-8)
            assert geodesic_angle(ref.q, tr.q) < 1e-8
            assert np.allclose(ref.t, tr.t, atol=1e-8)
        # and the merged points coincide with the world
        common = np.arange(world_pts.shape[0])
        assert np.allclose(model.points[common], world_pts, atol=1e-7)

    def test_single_community_skipped(self):
        rng = np.random.default_rng(9)
        recs, applied, _, _ = fracture_world(rng, k=1)
        refined, model, info = joint_refine(recs, applied)
        assert info["skipped"]
        assert refined == applied
        assert info["log_scale_change"] == [0.0]

    def test_log_scale_change_is_the_log_ratio_of_the_scales(self):
        rng = np.random.default_rng(10)
        recs, applied, _, _ = fracture_world(rng, k=4)
        start = {c: Sim3(s=tr.s * (1.0 + 0.01 * c), q=tr.q, t=tr.t) for c, tr in applied.items()}
        refined, _, info = joint_refine(recs, start)
        s_in = np.array([tr.s for tr in start.values()])
        s_out = np.array([refined[c].s for c in start])
        assert info["log_scale_change"] == (np.log(s_out) - np.log(s_in)).tolist()
        assert info["log_scale_change"][0] == 0.0
        # the planted scales come back, so each change undoes its perturbation
        assert np.allclose(info["log_scale_change"][1:], -np.log1p(0.01 * np.arange(1, 4)))


# the worlds of the perfbench workloads (perfbench/run.py) and the seed-13 world,
# on which refinement collapses the model
REFINE_WORLDS = {
    "large-graph": dict(camera_count=450, point_count=6000, cluster_count=6,
                        noise_sigma=1e-3, outlier_fraction=0.0),
    "dense-points": dict(camera_count=180, point_count=27000, cluster_count=4,
                         cluster_spread=1.5, noise_sigma=1e-3, outlier_fraction=0.0),
    "staged-cli": dict(camera_count=400, point_count=10000, cluster_count=16,
                       noise_sigma=1e-3, outlier_fraction=0.2),
    "collapse": dict(camera_count=200, point_count=30000, cluster_count=4,
                     noise_sigma=1e-3, outlier_fraction=0.2),
}


def averaged_world(spec):
    """The reconstructions and averaged transforms ``run_pipeline`` refines
    on the world of ``spec`` (pairwise seed = world seed)."""
    world = generate_world(spec)
    partition, _, _ = detect_communities(
        world.graph, DEFAULT_Q_THRESHOLD, DEFAULT_MIN_COMMUNITY_SIZE
    )
    recs = list(fracture(world, partition).reconstructions)
    rows = measure_pairs(covisible_pairs(recs, MIN_COVISIBLE), seed=spec.seed)
    mg = MeasurementGraph.from_rows(len(recs), rows)
    transforms, _ = average_similarities({r.community_id: r for r in recs}, mg)
    return recs, transforms


def relative_gap(a, b):
    return float(np.max(np.abs(np.subtract(a, b))) / max(np.max(np.abs(b)), 1e-300))


@pytest.mark.parametrize("world, seed", [
    ("large-graph", 0), ("large-graph", 1), ("dense-points", 0), ("dense-points", 1),
    ("staged-cli", 0), ("staged-cli", 1), ("staged-cli", 101), ("collapse", 13),
])
def test_stacked_refine_matches_the_per_pair_oracle(world, seed):
    recs, transforms = averaged_world(WorldSpec(**REFINE_WORLDS[world], seed=seed))
    refined, _, info = joint_refine(recs, transforms)
    expected, _, oracle = loop_joint_refine(recs, transforms)
    assert not info["skipped"]
    assert info["iterations"] == oracle["iterations"]
    for key in ("initial_cost", "final_cost"):
        assert info[key] == pytest.approx(oracle[key], rel=1e-9)
    assert refined.keys() == expected.keys()
    for c, tr in expected.items():
        assert relative_gap(refined[c].s, tr.s) <= 1e-8
        assert relative_gap(refined[c].q, tr.q) <= 1e-8
        assert relative_gap(refined[c].t, tr.t) <= 1e-8


class TestEvaluate:
    def truth_of(self, rng, n=9):
        return Reconstruction(
            community_id=0,
            camera_ids=np.arange(n),
            camera_rotations=np.stack([random_quat(rng) for _ in range(n)]),
            camera_centers=rng.uniform(-10, 10, size=(n, 3)),
            track_ids=np.arange(20),
            points=rng.uniform(-10, 10, size=(20, 3)),
        )

    def model_from(self, truth, sim=None):
        sim = sim or Sim3()
        from csfm.merging import MergedModel
        from csfm.rotations import quat_conjugate

        return MergedModel(
            camera_ids=truth.camera_ids,
            camera_rotations=np.stack(
                [quat_multiply(q, quat_conjugate(sim.q)) for q in truth.camera_rotations]
            ),
            camera_centers=sim.apply(truth.camera_centers),
            track_ids=truth.track_ids,
            points=sim.apply(truth.points),
            **one_copy_each(truth.track_ids),
        )

    def test_identical_model_zero_error(self):
        rng = np.random.default_rng(10)
        truth = self.truth_of(rng)
        metrics = evaluate_against_truth(self.model_from(truth), truth)
        assert metrics["median_center_error"] == pytest.approx(0.0, abs=1e-12)
        assert metrics["rmse_center_error"] == pytest.approx(0.0, abs=1e-12)
        assert metrics["median_rotation_error_rad"] == pytest.approx(0.0, abs=1e-9)
        assert metrics["point_rmse"] == pytest.approx(0.0, abs=1e-12)

    def test_global_gauge_removed(self):
        rng = np.random.default_rng(11)
        truth = self.truth_of(rng)
        # express the model in an arbitrary global frame; errors must vanish
        model = self.model_from(truth, sim=random_sim3(rng))
        metrics = evaluate_against_truth(model, truth)
        assert metrics["median_center_error"] < 1e-9
        assert metrics["rmse_center_error"] < 1e-9
        assert metrics["median_rotation_error_rad"] < 1e-9
        assert metrics["point_rmse"] < 1e-9

    def test_single_displaced_camera(self):
        # oracle: direct formula; the robust alignment pins the clean
        # cameras, so median stays 0 and RMSE is 1/sqrt(n)
        rng = np.random.default_rng(12)
        n = 9
        truth = self.truth_of(rng, n=n)
        model = self.model_from(truth)
        centers = model.camera_centers.copy()
        centers[3] += np.array([1.0, 0.0, 0.0])
        from csfm.merging import MergedModel

        model = MergedModel(
            camera_ids=model.camera_ids,
            camera_rotations=model.camera_rotations,
            camera_centers=centers,
            track_ids=model.track_ids,
            points=model.points,
            **one_copy_each(model.track_ids),
        )
        metrics = evaluate_against_truth(model, truth)
        assert metrics["median_center_error"] == pytest.approx(0.0, abs=1e-9)
        assert metrics["rmse_center_error"] == pytest.approx(1.0 / np.sqrt(n), abs=1e-9)

    def test_invariant_to_model_side_gauge(self):
        # re-expressing an (imperfect) model in a different global frame
        # must not change any error metric: the gauge is aligned away
        rng = np.random.default_rng(16)
        from csfm.merging import MergedModel
        from csfm.rotations import quat_conjugate

        truth = self.truth_of(rng, n=9)
        base = self.model_from(truth)
        noisy_centers = base.camera_centers + rng.normal(scale=1e-3, size=(9, 3))
        model = MergedModel(
            camera_ids=base.camera_ids,
            camera_rotations=base.camera_rotations,
            camera_centers=noisy_centers,
            track_ids=base.track_ids,
            points=base.points,
            **one_copy_each(base.track_ids),
        )
        g = random_sim3(rng)
        moved = MergedModel(
            camera_ids=model.camera_ids,
            camera_rotations=np.stack(
                [quat_multiply(q, quat_conjugate(g.q)) for q in model.camera_rotations]
            ),
            camera_centers=g.apply(model.camera_centers),
            track_ids=model.track_ids,
            points=g.apply(model.points),
            **one_copy_each(model.track_ids),
        )
        m1 = evaluate_against_truth(model, truth)
        m2 = evaluate_against_truth(moved, truth)
        assert m1["median_center_error"] > 1e-5  # the comparison is non-trivial
        for key in ("median_center_error", "rmse_center_error", "median_rotation_error_rad", "point_rmse"):
            assert m2[key] == pytest.approx(m1[key], rel=1e-9, abs=1e-9)

    def test_no_shared_track_gives_null_point_rmse(self, tmp_path):
        # the model's tracks are renumbered away from the truth's: point
        # error is undefined and must be written as null, not NaN
        rng = np.random.default_rng(17)
        truth = self.truth_of(rng)
        model = self.model_from(truth)
        from csfm.merging import MergedModel

        disjoint = MergedModel(
            camera_ids=model.camera_ids,
            camera_rotations=model.camera_rotations,
            camera_centers=model.camera_centers,
            track_ids=model.track_ids + 1000,
            points=model.points,
            **one_copy_each(model.track_ids),
        )
        metrics = evaluate_against_truth(disjoint, truth)
        assert metrics["n_shared_tracks"] == 0
        assert metrics["point_rmse"] is None
        write_json(tmp_path / "eval.json", metrics)
        assert '"point_rmse":null' in (tmp_path / "eval.json").read_text()

    def test_too_few_common_cameras(self):
        rng = np.random.default_rng(13)
        truth = self.truth_of(rng)
        model = self.model_from(truth)
        from csfm.merging import MergedModel

        small = MergedModel(
            camera_ids=model.camera_ids[:2],
            camera_rotations=model.camera_rotations[:2],
            camera_centers=model.camera_centers[:2],
            track_ids=model.track_ids,
            points=model.points,
            **one_copy_each(model.track_ids),
        )
        with pytest.raises(ValidationError):
            evaluate_against_truth(small, truth)


class TestArtifacts:
    def test_merged_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        recs, applied, _, _ = fracture_world(rng, k=2, n_world=10)
        model = merge_reconstructions(recs, applied)
        save_merged(model, tmp_path / "m.json")
        back = load_merged(tmp_path / "m.json")
        assert np.array_equal(back.camera_ids, model.camera_ids)
        assert np.allclose(back.camera_centers, model.camera_centers, atol=0)
        assert np.allclose(back.points, model.points, atol=0)
        for field in PROVENANCE_FIELDS:
            assert np.array_equal(getattr(back, field), getattr(model, field)), field

    def test_export_ply(self, tmp_path):
        rng = np.random.default_rng(15)
        recs, applied, _, _ = fracture_world(rng, k=2, n_world=12)
        model = merge_reconstructions(recs, applied)
        path = tmp_path / "cloud.ply"
        export_ply(model, path, color_by_community=True)
        lines = path.read_text().splitlines()
        assert lines[0] == "ply"
        assert f"element vertex {model.track_ids.size}" in lines
        assert "property uchar red" in lines
        body = lines[lines.index("end_header") + 1 :]
        assert len(body) == model.track_ids.size
        assert all(len(row.split()) == 6 for row in body)

    def test_export_ply_matches_the_per_vertex_format(self, tmp_path):
        # values over 60 decades of either sign, signed zeros, subnormals and
        # the largest doubles, with and without colours
        rng = np.random.default_rng(16)
        recs = [simple_rec(c, [c], range(700 * c, 700 * c + 1000), rng.normal(size=(1000, 3)), rng)
                for c in range(9)]
        model = merge_reconstructions(recs, {c: Sim3() for c in range(9)})
        n = model.track_ids.size
        values = rng.choice([-1.0, 1.0], size=3 * n) * 10.0 ** rng.uniform(-30, 30, size=3 * n)
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1.7e308, -1.7e308, 1e-5]
        values[: len(special)] = special
        model = dataclasses.replace(model, points=values.reshape(n, 3))
        for colour in (False, True):
            export_ply(model, tmp_path / "got.ply", colour)
            loop_export_ply(model, tmp_path / "want.ply", colour)
            assert (tmp_path / "got.ply").read_bytes() == (tmp_path / "want.ply").read_bytes()

    def test_export_ply_colours_by_the_smallest_community_listed(self, tmp_path):
        # a file may list a track's communities in any order: colour by the least
        rng = np.random.default_rng(18)
        recs = [simple_rec(c, [c], range(4 * c, 4 * c + 8), rng.normal(size=(8, 3)), rng)
                for c in range(3)]
        model = merge_reconstructions(recs, {c: Sim3() for c in range(3)})
        save_merged(model, tmp_path / "m.json")
        obj = json.loads((tmp_path / "m.json").read_text())
        obj["communities"] = [c[::-1] for c in obj["communities"]]
        (tmp_path / "shuffled.json").write_text(json.dumps(obj))
        export_ply(load_merged(tmp_path / "shuffled.json"), tmp_path / "a.ply", True)
        export_ply(model, tmp_path / "b.ply", True)
        assert (tmp_path / "a.ply").read_bytes() == (tmp_path / "b.ply").read_bytes()
        body = (tmp_path / "a.ply").read_text().splitlines()[-model.track_ids.size:]
        colours = [tuple(map(int, row.split()[3:])) for row in body]
        # tracks 0-3 are community 0's alone, 4-7 shared by 0 and 1, 8-11 by 1 and 2
        assert colours == [_PALETTE[c] for c in [0] * 8 + [1] * 4 + [2] * 4]

    def test_tracks_listed_out_of_order_load_sorted(self, tmp_path):
        # a merged model's track ids are sorted, so the joins of eval find them
        rng = np.random.default_rng(20)
        recs = [simple_rec(c, [c], range(4 * c, 4 * c + 8), rng.normal(size=(8, 3)), rng)
                for c in range(3)]
        model = merge_reconstructions(recs, {c: Sim3() for c in range(3)})
        save_merged(model, tmp_path / "m.json")
        obj = json.loads((tmp_path / "m.json").read_text())
        order = rng.permutation(model.track_ids.size)
        for key in ("tracks", "points", "communities"):
            obj[key] = [obj[key][k] for k in order]
        (tmp_path / "shuffled.json").write_text(json.dumps(obj))
        back = load_merged(tmp_path / "shuffled.json")
        for field in MODEL_FIELDS:
            assert getattr(back, field).tolist() == getattr(model, field).tolist(), field

    @pytest.mark.parametrize(
        "communities, match",
        [
            (lambda c: c[:-1], "do not align with its tracks"),
            (lambda c: c + [[0]], "do not align with its tracks"),
            (lambda c: {"0": c}, "do not align with its tracks"),
            (lambda c: [[]] + c[1:], "track with no contributing community"),
            (lambda c: c[:-1] + [[]], "track with no contributing community"),
            (lambda c: [[0.5]] + c[1:], "merged-model communities"),
            (lambda c: [[True]] + c[1:], "merged-model communities"),
            (lambda c: [[[0]]] + c[1:], "merged-model communities"),
            (lambda c: [0] + c[1:], "malformed merged-model file"),
        ],
        ids=["short", "long", "not-a-list", "first-empty", "last-empty",
             "float", "bool", "nested", "bare-integer"],
    )
    def test_load_merged_refuses_bad_communities(self, tmp_path, communities, match):
        rng = np.random.default_rng(19)
        recs, applied, _, _ = fracture_world(rng, k=2, n_world=10)
        save_merged(merge_reconstructions(recs, applied), tmp_path / "m.json")
        obj = json.loads((tmp_path / "m.json").read_text())
        obj["communities"] = communities(obj["communities"])
        (tmp_path / "m.json").write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match=match):
            load_merged(tmp_path / "m.json")


def detected_recs(name, seed, **extra):
    """The reconstructions of a perfbench-spec world under detected communities."""
    world = generate_world(WorldSpec(**{**BENCH_WORLDS[name], **extra}, seed=seed))
    partition, _, _ = detect_communities(
        world.graph, DEFAULT_Q_THRESHOLD, DEFAULT_MIN_COMMUNITY_SIZE
    )
    return list(fracture(world, partition).reconstructions)


MODEL_FIELDS = [f.name for f in dataclasses.fields(MergedModel)]
STRUCTURE_FIELDS = ["camera_ids", "track_ids", "communities", "community_bounds", "fusion_tracks"]


class TestMergeLike:
    @pytest.mark.parametrize(
        "name, seed, extra",
        [("large-graph", 0, {}), ("dense-points", 0, {}), ("staged-cli", 0, {}),
         ("staged-cli", 4, {}), ("dense-points", 101, {"outlier_fraction": 0.2})],
        ids=["large-graph", "dense-points", "staged-cli", "staged-cli-4", "dense-points-101"],
    )
    def test_a_fill_on_a_model_is_a_fresh_merge(self, tmp_path, name, seed, extra):
        recs = detected_recs(name, seed, **extra)
        rng = np.random.default_rng(seed)
        first, second = ({r.community_id: random_sim3(rng) for r in recs} for _ in range(2))
        like = merge_reconstructions(recs, first)
        got = merge_reconstructions(recs[::-1], second, like=like)
        want = merge_reconstructions(recs, second)
        for field in MODEL_FIELDS:
            g, w = getattr(got, field), getattr(want, field)
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes()), field
        for field in STRUCTURE_FIELDS:
            assert getattr(got, field) is getattr(like, field), field
        save_merged(got, tmp_path / "got.json")
        save_merged(want, tmp_path / "want.json")
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()
        # the refined model too, on either structure
        _, refined_like, _ = joint_refine(recs, second, like=like)
        _, refined, _ = joint_refine(recs, second)
        for field in MODEL_FIELDS:
            assert getattr(refined_like, field).tobytes() == getattr(refined, field).tobytes()

    @pytest.mark.parametrize(
        "edit",
        ["drop-community", "extra-community", "drop-track", "add-track", "swap-track",
         "drop-camera", "move-camera", "relabel"],
    )
    def test_a_model_of_other_reconstructions_is_refused(self, edit):
        rng = np.random.default_rng(21)
        recs = [simple_rec(c, [2 * c, 2 * c + 1], range(4 * c, 4 * c + 8),
                           rng.normal(size=(8, 3)), rng) for c in range(3)]
        transforms = {c: random_sim3(rng) for c in range(4)}
        like = merge_reconstructions(recs, transforms)
        cams, tracks, points = recs[1].camera_ids, recs[1].track_ids, recs[1].points
        middle = {
            "drop-track": (cams, tracks[1:], points[1:]),
            "add-track": (cams, [*tracks, 99], np.vstack([points, np.zeros((1, 3))])),
            "swap-track": (cams, [*tracks[:-1], 0], points),
            "drop-camera": (cams[:1], tracks, points),
            "move-camera": ([2, 4], tracks, points),
        }
        changed = {
            "drop-community": recs[:2],
            "extra-community": recs + [simple_rec(3, [6], [0], np.zeros((1, 3)), rng)],
            "relabel": [dataclasses.replace(rec, community_id=2 - rec.community_id) for rec in recs],
        }.get(edit) or [recs[0], simple_rec(1, *middle[edit], rng), recs[2]]
        with pytest.raises(ValidationError, match="not merged from these reconstructions"):
            merge_reconstructions(changed, transforms, like=like)
        with pytest.raises(ValidationError, match="not merged from these reconstructions"):
            joint_refine(changed, transforms, like=like)

    @pytest.mark.parametrize("row", [0, jsonio.ROW_BLOCK, 3 * jsonio.ROW_BLOCK - 1, "also"])
    def test_a_non_finite_value_leaves_neither_file_of_save_merged(self, tmp_path, row):
        rng = np.random.default_rng(22)
        n = 3 * jsonio.ROW_BLOCK
        recs = [simple_rec(c, [c], range(c * n // 4, c * n // 4 + n // 2),
                           rng.normal(size=(n // 2, 3)), rng) for c in range(3)]
        model = merge_reconstructions(recs, {c: Sim3() for c in range(3)})
        assert model.track_ids.size == n
        also = {"t": 1.0}
        if row == "also":
            also["t"] = float("nan")
        else:
            model.points[row, 1] = float("inf")
        with pytest.raises(NumericError):
            save_merged(model, tmp_path / "merged.json", (tmp_path / "transforms.json", also))
        assert list(tmp_path.iterdir()) == []

    def test_no_orjson_call_encodes_more_than_a_block_of_rows(self, tmp_path, monkeypatch):
        recs = detected_recs("dense-points", 0)
        model = merge_reconstructions(recs, {r.community_id: Sim3() for r in recs})
        assert model.track_ids.size > 10 * jsonio.ROW_BLOCK
        dumps, rows = jsonio.orjson.dumps, []

        def counted(obj, *args, **kwargs):
            rows.append(len(obj) if isinstance(obj, (np.ndarray, list)) else 0)
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(jsonio.orjson, "dumps", counted)
        save_merged(model, tmp_path / "merged.json")
        monkeypatch.undo()
        assert 0 < max(rows) <= jsonio.ROW_BLOCK
        assert load_merged(tmp_path / "merged.json").points.tobytes() == model.points.tobytes()
