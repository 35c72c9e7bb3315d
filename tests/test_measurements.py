import numpy as np
import pytest

from csfm.errors import ValidationError
from csfm.measurements import (
    MeasurementGraph,
    PairwiseSimilarityMeasurement,
    median_offset,
    pairwise_measurement,
)
from csfm.reconstruction import Reconstruction, covisible
from csfm.rotations import IDENTITY_QUAT, geodesic_angle, quat_conjugate, quat_multiply, random_quat

from helpers import random_sim3


def make_rec(community, tracks, points, cam_count=2, rng=None):
    rng = rng or np.random.default_rng(0)
    return Reconstruction(
        community_id=community,
        camera_ids=np.arange(cam_count) + 100 * community,
        camera_rotations=np.stack([random_quat(rng) for _ in range(cam_count)]),
        camera_centers=rng.normal(size=(cam_count, 3)),
        track_ids=np.asarray(tracks, dtype=np.int64),
        points=np.asarray(points, dtype=float),
    )


def fractured_pair(rng, n_shared=40):
    """Two local-frame reconstructions of the same world points.

    Returns (rec_0, rec_1, frame_0, frame_1) where the frames map local ->
    world: ``X_w = frame.apply(X_local)``.
    """
    world = rng.uniform(-5, 5, size=(n_shared, 3))
    tracks = np.arange(n_shared)
    f0, f1 = random_sim3(rng), random_sim3(rng)
    rec0 = make_rec(0, tracks, f0.inverse().apply(world), rng=rng)
    rec1 = make_rec(1, tracks, f1.inverse().apply(world), rng=rng)
    return rec0, rec1, f0, f1


class TestPairwiseMeasurement:
    def test_identical_reconstructions(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-3, 3, size=(20, 3))
        m = pairwise_measurement(make_rec(0, range(20), pts), make_rec(1, range(20), pts), seed=1)
        assert m.s_ij == pytest.approx(1.0, abs=1e-9)
        assert geodesic_angle(m.r_ij, IDENTITY_QUAT) < 1e-9
        assert m.inlier_count == 20
        assert m.t_ij is None

    def test_doubled_points_give_half_scale(self):
        # rec 0 holds all points doubled: the frame-0 -> frame-1 map halves
        rng = np.random.default_rng(1)
        pts = rng.uniform(-3, 3, size=(15, 3))
        m = pairwise_measurement(
            make_rec(0, range(15), 2.0 * pts), make_rec(1, range(15), pts), seed=2
        )
        assert m.s_ij == pytest.approx(0.5, abs=1e-9)

    def test_too_few_shared_tracks(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValidationError, match="share only"):
            pairwise_measurement(
                make_rec(0, [0, 1], rng.normal(size=(2, 3))),
                make_rec(1, [1, 2], rng.normal(size=(2, 3))),
                seed=0,
            )

    def test_matches_planted_relative_transform(self):
        # zero noise: the measured scale must equal the planted scale ratio
        # and the rotation the planted relative alignment rotation
        rng = np.random.default_rng(3)
        for _ in range(10):
            rec0, rec1, f0, f1 = fractured_pair(rng)
            m = pairwise_measurement(rec0, rec1, seed=5)
            assert m.s_ij == pytest.approx(f0.s / f1.s, rel=1e-6)
            expected_r = quat_multiply(quat_conjugate(f0.q), f1.q)
            assert geodesic_angle(m.r_ij, expected_r) < 1e-6

    def test_swapped_arguments_canonicalized(self):
        rng = np.random.default_rng(4)
        rec0, rec1, _, _ = fractured_pair(rng)
        m = pairwise_measurement(rec1, rec0, seed=7)
        assert (m.i, m.j) == (0, 1)


class TestRecomputeTranslation:
    def test_identical_points_zero(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(8, 3))
        t = median_offset(np.arange(8), pts, np.arange(8), pts)
        assert np.allclose(t, 0.0, atol=1e-15)

    def test_constant_offset(self):
        # the second set is the first shifted by -(1,2,3): offset estimate is +(1,2,3)
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(9, 3))
        t = median_offset(np.arange(9), pts, np.arange(9), pts - np.array([1.0, 2.0, 3.0]))
        assert np.allclose(t, [1.0, 2.0, 3.0], atol=1e-12)

    def test_median_ignores_single_corruption(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(11, 3))
        shifted = pts - np.array([1.0, 2.0, 3.0])
        shifted[4] += 500.0
        t = median_offset(np.arange(11), pts, np.arange(11), shifted)
        assert np.allclose(t, [1.0, 2.0, 3.0], atol=1e-12)

    def test_no_shared_tracks(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValidationError):
            median_offset(
                np.array([0]), rng.normal(size=(1, 3)), np.array([1]), rng.normal(size=(1, 3))
            )


class TestMeasurementGraph:
    def meas(self, i, j, s=1.0):
        return PairwiseSimilarityMeasurement(i=i, j=j, s_ij=s, r_ij=IDENTITY_QUAT)

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            MeasurementGraph(community_count=2, measurements=(self.meas(0, 1), self.meas(0, 1)))

    def test_orientation_must_be_canonical(self):
        with pytest.raises(ValidationError):
            PairwiseSimilarityMeasurement(i=2, j=1, s_ij=1.0, r_ij=IDENTITY_QUAT)

    def test_self_measurement_rejected(self):
        with pytest.raises(ValidationError):
            PairwiseSimilarityMeasurement(i=1, j=1, s_ij=1.0, r_ij=IDENTITY_QUAT)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValidationError):
            PairwiseSimilarityMeasurement(i=0, j=1, s_ij=0.0, r_ij=IDENTITY_QUAT)

    @pytest.mark.parametrize("r_ij", [np.ones((2, 4)), np.ones((1, 4)), np.ones(3)])
    def test_rotation_is_one_quaternion(self, r_ij):
        with pytest.raises(ValidationError, match="quaternion"):
            PairwiseSimilarityMeasurement(i=0, j=1, s_ij=1.0, r_ij=r_ij)

    def test_connectivity(self):
        mg = MeasurementGraph(community_count=3, measurements=(self.meas(0, 1),))
        assert not mg.is_connected()
        mg2 = MeasurementGraph(community_count=3, measurements=(self.meas(0, 1), self.meas(1, 2)))
        assert mg2.is_connected()


class TestCovisible:
    def test_disjoint_tracks_empty(self):
        rng = np.random.default_rng(9)
        c = covisible(
            make_rec(0, [0, 1], rng.normal(size=(2, 3))), make_rec(1, [2, 3], rng.normal(size=(2, 3)))
        )
        assert len(c) == 0

    def test_identical_all_paired(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(6, 3))
        c = covisible(make_rec(0, range(6), pts), make_rec(1, range(6), pts))
        assert len(c) == 6
        assert np.allclose(c.points_a, c.points_b)

    def test_order_stable_by_track_id(self):
        rng = np.random.default_rng(11)
        c = covisible(
            make_rec(0, [5, 9, 2], rng.normal(size=(3, 3))),
            make_rec(1, [9, 2, 7], rng.normal(size=(3, 3))),
        )
        assert list(c.track_ids) == [2, 9]
