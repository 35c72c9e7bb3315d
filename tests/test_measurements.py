import numpy as np
import pytest

from csfm.errors import ValidationError
from csfm.measurements import MeasurementGraph, median_offset, pairwise_measurement
from csfm.reconstruction import Reconstruction, covisible
from csfm.rotations import (
    IDENTITY_QUAT,
    geodesic_angle,
    quat_canonical,
    quat_conjugate,
    quat_multiply,
    random_quat,
)

from helpers import measurement_graph, random_sim3, record_checks, unique_sort_ids


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
        row = pairwise_measurement(make_rec(0, range(20), pts), make_rec(1, range(20), pts), seed=1)
        _, _, s_ij, r_ij, inliers = row
        assert s_ij == pytest.approx(1.0, abs=1e-9)
        assert geodesic_angle(r_ij, IDENTITY_QUAT) < 1e-9
        assert inliers == 20
        assert MeasurementGraph.from_rows(2, [row]).t is None

    def test_doubled_points_give_half_scale(self):
        # rec 0 holds all points doubled: the frame-0 -> frame-1 map halves
        rng = np.random.default_rng(1)
        pts = rng.uniform(-3, 3, size=(15, 3))
        _, _, s_ij, _, _ = pairwise_measurement(
            make_rec(0, range(15), 2.0 * pts), make_rec(1, range(15), pts), seed=2
        )
        assert s_ij == pytest.approx(0.5, abs=1e-9)

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
            _, _, s_ij, r_ij, _ = pairwise_measurement(rec0, rec1, seed=5)
            assert s_ij == pytest.approx(f0.s / f1.s, rel=1e-6)
            expected_r = quat_multiply(quat_conjugate(f0.q), f1.q)
            assert geodesic_angle(r_ij, expected_r) < 1e-6

    def test_swapped_arguments_canonicalized(self):
        rng = np.random.default_rng(4)
        rec0, rec1, _, _ = fractured_pair(rng)
        i, j, _, _, _ = pairwise_measurement(rec1, rec0, seed=7)
        assert (i, j) == (0, 1)


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
    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            measurement_graph(2, [(0, 1), (0, 1)])

    def test_orientation_must_be_canonical(self):
        with pytest.raises(ValidationError):
            measurement_graph(3, [(2, 1)])

    def test_self_measurement_rejected(self):
        with pytest.raises(ValidationError):
            measurement_graph(2, [(1, 1)])

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValidationError):
            measurement_graph(2, [(0, 1, 0.0)])

    @pytest.mark.parametrize("r_ij", [np.ones((2, 4)), np.ones((1, 4)), np.ones(3)])
    def test_rotation_is_one_quaternion(self, r_ij):
        with pytest.raises(ValidationError, match="quaternion"):
            measurement_graph(2, [(0, 1, 1.0, r_ij)])

    def test_connectivity(self):
        mg = measurement_graph(3, [(0, 1)])
        assert not mg.is_connected()
        mg2 = measurement_graph(3, [(0, 1), (1, 2)])
        assert mg2.is_connected()


def planted_table(seed):
    """A random measurement table, valid or with one or two planted faults:
    ``(community_count, i, j, s, q, t)``, ``t`` possibly ``None``."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 7))
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    n = int(rng.integers(1, min(len(pairs), 8) + 1))
    i, j = np.array([pairs[p] for p in rng.permutation(len(pairs))[:n]]).T
    s = np.exp(rng.normal(size=n))
    q = rng.normal(size=(n, 4))
    t = rng.normal(size=(n, 3)) if rng.random() < 0.5 else None
    for _ in range(int(rng.integers(0, 3))):
        r = int(rng.integers(0, n))
        fault = rng.integers(0, 9 if t is not None else 8)
        if fault == 0:
            j[r] = i[r]
        elif fault == 1:
            i[r], j[r] = j[r], i[r]
        elif fault == 2:
            s[r] = rng.choice([0.0, -1.5, np.nan, np.inf, -np.inf])
        elif fault == 3:
            q[r] = rng.choice([0.0, np.nan, np.inf])
        elif fault == 4:
            i[r] = -1
        elif fault == 5:
            j[r] = k + int(rng.integers(0, 2))
        elif fault == 6 and n > 1:
            i[r], j[r] = i[r - 1], j[r - 1]
        elif fault == 7:
            k = int(rng.integers(-1, 1))
        elif fault == 8:
            t[r, int(rng.integers(0, 3))] = rng.choice([np.nan, np.inf, -np.inf])
    return k, i, j, s, q, t


@pytest.mark.parametrize("seed", range(200))
def test_table_checks_match_the_record_checks(seed):
    """Each table raises the error the record-by-record checks raise first,
    and a table they accept builds with its rows in their given order."""
    k, i, j, s, q, t = planted_table(seed)
    inliers = np.arange(i.size) + 4
    expected = record_checks(k, i, j, s, q, t)
    if expected is None:
        mg = MeasurementGraph(k, i, j, s, q, inliers, t)
        assert np.array_equal(mg.i, i) and np.array_equal(mg.j, j)
        assert np.array_equal(mg.inliers, inliers)
    else:
        with pytest.raises(ValidationError) as err:
            MeasurementGraph(k, i, j, s, q, inliers, t)
        assert str(err.value) == expected


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


def id_column(rng, high, layout):
    """Distinct ids in ``[0, high)``, sorted or shuffled, optionally with one
    id repeated (next to its copy when sorted)."""
    ids = np.sort(rng.choice(high, size=int(rng.integers(2, 12)), replace=False))
    if layout in ("sorted-duplicate", "shuffled-duplicate"):
        k = int(rng.integers(1, ids.size))
        ids[k] = ids[k - 1]
    if layout in ("shuffled", "shuffled-duplicate"):
        ids = rng.permutation(ids)
    return ids


ID_LAYOUTS = ("sorted", "shuffled", "sorted-duplicate", "shuffled-duplicate")


@pytest.mark.parametrize("seed", range(64))
def test_reconstruction_ids_match_unique_then_sort(seed):
    """Every layout of camera and track ids gives the rows or the error of
    ``np.unique`` followed by a stable argsort; cameras are checked first."""
    rng = np.random.default_rng([seed, 31])
    cams = id_column(rng, 1000, ID_LAYOUTS[seed % 4])
    tracks = id_column(rng, 10**6, ID_LAYOUTS[seed // 4 % 4])
    rots, centers = rng.normal(size=(cams.size, 4)), rng.normal(size=(cams.size, 3))
    points = rng.normal(size=(tracks.size, 3))
    expected = unique_sort_ids(cams, tracks)

    def build():
        return Reconstruction(community_id=0, camera_ids=cams, camera_rotations=rots,
                              camera_centers=centers, track_ids=tracks, points=points)

    if isinstance(expected, str):
        with pytest.raises(ValidationError) as err:
            build()
        assert str(err.value) == expected
        return
    order, torder = expected
    rec = build()
    for got, want in ((rec.camera_ids, cams[order]), (rec.camera_rotations, quat_canonical(rots[order])),
                      (rec.camera_centers, centers[order]), (rec.track_ids, tracks[torder]),
                      (rec.points, points[torder])):
        assert got.dtype == want.dtype and np.array_equal(got, want)
