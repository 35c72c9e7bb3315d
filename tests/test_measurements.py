import json
import logging

import numpy as np
import pytest

from csfm.averaging import recompute_pairwise_translations
from csfm.errors import DisconnectedGraphError, RansacFailureError, ValidationError
from csfm.measurements import MIN_COVISIBLE, MeasurementGraph, pairwise_measurement
from csfm.pipeline import measure_graph
from csfm.reconstruction import Reconstruction, covisible_pairs, shared_tracks
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


def measure(rec_a, rec_b, seed):
    """The :func:`pairwise_measurement` row of two communities' one candidate pair."""
    (pair,) = covisible_pairs([rec_a, rec_b], MIN_COVISIBLE)
    return pairwise_measurement(pair, seed=seed)


class TestPairwiseMeasurement:
    def test_identical_reconstructions(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-3, 3, size=(20, 3))
        row = measure(make_rec(0, range(20), pts), make_rec(1, range(20), pts), seed=1)
        _, _, s_ij, r_ij, inliers = row
        assert s_ij == pytest.approx(1.0, abs=1e-9)
        assert geodesic_angle(r_ij, IDENTITY_QUAT) < 1e-9
        assert inliers == 20
        assert MeasurementGraph.from_rows(2, [row]).t is None

    def test_doubled_points_give_half_scale(self):
        # rec 0 holds all points doubled: the frame-0 -> frame-1 map halves
        rng = np.random.default_rng(1)
        pts = rng.uniform(-3, 3, size=(15, 3))
        _, _, s_ij, _, _ = measure(
            make_rec(0, range(15), 2.0 * pts), make_rec(1, range(15), pts), seed=2
        )
        assert s_ij == pytest.approx(0.5, abs=1e-9)

    def test_too_few_shared_tracks(self, tmp_path):
        # a pair sharing one track fewer than MIN_COVISIBLE is no candidate,
        # so the pairwise stage measures nothing and reports the graph split
        rng = np.random.default_rng(2)
        n = MIN_COVISIBLE - 1
        recs = [
            make_rec(0, range(n), rng.normal(size=(n, 3))),
            make_rec(1, range(n + 1), rng.normal(size=(n + 1, 3))),
        ]
        assert [ia.size for _, _, ia, _ in covisible_pairs(recs)] == [n]
        assert covisible_pairs(recs, MIN_COVISIBLE) == []
        with pytest.raises(DisconnectedGraphError, match="pairwise"):
            measure_graph(recs, 0, tmp_path / "measurements.json")

    def test_refused_pair_is_named_when_it_splits_the_graph(self, tmp_path, caplog):
        # four shared tracks random on both sides: no three of them agree on
        # one similarity, so the fit fails, the pair is skipped, and the
        # disconnected-graph error names it
        rng = np.random.default_rng(9)
        recs = [make_rec(0, range(4), rng.normal(size=(4, 3))),
                make_rec(1, range(4), rng.normal(size=(4, 3)))]
        with pytest.raises(RansacFailureError, match="no hypothesis reached 3 inliers"):
            measure(*recs, seed=3)
        with caplog.at_level(logging.WARNING), pytest.raises(
            DisconnectedGraphError, match=r"\(refused pairs: \[\(0, 1\)\]\)"
        ):
            measure_graph(recs, 3, tmp_path / "measurements.json")
        assert "skipping pair (0, 1)" in caplog.text
        assert not (tmp_path / "measurements.json").exists()

    def test_one_track_beyond_the_minimal_sample_is_kept(self):
        # four exact tracks: a consensus of four is evidence
        rec0, rec1, f0, f1 = fractured_pair(np.random.default_rng(10), n_shared=MIN_COVISIBLE)
        _, _, s_ij, _, inliers = measure(rec0, rec1, seed=3)
        assert inliers == MIN_COVISIBLE
        assert s_ij == pytest.approx(f0.s / f1.s, rel=1e-9)

    def test_matches_planted_relative_transform(self):
        # zero noise: the measured scale must equal the planted scale ratio
        # and the rotation the planted relative alignment rotation
        rng = np.random.default_rng(3)
        for _ in range(10):
            rec0, rec1, f0, f1 = fractured_pair(rng)
            _, _, s_ij, r_ij, _ = measure(rec0, rec1, seed=5)
            assert s_ij == pytest.approx(f0.s / f1.s, rel=1e-6)
            expected_r = quat_multiply(quat_conjugate(f0.q), f1.q)
            assert geodesic_angle(r_ij, expected_r) < 1e-6

    def test_swapped_arguments_canonicalized(self, tmp_path):
        rng = np.random.default_rng(4)
        rec0, rec1, _, _ = fractured_pair(rng)
        i, j, _, _, _ = measure(rec1, rec0, seed=7)
        assert (i, j) == (0, 1)
        measure_graph([rec1, rec0], 7, tmp_path / "measurements.json")
        rows = json.loads((tmp_path / "measurements.json").read_text())
        assert [(r["i"], r["j"]) for r in rows] == [(0, 1)]


def recomputed_offset(tracks_0, points_0, tracks_1, points_1):
    """The translation ``recompute_pairwise_translations`` gives the one pair
    (0, 1) of two communities at unit scales and identity rotations."""
    recs = {0: make_rec(0, tracks_0, points_0), 1: make_rec(1, tracks_1, points_1)}
    mg = MeasurementGraph.from_rows(2, [(0, 1, 1.0, IDENTITY_QUAT, 0)])
    return recompute_pairwise_translations(
        recs, np.ones(2), np.tile(IDENTITY_QUAT, (2, 1)), mg
    ).t[0]


class TestRecomputeTranslation:
    def test_identical_points_zero(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(8, 3))
        t = recomputed_offset(np.arange(8), pts, np.arange(8), pts)
        assert np.allclose(t, 0.0, atol=1e-15)

    def test_constant_offset(self):
        # the second set is the first shifted by -(1,2,3): offset estimate is +(1,2,3)
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(9, 3))
        t = recomputed_offset(np.arange(9), pts, np.arange(9), pts - np.array([1.0, 2.0, 3.0]))
        assert np.allclose(t, [1.0, 2.0, 3.0], atol=1e-12)

    def test_median_ignores_single_corruption(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(11, 3))
        shifted = pts - np.array([1.0, 2.0, 3.0])
        shifted[4] += 500.0
        t = recomputed_offset(np.arange(11), pts, np.arange(11), shifted)
        assert np.allclose(t, [1.0, 2.0, 3.0], atol=1e-12)

    def test_no_shared_tracks(self):
        # a measurement of other reconstructions is refused, naming the pair
        rng = np.random.default_rng(8)
        with pytest.raises(ValidationError, match=r"measured pair \(0, 1\) shares no track"):
            recomputed_offset([0], rng.normal(size=(1, 3)), [1], rng.normal(size=(1, 3)))


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
        assert not mg.is_connected
        mg2 = measurement_graph(3, [(0, 1), (1, 2)])
        assert mg2.is_connected


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
        ia, ib = shared_tracks(
            make_rec(0, [0, 1], rng.normal(size=(2, 3))), make_rec(1, [2, 3], rng.normal(size=(2, 3)))
        )
        assert ia.size == ib.size == 0

    def test_identical_all_paired(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(6, 3))
        rec0, rec1 = make_rec(0, range(6), pts), make_rec(1, range(6), pts)
        ia, ib = shared_tracks(rec0, rec1)
        assert ia.size == 6
        assert np.allclose(rec0.points[ia], rec1.points[ib])

    def test_order_stable_by_track_id(self):
        rng = np.random.default_rng(11)
        rec0 = make_rec(0, [5, 9, 2], rng.normal(size=(3, 3)))
        rec1 = make_rec(1, [9, 2, 7], rng.normal(size=(3, 3)))
        ia, ib = shared_tracks(rec0, rec1)
        assert list(rec0.track_ids[ia]) == list(rec1.track_ids[ib]) == [2, 9]


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
