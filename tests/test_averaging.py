import logging

import numpy as np
import pytest

from csfm import averaging, measurements
from csfm.averaging import (
    average_rotations,
    average_scales,
    average_similarities,
    average_translations,
    recompute_pairwise_translations,
    spanning_tree_edges,
)
from csfm.errors import DisconnectedGraphError, ValidationError
from csfm.reconstruction import Reconstruction
from csfm.rotations import (
    IDENTITY_QUAT,
    geodesic_angle,
    quat_conjugate,
    quat_multiply,
    random_quat,
)

from helpers import measurement_graph, random_sim3


def rz(angle):
    return np.array([np.cos(angle / 2), 0.0, 0.0, np.sin(angle / 2)])


def meas(i, j, s=1.0, r=None, t=None):
    return (i, j, s, IDENTITY_QUAT if r is None else r, t)


def consistent_measurements(transforms, edges):
    """Synthesize exact measurement rows from planted per-community
    transforms: s_ij = s_i/s_j, r_ij = R_i^T R_j, t_ij = T_j - T_i."""
    out = []
    for i, j in edges:
        ti, tj = transforms[i], transforms[j]
        out.append((i, j, ti.s / tj.s, quat_multiply(quat_conjugate(ti.q), tj.q), tj.t - ti.t))
    return out


def gauge_normalized(transforms):
    """Planted transforms re-expressed in the gauge the averagers use:
    s -> s/s_0, R -> R_0^T R, T -> T - T_0."""
    t0 = transforms[0]
    normalized = []
    for tr in transforms:
        normalized.append(
            (
                tr.s / t0.s,
                quat_multiply(quat_conjugate(t0.q), tr.q),
                tr.t - t0.t,
            )
        )
    return normalized


def random_connected_edges(rng, k, extra=2):
    edges = set()
    order = rng.permutation(k)
    for n in range(1, k):
        a, b = int(order[n]), int(order[rng.integers(0, n)])
        edges.add((min(a, b), max(a, b)))
    tries = 0
    while len(edges) < k - 1 + extra and tries < 100:
        tries += 1
        a, b = rng.integers(0, k, size=2)
        if a != b:
            edges.add((min(int(a), int(b)), max(int(a), int(b))))
    return sorted(edges)


class TestAverageScales:
    def test_single_pair(self):
        mg = measurement_graph(2, [meas(0, 1, s=2.0)])
        s = average_scales(mg)
        assert s[0] == 1.0
        assert s[1] == pytest.approx(0.5, abs=1e-12)

    def test_consistent_triangle(self):
        # substitution oracle: s_i / s_j = s_ij on every edge, zero residual
        mg = measurement_graph(3, [meas(0, 1, s=2.0), meas(1, 2, s=3.0), meas(0, 2, s=6.0)])
        s = average_scales(mg)
        assert np.allclose(s, [1.0, 0.5, 1.0 / 6.0], rtol=1e-10)
        assert s[0] / s[1] == pytest.approx(2.0, rel=1e-10)
        assert s[1] / s[2] == pytest.approx(3.0, rel=1e-10)
        assert s[0] / s[2] == pytest.approx(6.0, rel=1e-10)

    def test_disconnected_rejected(self):
        mg = measurement_graph(3, [meas(0, 1)])
        with pytest.raises(DisconnectedGraphError):
            average_scales(mg)


class TestAverageRotations:
    def test_all_identity(self):
        mg = measurement_graph(3, [meas(0, 1), meas(1, 2), meas(0, 2)])
        q = average_rotations(mg)
        for row in q:
            assert geodesic_angle(row, IDENTITY_QUAT) < 1e-12

    def test_chain_of_thirty_degree_turns(self):
        mg = measurement_graph(3, [meas(0, 1, r=rz(np.pi / 6)), meas(1, 2, r=rz(np.pi / 6))])
        q = average_rotations(mg)
        assert geodesic_angle(q[0], IDENTITY_QUAT) < 1e-12
        assert geodesic_angle(q[1], rz(np.pi / 6)) < 1e-12
        assert geodesic_angle(q[2], rz(np.pi / 3)) < 1e-12

    def test_consistent_cycle_recovered(self):
        # oracle: planted rotations on a 6-community cycle
        rng = np.random.default_rng(0)
        planted = [random_quat(rng) for _ in range(6)]
        edges = [(i, (i + 1) % 6) for i in range(5)] + [(0, 5)]
        ms = tuple(
            meas(min(i, j), max(i, j), r=quat_multiply(quat_conjugate(planted[min(i, j)]), planted[max(i, j)]))
            for i, j in edges
        )
        q = average_rotations(measurement_graph(6, ms))
        expected = [quat_multiply(quat_conjugate(planted[0]), p) for p in planted]
        for row, exp in zip(q, expected):
            assert geodesic_angle(row, exp) < 1e-9

    def test_gauge_is_exact_identity(self):
        rng = np.random.default_rng(1)
        ms = (meas(0, 1, r=random_quat(rng)), meas(1, 2, r=random_quat(rng)))
        q = average_rotations(measurement_graph(3, ms))
        assert np.array_equal(q[0], IDENTITY_QUAT)

    def test_residual_stays_zero_on_clean_data(self):
        # consistent input: the tree seed is already optimal, every sweep's
        # summed residual is zero
        rng = np.random.default_rng(2)
        planted = [random_quat(rng) for _ in range(5)]
        edges = random_connected_edges(rng, 5, extra=3)
        ms = tuple(
            meas(i, j, r=quat_multiply(quat_conjugate(planted[i]), planted[j])) for i, j in edges
        )
        mg = measurement_graph(5, ms)
        q = average_rotations(mg)
        for i, j, r_ij in zip(mg.i, mg.j, mg.q):
            lhs = quat_multiply(quat_conjugate(q[i]), q[j])
            assert geodesic_angle(lhs, r_ij) < 1e-10


class TestAveragingCounters:
    # a 3-cycle of turns about z that misses closing by 0.3 rad
    INCONSISTENT = [meas(0, 1, r=rz(0.5)), meas(1, 2, r=rz(0.5)), meas(0, 2, r=rz(1.3))]

    def test_clean_rotations_converge_in_one_sweep(self):
        counts = {}
        average_rotations(measurement_graph(3, [meas(0, 1), meas(1, 2), meas(0, 2)]), counts)
        # the first sweep's update is 0: the unweighted solve and one reweighting
        assert counts == {"irls_solves": {"rotation": 2}, "rotation_sweeps": 1,
                          "rotation_converged": True}

    def test_inconsistent_cycle_converges_with_enough_sweeps(self):
        counts = {}
        average_rotations(measurement_graph(3, self.INCONSISTENT), counts)
        assert counts["rotation_converged"] is True
        assert 2 <= counts["rotation_sweeps"] < averaging.ROTATION_MAX_ITERATIONS
        assert counts["irls_solves"]["rotation"] >= 2 * counts["rotation_sweeps"]

    def test_non_convergence_is_reported(self, monkeypatch, caplog):
        monkeypatch.setattr(averaging, "ROTATION_MAX_ITERATIONS", 1)
        counts = {}
        with caplog.at_level(logging.WARNING):
            q = average_rotations(measurement_graph(3, self.INCONSISTENT), counts)
        assert counts["rotation_sweeps"] == 1
        assert counts["rotation_converged"] is False
        assert counts["irls_solves"]["rotation"] >= 2
        assert "stopped after 1 sweeps without convergence" in caplog.text
        assert np.all(np.isfinite(q))

    def test_nothing_to_average_counts_nothing(self):
        rec = Reconstruction(community_id=0, camera_ids=np.arange(2),
                             camera_rotations=np.tile(IDENTITY_QUAT, (2, 1)),
                             camera_centers=np.zeros((2, 3)), track_ids=np.arange(1),
                             points=np.zeros((1, 3)))
        counts = {}
        average_similarities({0: rec}, measurement_graph(1, []), counts)
        assert counts == {"irls_solves": {"scale": 0, "rotation": 0, "translation": 0},
                          "rotation_sweeps": 0, "rotation_converged": True}


class TestRecomputeTranslations:
    def make_recs(self, rng, transforms, n_pts=30):
        world = rng.uniform(-4, 4, size=(n_pts, 3))
        recs = {}
        for cid, tr in enumerate(transforms):
            recs[cid] = Reconstruction(
                community_id=cid,
                camera_ids=np.array([2 * cid, 2 * cid + 1]),
                camera_rotations=np.stack([random_quat(rng), random_quat(rng)]),
                camera_centers=rng.normal(size=(2, 3)),
                track_ids=np.arange(n_pts),
                points=tr.inverse().apply(world),
            )
        return recs

    def test_same_frame_zero_offset(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-4, 4, size=(12, 3))
        recs = {
            c: Reconstruction(
                community_id=c,
                camera_ids=np.array([c]),
                camera_rotations=np.array([IDENTITY_QUAT]),
                camera_centers=np.zeros((1, 3)),
                track_ids=np.arange(12),
                points=pts,
            )
            for c in (0, 1)
        }
        mg = measurement_graph(2, [meas(0, 1)])
        out = recompute_pairwise_translations(recs, np.ones(2), np.tile(IDENTITY_QUAT, (2, 1)), mg)
        assert np.allclose(out.t[0], 0.0, atol=1e-12)

    def test_planted_offsets_recovered(self):
        # planted frames differ only in translation; offsets must match
        rng = np.random.default_rng(4)
        from csfm.sim3 import Sim3

        transforms = [
            Sim3(t=np.zeros(3)),
            Sim3(t=np.array([3.0, 0.0, 0.0])),
        ]
        recs = self.make_recs(rng, transforms)
        mg = measurement_graph(2, [meas(0, 1)])
        out = recompute_pairwise_translations(recs, np.ones(2), np.tile(IDENTITY_QUAT, (2, 1)), mg)
        assert np.allclose(out.t[0], [3.0, 0.0, 0.0], atol=1e-10)

    def test_pair_without_shared_tracks_dropped(self, caplog):
        rng = np.random.default_rng(5)
        from csfm.sim3 import Sim3

        recs = self.make_recs(rng, [Sim3(), Sim3(), Sim3()])
        # community 2 shares nothing with 0 but everything with 1
        recs[2] = Reconstruction(
            community_id=2,
            camera_ids=np.array([90]),
            camera_rotations=np.array([IDENTITY_QUAT]),
            camera_centers=np.zeros((1, 3)),
            track_ids=recs[1].track_ids,
            points=recs[1].points,
        )
        recs[0] = Reconstruction(
            community_id=0,
            camera_ids=recs[0].camera_ids,
            camera_rotations=recs[0].camera_rotations,
            camera_centers=recs[0].camera_centers,
            track_ids=recs[0].track_ids + 1000,
            points=recs[0].points,
        )
        mg = measurement_graph(3, [meas(0, 1), meas(1, 2), meas(0, 2)])
        with caplog.at_level(logging.WARNING):
            with pytest.raises(DisconnectedGraphError):
                # both pairs touching community 0 lose their tracks
                recompute_pairwise_translations(
                    recs, np.ones(3), np.tile(IDENTITY_QUAT, (3, 1)), mg
                )
        assert "dropping measurement" in caplog.text


def test_average_labels_components_once_per_measurement_graph(monkeypatch):
    # the measured graph (checked by the scale and rotation stages) and the
    # recomputed one (checked by the recompute and translation stages)
    calls = []
    labels = measurements.component_labels

    def count(*args):
        calls.append(args)
        return labels(*args)

    monkeypatch.setattr(measurements, "component_labels", count)
    from csfm.sim3 import Sim3

    shifts = [np.zeros(3), np.array([3.0, 0.0, 0.0]), np.array([0.0, -2.0, 1.0])]
    recs = TestRecomputeTranslations().make_recs(np.random.default_rng(6), [Sim3(t=t) for t in shifts])
    mg = measurement_graph(3, [meas(0, 1), meas(1, 2), meas(0, 2)])
    transforms, mg_t = average_similarities(recs, mg)
    assert len(calls) == 2
    assert mg.is_connected and mg_t.is_connected and len(calls) == 2
    for c, shift in enumerate(shifts):
        assert np.allclose(transforms[c].t, shift, atol=1e-9)
    # a disconnected graph is still refused by each stage called on its own
    split = measurement_graph(3, [meas(0, 1)])
    for stage in (average_scales, average_rotations, average_translations):
        with pytest.raises(DisconnectedGraphError):
            stage(split)

class TestAverageTranslations:
    def test_single_pair(self):
        mg = measurement_graph(2, [meas(0, 1, t=np.array([1.0, 2.0, 3.0]))])
        t = average_translations(mg)
        assert np.allclose(t[0], 0.0)
        assert np.allclose(t[1], [1.0, 2.0, 3.0], atol=1e-10)

    def test_consistent_triangle(self):
        mg = measurement_graph(3, [
            meas(0, 1, t=np.array([1.0, 0.0, 0.0])),
            meas(1, 2, t=np.array([1.0, 0.0, 0.0])),
            meas(0, 2, t=np.array([2.0, 0.0, 0.0])),
        ])
        t = average_translations(mg)
        assert np.allclose(t[1], [1.0, 0.0, 0.0], atol=1e-10)
        assert np.allclose(t[2], [2.0, 0.0, 0.0], atol=1e-10)

    def test_cycle_rejects_single_corruption(self):
        # chorded 5-cycle, consistent T_k = (k, 0, 0) except one corrupted
        # edge; the chords give every cut a clean majority, which makes the
        # L1 minimizer unique (on a bare cycle the objective is flat between
        # the clean solution and the one blaming the opposite cut edge)
        planted = [np.array([float(k), 0.0, 0.0]) for k in range(5)]
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (1, 3)]
        ms = []
        for i, j in edges:
            t = planted[j] - planted[i]
            if (i, j) == (1, 2):
                t = t + np.array([100.0, 0.0, 0.0])
            ms.append(meas(i, j, t=t))
        mg = measurement_graph(5, ms)
        t = average_translations(mg)
        for k in range(5):
            assert np.allclose(t[k], planted[k], atol=1e-6)

    def test_missing_translation_rejected(self):
        mg = measurement_graph(2, [meas(0, 1)])
        with pytest.raises(ValidationError, match="no translation"):
            average_translations(mg)


class TestConsistencyRoundTrip:
    def test_planted_transforms_recovered(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            k = int(rng.integers(4, 11))
            planted = [random_sim3(rng) for _ in range(k)]
            edges = random_connected_edges(rng, k, extra=int(rng.integers(0, 4)))
            mg = measurement_graph(k, consistent_measurements(planted, edges))
            scales = average_scales(mg)
            rotations = average_rotations(mg)
            translations = average_translations(mg)
            for (s_exp, q_exp, t_exp), s, q, t in zip(
                gauge_normalized(planted), scales, rotations, translations
            ):
                assert s == pytest.approx(s_exp, rel=1e-8)
                assert geodesic_angle(q, q_exp) < 1e-8
                assert np.allclose(t, t_exp, atol=1e-8)

    def test_global_scale_equivariance(self):
        # scaling every planted s by a common factor changes no measurement,
        # hence no output
        rng = np.random.default_rng(7)
        from csfm.sim3 import Sim3

        k = 5
        planted = [random_sim3(rng) for _ in range(k)]
        scaled = [Sim3(s=3.7 * p.s, q=p.q, t=p.t) for p in planted]
        edges = random_connected_edges(rng, k)
        m1 = measurement_graph(k, consistent_measurements(planted, edges))
        m2 = measurement_graph(k, consistent_measurements(scaled, edges))
        assert np.allclose(average_scales(m1), average_scales(m2), rtol=1e-12)


def test_incidence_is_the_gauge_free_signed_matrix():
    """One row per measurement, one column per community but the gauge (0):
    gauge edges to the first and the last column, and edges between free
    communities, in both sign conventions."""
    edges = [(0, 1), (0, 4), (1, 2), (2, 4), (3, 4), (1, 3)]
    expected = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-1.0, 1.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 1.0],
        [-1.0, 0.0, 1.0, 0.0],
    ])
    mg = measurement_graph(5, [meas(i, j) for i, j in edges])
    for plus_on_j, sign in ((True, 1.0), (False, -1.0)):
        A = averaging._incidence(mg, plus_on_j)
        assert A.dtype == np.float64 and A.flags.c_contiguous
        assert A.shape == (6, 4)
        assert np.array_equal(A, sign * expected)


def test_spanning_tree_covers_all_communities():
    rng = np.random.default_rng(8)
    edges = random_connected_edges(rng, 7, extra=4)
    mg = measurement_graph(7, [meas(i, j) for i, j in edges])
    tree = spanning_tree_edges(mg)
    assert len(tree) == 6
    seen = {0}
    for idx in tree:
        seen.update((int(mg.i[idx]), int(mg.j[idx])))
    assert seen == set(range(7))
