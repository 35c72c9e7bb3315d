import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csfm.alignment import CorrespondenceSet, horn_similarity, ransac_similarity
from csfm.errors import DegenerateGeometryError, RansacFailureError, ValidationError
from csfm.rotations import IDENTITY_QUAT, geodesic_angle

from helpers import loop_ransac, random_sim3


def corr_from(ids, a, b):
    return CorrespondenceSet(np.asarray(ids), np.asarray(a, float), np.asarray(b, float))


NONCOPLANAR = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
)


class TestHorn:
    def test_identity(self):
        c = corr_from(range(4), NONCOPLANAR, NONCOPLANAR)
        sim = horn_similarity(c)
        assert sim.s == pytest.approx(1.0, abs=1e-12)
        assert geodesic_angle(sim.q, IDENTITY_QUAT) < 1e-12
        assert np.allclose(sim.t, 0.0, atol=1e-12)

    def test_known_transform_recovered(self):
        # oracle: forward-apply the planted transform, then demand residual 0
        rng = np.random.default_rng(0)
        planted = random_sim3(rng)
        b = planted.apply(NONCOPLANAR)
        sim = horn_similarity(corr_from(range(4), NONCOPLANAR, b))
        assert sim.s == pytest.approx(planted.s, rel=1e-12)
        assert geodesic_angle(sim.q, planted.q) < 1e-10
        assert np.allclose(sim.t, planted.t, atol=1e-10)
        assert np.linalg.norm(b - sim.apply(NONCOPLANAR)) < 1e-9

    def test_zero_residual_property(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            planted = random_sim3(rng)
            a = rng.normal(size=(int(rng.integers(3, 30)), 3))
            sv = np.linalg.svd(a - a.mean(axis=0), compute_uv=False)
            if sv[1] <= 1e-6 * sv[0]:
                continue
            b = planted.apply(a)
            sim = horn_similarity(corr_from(range(len(a)), a, b))
            assert np.linalg.norm(b - sim.apply(a)) <= 1e-9 * max(1.0, np.abs(b).max())

    def test_collinear_rejected(self):
        a = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        with pytest.raises(DegenerateGeometryError):
            horn_similarity(corr_from(range(3), a, a))

    def test_coincident_rejected(self):
        a = np.zeros((3, 3))
        with pytest.raises(DegenerateGeometryError):
            horn_similarity(corr_from(range(3), a, a))

    def test_too_few_pairs(self):
        with pytest.raises(ValidationError):
            horn_similarity(corr_from([0, 1], np.zeros((2, 3)), np.zeros((2, 3))))

    def test_duplicate_track_ids_rejected(self):
        with pytest.raises(ValidationError):
            corr_from([0, 0, 1], np.zeros((3, 3)), np.zeros((3, 3)))


class TestRansac:
    def test_all_inliers_zero_noise(self):
        rng = np.random.default_rng(2)
        planted = random_sim3(rng)
        a = rng.uniform(-5, 5, size=(40, 3))
        b = planted.apply(a)
        sim, inliers = ransac_similarity(corr_from(range(40), a, b), seed=9)
        assert set(inliers) == set(range(40))
        assert sim.s == pytest.approx(planted.s, rel=1e-9)
        assert geodesic_angle(sim.q, planted.q) < 1e-9
        assert np.allclose(sim.t, planted.t, atol=1e-9)

    def test_planted_outliers_recovered_exactly(self):
        # oracle: the generator knows which 30 of 100 pairs it corrupted
        rng = np.random.default_rng(3)
        planted = random_sim3(rng)
        a = rng.uniform(-5, 5, size=(100, 3))
        b = planted.apply(a)
        out_idx = rng.choice(100, size=30, replace=False)
        b[out_idx] += rng.uniform(3.0, 8.0, size=(30, 3)) * rng.choice([-1, 1], size=(30, 3))
        sim, inliers = ransac_similarity(corr_from(range(100), a, b), seed=4)
        expected = sorted(set(range(100)) - set(int(i) for i in out_idx))
        assert sorted(int(i) for i in inliers) == expected
        assert sim.s == pytest.approx(planted.s, rel=1e-6)
        assert geodesic_angle(sim.q, planted.q) < 1e-6
        assert np.allclose(sim.t, planted.t, atol=1e-6)

    def test_default_threshold_ignores_gross_outliers(self):
        # a pair's shared tracks span a small patch of a 100-unit cloud; as in
        # synth.fracture, 20% of them are displaced by +-0.5 x the cloud extent
        rng = np.random.default_rng(8)
        planted = random_sim3(rng, scale_range=(0.45, 0.45))
        a = rng.uniform(-1.0, 1.0, size=(200, 3))
        b = planted.apply(a)
        out_idx = rng.choice(200, size=40, replace=False)
        a[out_idx] += rng.uniform(-0.5, 0.5, size=(40, 3)) * 100.0
        sim, inliers = ransac_similarity(corr_from(range(200), a, b), seed=0)
        assert sim.s == pytest.approx(planted.s, rel=1e-9)
        assert sorted(map(int, inliers)) == sorted(set(range(200)) - set(map(int, out_idx)))

    def test_below_minimal_sample(self):
        with pytest.raises(ValidationError):
            ransac_similarity(corr_from([0, 1], np.zeros((2, 3)), np.zeros((2, 3))), seed=0)

    def test_no_consensus_raises(self):
        # pure-noise targets under a tiny threshold: no sample generalizes
        rng = np.random.default_rng(5)
        a = rng.uniform(-5, 5, size=(12, 3))
        b = rng.uniform(-5, 5, size=(12, 3))
        with pytest.raises(RansacFailureError):
            ransac_similarity(
                corr_from(range(12), a, b), inlier_threshold=1e-12, seed=0, max_iterations=64
            )

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        planted = random_sim3(rng)
        a = rng.uniform(-5, 5, size=(50, 3))
        b = planted.apply(a)
        b[:10] += 4.0
        r1 = ransac_similarity(corr_from(range(50), a, b), seed=11)
        r2 = ransac_similarity(corr_from(range(50), a, b), seed=11)
        assert r1[0].s == r2[0].s
        assert np.array_equal(r1[0].q, r2[0].q)
        assert np.array_equal(r1[0].t, r2[0].t)
        assert np.array_equal(r1[1], r2[1])

    def test_refit_invariant_to_ordering(self):
        rng = np.random.default_rng(7)
        planted = random_sim3(rng)
        a = rng.uniform(-5, 5, size=(60, 3))
        b = planted.apply(a)
        out = rng.choice(60, size=12, replace=False)
        b[out] += 5.0
        ids = np.arange(60)
        perm = rng.permutation(60)
        r1, in1 = ransac_similarity(corr_from(ids, a, b), seed=3)
        r2, in2 = ransac_similarity(corr_from(ids[perm], a[perm], b[perm]), seed=3)
        assert sorted(map(int, in1)) == sorted(map(int, in2))
        assert r1.s == pytest.approx(r2.s, rel=1e-9)
        assert geodesic_angle(r1.q, r2.q) < 1e-9
        assert np.allclose(r1.t, r2.t, atol=1e-8)


def ransac_outcome(fn, corr, **kwargs):
    """The bits of what a RANSAC routine returns, or the error it raises."""
    try:
        sim, ids = fn(corr, **kwargs)
    except (RansacFailureError, DegenerateGeometryError) as exc:
        return type(exc).__name__, str(exc)
    return sim.s, sim.q.tobytes(), sim.t.tobytes(), ids.tobytes()


@settings(max_examples=150)
@given(
    n=st.integers(4, 300),
    data_seed=st.integers(0, 2**32 - 1),
    outliers=st.floats(0.0, 0.45),
    planted=st.sampled_from(["none", "coincident", "collinear"]),
    planted_share=st.floats(0.0, 0.95),
    noise=st.sampled_from([0.0, 1e-3]),
    max_iterations=st.one_of(st.integers(1, 40), st.just(1024)),
    threshold=st.sampled_from([None, 1e-12, 0.05]),
    seed=st.integers(0, 2**32 - 1),
)
# degenerate samples use up a 3-iteration cap; all-inlier early exit
@example(n=40, data_seed=0, outliers=0.1, planted="coincident", planted_share=0.9, noise=1e-3,
         max_iterations=3, threshold=0.05, seed=1)
@example(n=30, data_seed=1, outliers=0.0, planted="collinear", planted_share=0.8, noise=0.0,
         max_iterations=1024, threshold=None, seed=2)
@example(n=12, data_seed=2, outliers=0.3, planted="none", planted_share=0.0, noise=1e-3,
         max_iterations=30, threshold=1e-12, seed=3)
def test_batched_ransac_matches_one_hypothesis_at_a_time(
    n, data_seed, outliers, planted, planted_share, noise, max_iterations, threshold, seed
):
    rng = np.random.default_rng(data_seed)
    a = rng.uniform(-5, 5, size=(n, 3))
    # samples drawn among these points are coincident or collinear
    k = int(planted_share * (n - 3))
    if planted == "coincident":
        a[:k] = a[0]
    elif planted == "collinear":
        a[:k] = a[0] + rng.uniform(-1, 1, size=(k, 1)) * rng.normal(size=3)
    b = random_sim3(rng).apply(a) + rng.normal(scale=noise, size=(n, 3))
    out = rng.random(n) < outliers
    b[out] += rng.uniform(3.0, 8.0, size=(out.sum(), 3)) * rng.choice([-1, 1], size=(out.sum(), 3))
    corr = corr_from(rng.permutation(10 * n)[:n], a, b)
    kwargs = dict(inlier_threshold=threshold, max_iterations=max_iterations, seed=seed)
    assert ransac_outcome(ransac_similarity, corr, **kwargs) == ransac_outcome(
        loop_ransac, corr, **kwargs
    )


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # the oracle's residuals
def test_overflowing_sample_drawn_past_the_stop_changes_nothing():
    # a sample holding point 7 overflows H = a0.T @ b0, which LAPACK must
    # never see; with seed 1 the first such sample is the 12th drawn, and
    # one-at-a-time RANSAC stops after 3
    rng = np.random.default_rng(0)
    a = rng.uniform(-5, 5, size=(30, 3))
    b = random_sim3(rng).apply(a)
    a[7], b[7] = 1e200, -1e200
    corr = corr_from(range(30), a, b)
    outcome = ransac_outcome(ransac_similarity, corr, seed=1)
    assert outcome == ransac_outcome(loop_ransac, corr, seed=1)
    assert np.frombuffer(outcome[3], dtype=np.int64).tolist() == [i for i in range(30) if i != 7]
