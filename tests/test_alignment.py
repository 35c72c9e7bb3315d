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


def golden_corr(kind):
    """A fixed input: ``generic``, a rotation ``half-turn`` away from pi by
    1e-7 (Shepperd's trace <= 0 branch), or ``outliers`` (every third point)."""
    rng = np.random.default_rng(7)
    n = 40 if kind == "outliers" else 12
    a = rng.uniform(-5.0, 5.0, size=(n, 3))
    axis = np.array([1.0, 2.0, 2.0]) / 3.0
    angle = np.pi - 1e-7 if kind == "half-turn" else 0.7
    K = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    R = np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)
    b = 1.7 * (a @ R.T) + np.array([0.3, -2.0, 5.0]) + rng.normal(scale=1e-3, size=(n, 3))
    if kind == "outliers":
        b[::3] += rng.uniform(3.0, 8.0, size=b[::3].shape)
    return corr_from(np.arange(n), a, b)


# (s, q, t) of each fit as float.hex and the bytes of q and t, recorded
# before the closed form was folded into the batched fit
GOLDEN = {
    "generic": [
        ("0x1.b3307fc20720ep+0",
         "10ab2b0b5e0fee3fc00ee9ac8c43bd3f8ffd9bd5ab42cd3f90212e1f2042cd3f",
         "40370ef88d30d33f7b1762b20b0100c0ce9a0c5b93001440"),
    ] * 2,
    "half-turn": [
        ("0x1.b32dcbf0f29f9p+0",
         "83d68c97aa8fb63e97e96c839255d5bfdfffa7c55855e5bfbe265e994255e5bf",
         "d85297e91534d33feefdcd3d030100c07dacc12fac001440"),
    ] * 2,
    "outliers": [
        ("0x1.f5135f66e4477p+0",
         "5eb46e537742ee3ff556877125b8c03fc64d020e7847c93f137aaf2ccb8ccc3f",
         "0a1ed9b9411f044040836ca6fce1c0bf80fcafb5510d1a40"),
        ("0x1.b334529c1e8ebp+0",
         "a209a6fa5f0fee3fcaaa6d2fc542bd3fcb71524a5242cd3f899414bb8b42cd3f",
         "c01c79c42e37d33f1e38be99700000c0989fdfdbd6ff1340"),
    ],
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_horn_and_ransac_keep_their_recorded_bits(kind):
    corr = golden_corr(kind)
    ransac, ids = ransac_similarity(corr, seed=5)
    got = [(sim.s.hex(), sim.q.tobytes().hex(), sim.t.tobytes().hex())
           for sim in (horn_similarity(corr), ransac)]
    assert got == GOLDEN[kind]
    inliers = [i for i in range(len(corr)) if kind != "outliers" or i % 3]
    assert ids.tolist() == inliers


OVERFLOW = "similarity fit overflows"


def test_horn_refuses_an_overflowing_fit():
    # 1e154**2 summed over the points leaves the double range in a0.T @ b0
    rng = np.random.default_rng(0)
    a = rng.uniform(-1.0, 1.0, size=(10, 3)) * 1e154
    with pytest.raises(ValidationError, match=OVERFLOW):
        horn_similarity(corr_from(range(10), a, random_sim3(rng).apply(a)))


def first_sample_holding_two(points, n, seed):
    """1-based scan position of the first RANSAC sample that draws two of
    ``points``."""
    rng = np.random.default_rng(seed)
    it = 1
    while np.isin(rng.choice(n, size=3, replace=False), points).sum() < 2:
        it += 1
    return it


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # the oracle's residuals
@pytest.mark.parametrize("seed", [2, 4, 9])
def test_ransac_raises_the_overflow_at_the_sample_the_oracle_does(seed):
    # a sample with one of the huge points 7-9 is collinear to working
    # precision; one with two of them overflows a0.T @ b0.  No hypothesis
    # gets an inlier at this threshold, so both scan up to max_iterations.
    rng = np.random.default_rng(seed)
    a = rng.uniform(-5, 5, size=(30, 3))
    b = random_sim3(rng).apply(a) + rng.normal(scale=1e-3, size=(30, 3))
    a[7:10] = rng.normal(size=(3, 3)) * 1e200
    b[7:10] = -a[7:10]
    corr = corr_from(range(30), a, b)
    stop = first_sample_holding_two([7, 8, 9], 30, seed)
    assert stop > 1
    for fn in (ransac_similarity, loop_ransac):
        with pytest.raises(RansacFailureError, match=f"in {stop - 1} iterations"):
            fn(corr, inlier_threshold=1e-12, max_iterations=stop - 1, seed=seed)
        with pytest.raises(ValidationError, match=OVERFLOW):
            fn(corr, inlier_threshold=1e-12, max_iterations=stop, seed=seed)
