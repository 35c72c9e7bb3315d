import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csfm.errors import ValidationError
from csfm.rotations import (
    IDENTITY_QUAT,
    exp_rotation,
    geodesic_angle,
    log_matrix,
    log_rotation,
    matrix_to_quat,
    quat_canonical,
    quat_conjugate,
    quat_multiply,
    quat_to_matrix,
    random_quat,
    random_quats,
    rotate_points,
)

from helpers import loop_random_quats


def rz(angle):
    return np.array([np.cos(angle / 2), 0.0, 0.0, np.sin(angle / 2)])


class TestLogExp:
    def test_identity(self):
        assert np.allclose(log_rotation(IDENTITY_QUAT), 0.0, atol=1e-15)

    def test_quarter_turn_about_z(self):
        assert np.allclose(log_rotation(rz(np.pi / 2)), [0, 0, np.pi / 2], atol=1e-12)

    def test_exp_of_quarter_turn(self):
        assert np.allclose(exp_rotation(np.array([0, 0, np.pi / 2])), rz(np.pi / 2), atol=1e-12)

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            q = random_quat(rng)
            back = exp_rotation(log_rotation(q))
            # composition with the inverse must be the identity rotation
            residual = quat_multiply(back, quat_conjugate(q))
            assert geodesic_angle(residual, IDENTITY_QUAT) < 1e-12

    def test_log_magnitude_bounded_by_pi(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            assert np.linalg.norm(log_rotation(random_quat(rng))) <= np.pi + 1e-12

    def test_near_zero_angle(self):
        aa = np.array([1e-13, -2e-13, 1e-13])
        assert np.allclose(log_rotation(exp_rotation(aa)), aa, atol=1e-15)

    def test_half_turn_matrix_round_trip(self):
        # at angle pi the axis sign is arbitrary but the rotation must survive
        for axis in (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([1.0, 1.0, 0]) / np.sqrt(2)):
            q = exp_rotation(axis * np.pi)
            back = exp_rotation(log_rotation(q))
            assert np.allclose(quat_to_matrix(back), quat_to_matrix(q), atol=1e-12)

    def test_half_turn_axis_deterministic(self):
        q = exp_rotation(np.array([0.0, 0.0, np.pi]))
        w = log_rotation(q)
        assert w[2] > 0  # largest-magnitude component canonicalized positive


class TestQuaternionAlgebra:
    def test_canonical_hemisphere(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            q = quat_canonical(rng.normal(size=4))
            assert q[0] >= 0
            assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-12)

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            q = random_quat(rng)
            assert np.allclose(matrix_to_quat(quat_to_matrix(q)), q, atol=1e-12)

    def test_multiply_matches_matrix_product(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b = random_quat(rng), random_quat(rng)
            lhs = quat_to_matrix(quat_multiply(a, b))
            rhs = quat_to_matrix(a) @ quat_to_matrix(b)
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_rotate_points_matches_matrix(self):
        rng = np.random.default_rng(5)
        q = random_quat(rng)
        pts = rng.normal(size=(7, 3))
        assert np.allclose(rotate_points(q, pts), pts @ quat_to_matrix(q).T, atol=1e-14)

    def test_geodesic_of_known_pair(self):
        assert geodesic_angle(rz(0.3), rz(0.8)) == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_exp_log_mutual_inverse(seed):
    rng = np.random.default_rng(seed)
    aa = rng.uniform(-1, 1, size=3)
    aa = aa / max(np.linalg.norm(aa), 1e-9) * rng.uniform(0, np.pi - 1e-6)
    assert np.allclose(log_rotation(exp_rotation(aa)), aa, atol=1e-12)


def quaternion_stack(rng, k):
    """Non-unit quaternions, with ``w == 0`` half-turns and ``-0.0`` among them."""
    q = rng.normal(size=(k, 4)) * rng.choice([1e-3, 1.0, 1e3], size=(k, 1))
    q[::3, 0] = 0.0
    q[1::5, 0] = -0.0
    q[2::4] /= np.linalg.norm(q[2::4], axis=1, keepdims=True)
    return q


def rotation_stack(rng, k):
    """Rotation matrices, half of them half-turns (trace -1), some a few ulps
    off orthogonal."""
    axis = rng.normal(size=(k, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    half_angle = np.where(rng.random(k) < 0.5, np.pi / 2, rng.uniform(0.0, np.pi / 2, size=k))
    q = np.concatenate([np.cos(half_angle)[:, None], axis * np.sin(half_angle)[:, None]], axis=1)
    m = quat_to_matrix(q)
    return m + rng.normal(scale=1e-12, size=m.shape) * (rng.random((k, 1, 1)) < 0.3)


def same_bits(a, b):
    return np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(0, 60))
def test_each_conversion_gives_a_stack_the_bits_of_its_rows(seed, k):
    rng = np.random.default_rng(seed)
    q = quaternion_stack(rng, k)
    p = quaternion_stack(rng, k)
    m = rotation_stack(rng, k)
    assert (np.trace(m, axis1=1, axis2=2) <= 0).sum() >= k // 4
    unit = quat_canonical(q)
    for stack, row in [
        (quat_canonical(q), lambda i: quat_canonical(q[i])),
        (quat_to_matrix(unit), lambda i: quat_to_matrix(unit[i])),
        (matrix_to_quat(m), lambda i: matrix_to_quat(m[i])),
        (quat_multiply(q, p), lambda i: quat_multiply(q[i], p[i])),
        (quat_multiply(q, p[:1]), lambda i: quat_multiply(q[i], p[0])),
        (quat_conjugate(q), lambda i: quat_conjugate(q[i])),
        (geodesic_angle(q, p), lambda i: geodesic_angle(q[i], p[i])),
    ]:
        assert len(stack) == k
        assert all(same_bits(stack[i], row(i)) for i in range(k))
    # a stack of stacks is the same rows
    h = k // 2
    assert same_bits(quat_canonical(q[: 2 * h].reshape(2, h, 4)), unit[: 2 * h].reshape(2, h, 4))
    assert same_bits(
        matrix_to_quat(m[: 2 * h].reshape(h, 2, 3, 3)), matrix_to_quat(m[: 2 * h]).reshape(h, 2, 4)
    )


def axis_angle_stack(rng, k):
    """Axis-angle vectors with angles 0, below and at the 1e-12 series
    switch, small, generic and pi, in a random order."""
    axis = rng.normal(size=(k, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    angle = rng.choice([0.0, 3e-13, 1e-12, 1e-7, 1.0, 2.5, np.pi], size=k)
    aa = axis * angle[:, None]
    aa[: k // 3] = rng.normal(size=(k // 3, 3))
    return aa[rng.permutation(k)]


@pytest.mark.parametrize("seed", range(5))
def test_axis_angle_maps_give_a_stack_the_bits_of_its_rows(seed):
    rng = np.random.default_rng(seed)
    aa = np.concatenate([[[0.0, 0.0, 0.0], [3e-13, -4e-13, 0.0], [0.0, 0.0, np.pi]],
                         axis_angle_stack(rng, 60)])
    q = np.concatenate([exp_rotation(aa), quaternion_stack(rng, 30),
                        [[1.0, 0.0, 0.0, 0.0], [1.0, 1e-13, 0.0, 0.0], [0.0, 0.6, 0.0, -0.8]]])
    m = np.concatenate([quat_to_matrix(quat_canonical(q)), rotation_stack(rng, 30)])
    for stack, items, f in [(exp_rotation(aa), aa, exp_rotation),
                            (log_rotation(q), q, log_rotation),
                            (log_matrix(m), m, log_matrix)]:
        assert len(stack) == len(items)
        assert all(same_bits(stack[i], f(items[i])) for i in range(len(items)))
        assert same_bits(f(items[:62].reshape(2, 31, *items.shape[1:])),
                         stack[:62].reshape(2, 31, -1))
    # the special rows take the series branch and the half turn exactly
    assert same_bits(exp_rotation(aa[0]), IDENTITY_QUAT)
    assert np.linalg.norm(log_rotation(q[-2])) < 1e-12
    assert np.linalg.norm(log_rotation(q[-1])) == pytest.approx(np.pi, abs=1e-15)


@pytest.mark.parametrize("shape", [(), (4,), (2, 2)])
def test_axis_angle_with_a_wrong_last_axis_rejected(shape):
    with pytest.raises(ValidationError, match="shape"):
        exp_rotation(np.ones(shape))


def test_half_turn_stack_canonicalizes_by_its_largest_component():
    q = np.array([[0.0, 0.6, -0.8, 0.0], [-0.0, -0.6, 0.8, 0.0], [0.0, 0.0, 0.0, -1.0]])
    expected = np.array([[-0.0, -0.6, 0.8, -0.0], [-0.0, -0.6, 0.8, 0.0], [-0.0, -0.0, -0.0, 1.0]])
    assert same_bits(quat_canonical(q), expected)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("bad", [0.0, 1e-13, np.nan, np.inf, 1e200])
def test_stack_with_one_bad_row_rejected(bad):
    q = quaternion_stack(np.random.default_rng(0), 5)
    q[3] = bad
    with pytest.raises(ValidationError, match="near-zero or non-finite norm"):
        quat_canonical(q)


@pytest.mark.parametrize("shape", [(), (3,), (5,), (4, 3), (2, 4, 5)])
def test_quaternion_with_a_wrong_last_axis_rejected(shape):
    with pytest.raises(ValidationError, match="shape"):
        quat_canonical(np.ones(shape))


# sha256 prefixes of each conversion over golden_inputs(), recorded when
# each function took one item at a time (the stacked bodies must not move a bit)
GOLDEN = {
    "quat_canonical": "dc2581adf6fcee9e",
    "quat_to_matrix": "96efea6a004cf486",
    "matrix_to_quat": "8806e59c7973a8d1",
    "quat_multiply": "0d2d2dc6ed4f067e",
    "quat_conjugate": "28a2406cbc1d8582",
    "geodesic_angle": "63811e0a87f93ef5",
    "exp_rotation": "a1ed4a191ba4ef29",
    "log_rotation": "0a518b958fa99122",
    "log_matrix": "3c508e3bd1f7e412",
}


def golden_inputs():
    """Quaternions (a third with w == 0, norms 1e-3 to 1e3) and rotation
    matrices (54 of 64 with trace <= 0), made without csfm."""
    rng = np.random.default_rng(11)
    q = rng.normal(size=(64, 4)) * rng.choice([1e-3, 1.0, 1e3], size=(64, 1))
    q[::3, 0] = 0.0
    p = rng.normal(size=(64, 4))
    m, _ = np.linalg.qr(rng.normal(size=(64, 3, 3)))
    m *= np.sign(np.linalg.det(m))[:, None, None]
    return q, p, m


def golden_axis_angles():
    """Axis-angle vectors with angles from 0 through the 1e-12 series
    switch to beyond pi, made without csfm."""
    rng = np.random.default_rng(12)
    return rng.normal(size=(64, 3)) * rng.choice([0.0, 1e-13, 1e-6, 1.0, 3.0], size=(64, 1))


def test_conversions_keep_their_recorded_bits():
    q, p, m = golden_inputs()
    unit = quat_canonical(q)
    got = {
        "quat_canonical": unit,
        "quat_to_matrix": quat_to_matrix(unit),
        "matrix_to_quat": matrix_to_quat(m),
        "quat_multiply": quat_multiply(q, p),
        "quat_conjugate": quat_conjugate(q),
        "geodesic_angle": geodesic_angle(q, p),
        "exp_rotation": exp_rotation(golden_axis_angles()),
        "log_rotation": log_rotation(q),
        "log_matrix": log_matrix(m),
    }
    assert {k: hashlib.sha256(v.tobytes()).hexdigest()[:16] for k, v in got.items()} == GOLDEN


class PlantedNormals:
    """A generator whose ``normal`` serves a fixed stream of values in order,
    whatever shape each call asks for."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float).ravel()
        self.pos = 0

    def normal(self, size):
        count = int(np.prod(size))
        out = self.values[self.pos : self.pos + count]
        assert out.size == count, "planted stream exhausted"
        self.pos += count
        return out.reshape(size)


class TestRandomQuats:
    @pytest.mark.parametrize("count", [0, 1, 2, 7, 450, 4032])
    def test_batch_matches_draws_one_at_a_time(self, count):
        for seed in range(3):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(random_quats(a, count), loop_random_quats(b, count))
            # both leave the generator at the same place
            assert a.normal() == b.normal()

    def test_single_draw_matches_the_loop(self):
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(100):
            assert np.array_equal(random_quat(a), loop_random_quats(b, 1)[0])

    @pytest.mark.parametrize("rejected", [[0], [3], [3, 4], [9], [2, 9, 10, 11]])
    def test_rejected_draws_keep_the_stream_order(self, rejected):
        # rows of norm <= 1e-6 are redrawn: plant some among 10 requested
        # draws (row 9 is the last of the batch, rows 10 and 11 fall after it)
        values = np.random.default_rng(4).normal(size=(20, 4))
        for row in rejected:
            values[row] = 1e-7 * (row % 2)  # both 0 and a tiny nonzero norm
        values[5] = [1e-6, 0.0, 0.0, 0.0]  # a norm of exactly 1e-6 is rejected too
        batch, oracle = PlantedNormals(values), PlantedNormals(values)
        got = random_quats(batch, 10)
        assert np.array_equal(got, loop_random_quats(oracle, 10))
        # the rotations are the kept rows in order, and both read the same draws
        kept = [r for r in range(10 + len(rejected) + 1) if r not in rejected and r != 5]
        unit = values[kept] / np.linalg.norm(values[kept], axis=1)[:, None]
        assert np.allclose(got, quat_canonical(unit), rtol=0.0, atol=1e-15)
        assert batch.pos == oracle.pos == 4 * (kept[-1] + 1)
