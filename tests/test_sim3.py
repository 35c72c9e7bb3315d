import numpy as np
import pytest

from csfm.errors import ValidationError
from csfm.rotations import IDENTITY_QUAT, geodesic_angle, quat_multiply, rotate_points
from csfm.sim3 import Sim3

from helpers import random_sim3


def rz(angle):
    return np.array([np.cos(angle / 2), 0.0, 0.0, np.sin(angle / 2)])


def product(x, y):
    """The group product: the similarity that applies ``y`` first, then ``x``."""
    return Sim3(
        s=x.s * y.s,
        q=quat_multiply(x.q, y.q),
        t=x.s * rotate_points(x.q, y.t) + x.t,
    )


class TestApply:
    def test_identity(self):
        p = np.array([1.0, -2.0, 3.0])
        assert np.allclose(Sim3().apply(p), p, atol=1e-15)

    def test_hand_example(self):
        # s=2, quarter turn about z, lift by 1: (1,0,0) -> (0,2,1)
        x = Sim3(s=2.0, q=rz(np.pi / 2), t=np.array([0.0, 0.0, 1.0]))
        assert np.allclose(x.apply(np.array([1.0, 0.0, 0.0])), [0.0, 2.0, 1.0], atol=1e-12)

    def test_batch(self):
        rng = np.random.default_rng(0)
        x = random_sim3(rng)
        pts = rng.normal(size=(11, 3))
        rows = np.stack([x.apply(p) for p in pts])
        assert np.allclose(x.apply(pts), rows, atol=1e-12)


class TestGroupOps:
    def test_compose_applies_right_first(self):
        rng = np.random.default_rng(1)
        x, y = random_sim3(rng), random_sim3(rng)
        p = rng.normal(size=3)
        assert np.allclose(product(x, y).apply(p), x.apply(y.apply(p)), atol=1e-10)

    def test_inverse(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = random_sim3(rng)
            ident = product(x, x.inverse())
            assert ident.s == pytest.approx(1.0, abs=1e-12)
            assert geodesic_angle(ident.q, IDENTITY_QUAT) < 1e-12
            assert np.allclose(ident.t, 0.0, atol=1e-12)

    def test_inverse_apply_round_trip(self):
        rng = np.random.default_rng(3)
        x = random_sim3(rng)
        p = rng.normal(size=3)
        assert np.allclose(x.inverse().apply(x.apply(p)), p, atol=1e-12)


class TestValidation:
    def test_nonpositive_scale(self):
        with pytest.raises(ValidationError):
            Sim3(s=0.0)
        with pytest.raises(ValidationError):
            Sim3(s=-1.0)

    def test_nonfinite(self):
        with pytest.raises(ValidationError):
            Sim3(s=np.inf)
        with pytest.raises(ValidationError):
            Sim3(t=np.array([np.nan, 0, 0]))

    @pytest.mark.parametrize("q", [np.ones((2, 4)), np.ones((1, 4)), np.ones(3)])
    def test_rotation_is_one_quaternion(self, q):
        with pytest.raises(ValidationError, match="quaternion"):
            Sim3(q=q)


def test_json_round_trip():
    rng = np.random.default_rng(4)
    x = random_sim3(rng)
    y = Sim3.from_json(x.to_json())
    assert y.s == x.s
    assert np.array_equal(y.q, x.q)
    assert np.array_equal(y.t, x.t)
