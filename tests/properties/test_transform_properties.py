"""Property-based tests for rigid-transform algebra."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.apps.transforms import RigidTransform, mean_transform

angles = st.lists(st.floats(-180.0, 180.0, allow_nan=False), min_size=3, max_size=3)
vectors = st.lists(st.floats(-100.0, 100.0, allow_nan=False), min_size=3, max_size=3)
transforms = st.builds(RigidTransform.from_euler_deg, angles, vectors)


def _elementary(axis: int, angle_deg: float) -> np.ndarray:
    """The 3x3 rotation by *angle_deg* about coordinate axis *axis*."""
    c, s = np.cos(np.radians(angle_deg)), np.sin(np.radians(angle_deg))
    i, j = (axis + 1) % 3, (axis + 2) % 3
    matrix = np.eye(3)
    matrix[i, i], matrix[i, j], matrix[j, i], matrix[j, j] = c, -s, s, c
    return matrix


def _euler_matrix(angles_deg) -> np.ndarray:
    """Extrinsic XYZ: rotate about x, then the fixed y, then the fixed z."""
    ax, ay, az = angles_deg
    return _elementary(2, az) @ _elementary(1, ay) @ _elementary(0, ax)


class TestGroupProperties:
    @given(transforms)
    def test_inverse_involution(self, t):
        assert t.inverse().inverse().is_close(t, 1e-6, 1e-6)

    @given(transforms)
    def test_inverse_cancels(self, t):
        identity = RigidTransform.identity()
        assert t.compose(t.inverse()).is_close(identity, 1e-6, 1e-6)

    @given(transforms, transforms, transforms)
    def test_associativity(self, a, b, c):
        left = a.compose(b).compose(c)
        right = a.compose(b.compose(c))
        assert left.is_close(right, 1e-5, 1e-4)

    @given(transforms, transforms)
    def test_compose_matches_pointwise_application(self, a, b):
        point = np.array([1.0, -2.0, 3.0])
        assert np.allclose(a.compose(b).apply(point), a.apply(b.apply(point)), atol=1e-6)

    @given(transforms)
    def test_rigid_preserves_distances(self, t):
        p = np.array([1.0, 2.0, 3.0])
        q = np.array([-4.0, 0.0, 2.0])
        before = np.linalg.norm(p - q)
        after = np.linalg.norm(t.apply(p) - t.apply(q))
        assert abs(before - after) < 1e-8 * max(1.0, before)


class TestMatrixOracle:
    """The quaternion algebra against plain 3x3 rotation matrices."""

    @given(angles, vectors, angles, vectors)
    def test_quaternion_algebra_matches_matrices(self, a_deg, a_t, b_deg, b_t):
        a = RigidTransform.from_euler_deg(a_deg, a_t)
        b = RigidTransform.from_euler_deg(b_deg, b_t)
        ra, rb = _euler_matrix(a_deg), _euler_matrix(b_deg)
        np.testing.assert_allclose(a.rotation, ra, rtol=0, atol=1e-12)

        composed = a.compose(b)
        np.testing.assert_allclose(composed.rotation, ra @ rb, rtol=0, atol=1e-12)
        np.testing.assert_allclose(composed.translation, ra @ b_t + a_t, rtol=0, atol=1e-12)

        inverse = a.inverse()
        np.testing.assert_allclose(inverse.rotation, ra.T, rtol=0, atol=1e-12)
        np.testing.assert_allclose(inverse.translation, -ra.T @ a_t, rtol=0, atol=1e-12)

        points = np.array([b_t, a_t, [1.0, -2.0, 3.0]])
        np.testing.assert_allclose(a.apply(points), points @ ra.T + a_t, rtol=0, atol=1e-12)
        np.testing.assert_allclose(a.apply(points[2]), ra @ points[2] + a_t, rtol=0, atol=1e-12)

    @given(angles, angles)
    def test_rotation_distance_matches_trace(self, a_deg, b_deg):
        a = RigidTransform.from_euler_deg(a_deg, [0.0, 0.0, 0.0])
        b = RigidTransform.from_euler_deg(b_deg, [0.0, 0.0, 0.0])
        relative = _euler_matrix(a_deg) @ _euler_matrix(b_deg).T
        cosine = (np.trace(relative) - 1.0) / 2.0
        distance = a.rotation_distance_deg(b)
        # The angle is arccos((trace - 1) / 2), but arccos turns the
        # oracle's own ~1e-16 trace error into ~1e-6 degrees near 0 and
        # 180; the cosine pins the same angle on [0, 180] to 1e-12.
        assert abs(np.cos(np.radians(distance)) - cosine) <= 1e-12
        assert abs(distance - np.degrees(np.arccos(np.clip(cosine, -1.0, 1.0)))) <= 1e-5


class TestMetricsProperties:
    @given(transforms, transforms)
    def test_rotation_distance_bounds(self, a, b):
        d = a.rotation_distance_deg(b)
        assert 0.0 <= d <= 180.0 + 1e-9

    @given(transforms)
    def test_self_distance_zero(self, t):
        assert t.rotation_distance_deg(t) < 1e-6
        assert t.translation_distance(t) == 0.0


class TestMeanProperties:
    @given(transforms, st.integers(1, 6))
    def test_mean_of_copies_is_the_transform(self, t, n):
        assert mean_transform([t] * n).is_close(t, 1e-6, 1e-6)

    @given(transforms)
    def test_mean_invariant_to_quaternion_sign(self, t):
        flipped = RigidTransform(quaternion=-t.quaternion, translation=t.translation)
        mean = mean_transform([t, flipped, t])
        assert mean.rotation_distance_deg(t) < 1e-6
