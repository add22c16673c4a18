"""Unit tests: quaternion math and 6-DOF quadcopter dynamics."""

import numpy as np
import pytest

from repro.physics import constants
from repro.physics.rigid_body import (
    QuadcopterBody,
    QuadcopterState,
    euler_from_quaternion,
    quaternion_from_euler,
    quaternion_multiply,
    quaternion_to_rotation,
)


class TestQuaternions:
    def test_identity_rotation(self):
        q = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(quaternion_to_rotation(q), np.eye(3))

    def test_euler_roundtrip(self):
        angles = (0.3, -0.2, 1.1)
        q = quaternion_from_euler(*angles)
        assert np.allclose(euler_from_quaternion(q), angles, atol=1e-9)

    def test_rotation_is_orthonormal(self):
        q = quaternion_from_euler(0.4, 0.1, -0.7)
        rotation = quaternion_to_rotation(q)
        assert np.allclose(rotation @ rotation.T, np.eye(3), atol=1e-9)
        assert np.linalg.det(rotation) == pytest.approx(1.0)

    def test_multiply_matches_rotation_composition(self):
        qa = quaternion_from_euler(0.2, 0.0, 0.0)
        qb = quaternion_from_euler(0.0, 0.3, 0.0)
        composed = quaternion_multiply(qa, qb)
        expected = quaternion_to_rotation(qa) @ quaternion_to_rotation(qb)
        assert np.allclose(quaternion_to_rotation(composed), expected, atol=1e-9)


def hover_thrust_n(body: QuadcopterBody) -> float:
    """Per-motor thrust (N) that exactly balances gravity."""
    return body.mass_kg * constants.GRAVITY_M_S2 / 4.0


def make_body(**kwargs) -> QuadcopterBody:
    defaults = dict(mass_kg=1.0, arm_length_m=0.225)
    defaults.update(kwargs)
    return QuadcopterBody(**defaults)


class TestQuadcopterBody:
    def test_hover_thrust_balances_gravity(self):
        body = make_body()
        hover = hover_thrust_n(body)
        for _ in range(500):
            body.step(np.full(4, hover), 1e-3)
        assert np.allclose(body.state.velocity_m_s, 0.0, atol=1e-6)
        assert np.allclose(body.state.position_m, 0.0, atol=1e-6)

    def test_excess_thrust_climbs(self):
        body = make_body()
        thrust = hover_thrust_n(body) * 1.2
        for _ in range(500):
            body.step(np.full(4, thrust), 1e-3)
        assert body.state.position_m[2] > 0.1
        assert body.state.velocity_m_s[2] > 0.0

    def test_ground_plane_blocks_descent(self):
        body = make_body()
        for _ in range(1000):
            body.step(np.zeros(4), 1e-3)
        assert body.state.position_m[2] == 0.0
        assert body.state.velocity_m_s[2] == 0.0

    def test_differential_thrust_rolls(self):
        body = make_body()
        hover = hover_thrust_n(body)
        # Rotors at +y get more thrust -> negative roll torque... sign aside,
        # the body must start rotating about x or y.
        thrusts = np.array([hover * 1.1, hover * 0.9, hover * 1.1, hover * 0.9])
        for _ in range(100):
            body.step(thrusts, 1e-3)
        assert np.linalg.norm(body.state.angular_velocity_rad_s[0:2]) > 0.05

    def test_yaw_from_spin_imbalance(self):
        body = make_body()
        hover = hover_thrust_n(body)
        # CCW pair (rotors 0,1) stronger -> net yaw torque.
        thrusts = np.array([hover * 1.1, hover * 1.1, hover * 0.9, hover * 0.9])
        for _ in range(200):
            body.step(thrusts, 1e-3)
        assert abs(body.state.angular_velocity_rad_s[2]) > 0.05

    def test_quaternion_stays_normalized(self):
        body = make_body()
        hover = hover_thrust_n(body)
        thrusts = np.array([hover * 1.2, hover * 0.8, hover * 1.05, hover * 0.95])
        for _ in range(2000):
            body.step(thrusts, 1e-3)
        assert np.linalg.norm(body.state.quaternion) == pytest.approx(1.0)

    def test_tilt_produces_horizontal_motion(self):
        body = make_body()
        body.state.quaternion = quaternion_from_euler(0.0, 0.3, 0.0)
        thrust = hover_thrust_n(body) / np.cos(0.3)
        for _ in range(500):
            body.step(np.full(4, thrust), 1e-3)
        assert abs(body.state.position_m[0]) > 0.05

    def test_wrench_validates_inputs(self):
        body = make_body()
        with pytest.raises(ValueError):
            body.wrench_from_motor_thrusts(np.ones(3))
        with pytest.raises(ValueError):
            body.wrench_from_motor_thrusts(np.array([1.0, 1.0, 1.0, -0.5]))

    def test_default_inertia_is_diagonal_positive(self):
        body = make_body()
        eigenvalues = np.linalg.eigvalsh(body.inertia_kg_m2)
        assert np.all(eigenvalues > 0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            QuadcopterBody(mass_kg=-1.0, arm_length_m=0.2)
        with pytest.raises(ValueError):
            QuadcopterBody(mass_kg=1.0, arm_length_m=0.0)
        with pytest.raises(ValueError):
            QuadcopterBody(
                mass_kg=1.0, arm_length_m=0.2, inertia_kg_m2=np.eye(2)
            )

    def test_rejects_negative_drag_area(self):
        with pytest.raises(ValueError, match="Cd\\*A"):
            make_body(drag_coefficient_area=-0.01)
        with pytest.raises(ValueError, match="Cd\\*A"):
            make_body(drag_coefficient_area=float("nan"))
        assert make_body(drag_coefficient_area=0.0).drag_coefficient_area == 0.0

    def test_rejects_non_diagonal_inertia(self):
        inertia = np.diag([0.01, 0.01, 0.02])
        inertia[0, 1] = inertia[1, 0] = 1e-4
        with pytest.raises(ValueError, match="diagonal"):
            make_body(inertia_kg_m2=inertia)

    @pytest.mark.parametrize("moment", [0.0, -0.01, float("nan")])
    def test_rejects_non_positive_principal_moments(self, moment):
        with pytest.raises(ValueError, match="principal moments"):
            make_body(inertia_kg_m2=np.diag([0.01, moment, 0.02]))

    def test_reset_restores_initial_state(self):
        body = make_body()
        body.step(np.full(4, 5.0), 1e-3)
        body.reset()
        assert np.allclose(body.state.position_m, 0.0)
        assert np.allclose(body.state.quaternion, [1, 0, 0, 0])

    def test_state_copy_is_independent(self):
        state = QuadcopterState()
        clone = state.copy()
        clone.position_m[0] = 99.0
        assert state.position_m[0] == 0.0
