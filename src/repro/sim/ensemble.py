"""Ensemble flight simulator: N closed-loop trials stepped in lockstep.

A chaos campaign (or a gust/degradation Monte Carlo) is many *independent*
closed-loop flights of the same airframe.  The scalar
:class:`~repro.sim.simulator.FlightSimulator` re-executes the same
rigid-body / EKF / battery / mixer arithmetic once per trial in pure-Python
loops — the last major serial hot path after the design-space and SLAM
kernels were vectorized.  :class:`EnsembleFlightSimulator` holds N trials'
state as structure-of-arrays (rigid body ``(N,3)``/``(N,4)``, EKF mean and
covariance ``(N,9)``/``(N,9,9)``, battery, per-motor thrust and health
``(N,4)``) and advances every *live* lane with masked NumPy kernels, while
per-trial scalar control flow (the autopilot's failsafe ladder, fault
windows, mission phases) runs over the mask through per-lane facades.

The equivalence contract is the strictest tier in DESIGN.md: **bit-for-bit**
per lane against the scalar oracle.  Campaign fingerprints fold ~15k
closed-loop ticks of chaotic feedback, so every kernel here mirrors the
scalar code's exact operation order and primitive choice — including the
places where ``math.tan``/``math.asin``/``math.acos`` differ from their
NumPy counterparts in the last ulp (those run as per-lane Python loops), and
the RNG discipline below.

RNG discipline
--------------
Every trial's sensors use the *same* hard-coded seeds (``Imu(seed=1)``,
``Barometer(seed=2)``, ``Gps(seed=3)``, ``Magnetometer(seed=4)``), so while
all lanes draw on every fire the streams are identical across lanes: one
*canonical* generator per sensor is drawn once and broadcast.  The only
events that desynchronize a lane's stream are GPS denial (the scalar sensor
raises *before* drawing) and a frozen barometer (returns stale without
drawing).  On the first partially-masked fire the ensemble lazily
materializes per-lane generators by replaying each lane's exact draw
pattern from its seed, then draws per lane from that point on.

Defection
---------
A lane that hits an unvectorizable path (an injected SLAM position fix, a
velocity target, or an explicit :meth:`LaneSim.defect`) detaches from the
ensemble into a freshly materialized scalar :class:`FlightSimulator` and
continues bit-for-bit: every array row, schedule deadline, PID register,
counter, and RNG state transfers exactly.  The lane facade the autopilot
holds simply switches backends, so fault-injector restore closures that
captured facade components (or the mixer's ``motor_health`` row view) keep
working across the switch.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.control.cascade import ControlRates, TargetMode
from repro.physics import constants
from repro.physics.environment import Wind
from repro.physics.rigid_body import (
    ROTOR_ANGLES_RAD,
    ROTOR_SPIN,
    TORQUE_THRUST_RATIO_M,
    QuadcopterState,
    euler_from_quaternion,
)
from repro.sim.simulator import DroneModel, FlightSimulator, SimSample

__all__ = [
    "EnsembleFlightSimulator",
    "LaneSim",
    "clear_ensemble_scratch",
    "hover_gust_monte_carlo",
]

STATE_SIZE = 9

#: Shared scratch/constant pool keyed by ``(name, key)`` — measurement
#: matrices, identity blocks, dt-keyed jacobians.  These are written once
#: and never mutated; :func:`clear_ensemble_scratch` drops them (the
#: ``repro.clear_all_caches`` fan-out hook).
_SCRATCH: Dict[Tuple, np.ndarray] = {}


def clear_ensemble_scratch() -> None:
    """Drop the ensemble's shared constant/scratch pool."""
    _SCRATCH.clear()


def _scratch(name: str, key: Tuple, build) -> np.ndarray:
    entry = _SCRATCH.get((name, key))
    if entry is None:
        entry = build()
        _SCRATCH[(name, key)] = entry
    return entry


# -- batched math kernels ----------------------------------------------------
#
# Each helper mirrors one scalar routine bitwise.  ``np.linalg.norm`` is NOT
# bit-identical to an explicit sqrt-of-dot on this BLAS, but the matmul
# dot-trick below is — it reuses the same fused reduction the scalar norm
# performs.


def _rows_norm(v: np.ndarray) -> np.ndarray:
    """Per-row Euclidean norm, bit-identical to ``np.linalg.norm(row)``."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])


def _quat_to_rotation_rows(q: np.ndarray) -> np.ndarray:
    """(N,4) quaternions -> (N,3,3) rotations; mirrors quaternion_to_rotation."""
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    n = q.shape[0]
    out = np.empty((n, 3, 3))
    out[:, 0, 0] = 1 - 2 * (y * y + z * z)
    out[:, 0, 1] = 2 * (x * y - w * z)
    out[:, 0, 2] = 2 * (x * z + w * y)
    out[:, 1, 0] = 2 * (x * y + w * z)
    out[:, 1, 1] = 1 - 2 * (x * x + z * z)
    out[:, 1, 2] = 2 * (y * z - w * x)
    out[:, 2, 0] = 2 * (x * z - w * y)
    out[:, 2, 1] = 2 * (y * z + w * x)
    out[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return out


def _quat_multiply_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Hamilton product; mirrors quaternion_multiply exactly.

    The full product is kept even when callers pass ``b[:, 0] == 0`` (the
    omega quaternion): the scalar path computes the ``aw*bw`` terms too, and
    signed zeros must match.
    """
    aw, ax, ay, az = a[:, 0], a[:, 1], a[:, 2], a[:, 3]
    bw, bx, by, bz = b[:, 0], b[:, 1], b[:, 2], b[:, 3]
    out = np.empty_like(a)
    out[:, 0] = aw * bw - ax * bx - ay * by - az * bz
    out[:, 1] = aw * bx + ax * bw + ay * bz - az * by
    out[:, 2] = aw * by - ax * bz + ay * bw + az * bx
    out[:, 3] = aw * bz + ax * by - ay * bx + az * bw
    return out


def _quat_from_euler_rows(euler: np.ndarray) -> np.ndarray:
    """(N,3) ZYX Euler -> (N,4) quaternions; mirrors quaternion_from_euler.

    ``np.cos``/``np.sin`` agree bitwise with ``math.cos``/``math.sin`` on
    this platform, so the half-angle chain vectorizes directly.
    """
    cr, sr = np.cos(euler[:, 0] / 2), np.sin(euler[:, 0] / 2)
    cp, sp = np.cos(euler[:, 1] / 2), np.sin(euler[:, 1] / 2)
    cy, sy = np.cos(euler[:, 2] / 2), np.sin(euler[:, 2] / 2)
    out = np.empty((euler.shape[0], 4))
    out[:, 0] = cr * cp * cy + sr * sp * sy
    out[:, 1] = sr * cp * cy - cr * sp * sy
    out[:, 2] = cr * sp * cy + sr * cp * sy
    out[:, 3] = cr * cp * sy - sr * sp * cy
    return out


def _euler_from_quaternion_rows(
    q: np.ndarray, indices: np.ndarray
) -> np.ndarray:
    """(N,4) quaternions -> (N,3) ZYX Euler; mirrors euler_from_quaternion.

    Neither ``math.asin``/``np.arcsin`` nor ``math.atan2``/``np.arctan2``
    are bit-identical pairs on this platform, so all three angles run as a
    per-lane Python loop over ``indices`` (the live lanes); other rows are
    left at zero and must be masked off by the caller.  Only the operand
    arithmetic is vectorized.
    """
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    out = np.zeros((q.shape[0], 3))
    roll_y = 2 * (w * x + y * z)
    roll_x = 1 - 2 * (x * x + y * y)
    sin_pitch = 2 * (w * y - z * x)
    yaw_y = 2 * (w * z + x * y)
    yaw_x = 1 - 2 * (y * y + z * z)
    for i in indices:
        out[i, 0] = math.atan2(roll_y[i], roll_x[i])
        out[i, 1] = math.asin(max(-1.0, min(1.0, sin_pitch[i])))
        out[i, 2] = math.atan2(yaw_y[i], yaw_x[i])
    return out


def _rotation_from_euler_rows(
    roll: np.ndarray, pitch: np.ndarray, yaw: np.ndarray
) -> np.ndarray:
    """Mirrors estimation._rotation_from_euler row-wise."""
    cr, sr = np.cos(roll), np.sin(roll)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cy, sy = np.cos(yaw), np.sin(yaw)
    out = np.empty((roll.shape[0], 3, 3))
    out[:, 0, 0] = cy * cp
    out[:, 0, 1] = cy * sp * sr - sy * cr
    out[:, 0, 2] = cy * sp * cr + sy * sr
    out[:, 1, 0] = sy * cp
    out[:, 1, 1] = sy * sp * sr + cy * cr
    out[:, 1, 2] = sy * sp * cr - cy * sr
    out[:, 2, 0] = -sp
    out[:, 2, 1] = cp * sr
    out[:, 2, 2] = cp * cr
    return out


def _euler_rates_rows(
    roll: np.ndarray,
    pitch: np.ndarray,
    gyro: np.ndarray,
    indices: np.ndarray,
) -> np.ndarray:
    """Mirrors estimation._euler_rates row-wise.

    ``math.tan`` disagrees with ``np.tan`` in the last ulp, so the tangent
    runs per lane; the ``cos(pitch)`` singularity clamp vectorizes.
    """
    n = roll.shape[0]
    cr, sr = np.cos(roll), np.sin(roll)
    cp = np.cos(pitch)
    tp = np.zeros(n)
    for i in indices:
        tp[i] = math.tan(pitch[i])
    cp = np.where(np.abs(cp) < 1e-6, np.copysign(1e-6, cp), cp)
    transform = np.zeros((n, 3, 3))
    transform[:, 0, 0] = 1.0
    transform[:, 0, 1] = sr * tp
    transform[:, 0, 2] = cr * tp
    transform[:, 1, 1] = cr
    transform[:, 1, 2] = -sr
    transform[:, 2, 1] = sr / cp
    transform[:, 2, 2] = cr / cp
    return np.matmul(transform, gyro[:, :, None])[:, :, 0]


def _wrap_rows(angle: np.ndarray) -> np.ndarray:
    """Mirrors estimation._wrap_angle elementwise."""
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


class _Readings:
    """Which sensors fired this tick, batch-wide (the SensorReadings mirror).

    Fire times are shared (every lane runs the same schedule), so the fired
    flags are plain bools; values and availability are per-lane arrays.
    """

    __slots__ = (
        "imu_fired",
        "accel",
        "gyro",
        "baro_fired",
        "baro",
        "gps_fired",
        "gps_fix",
        "gps_has_fix",
        "mag_fired",
        "mag",
    )

    def __init__(self) -> None:
        self.imu_fired = False
        self.accel: Optional[np.ndarray] = None
        self.gyro: Optional[np.ndarray] = None
        self.baro_fired = False
        self.baro: Optional[np.ndarray] = None
        self.gps_fired = False
        self.gps_fix: Optional[np.ndarray] = None
        self.gps_has_fix: Optional[np.ndarray] = None
        self.mag_fired = False
        self.mag: Optional[np.ndarray] = None


class EnsembleFlightSimulator:
    """N independent closed-loop flights stepped in lockstep.

    All lanes share one airframe model, physics rate, and EKF setting (a
    campaign driver groups trials by ``use_ekf`` before building
    ensembles).  Per-lane divergence — injected faults, failsafe ladders,
    deaths — is handled by masking; a lane that needs a scalar-only feature
    defects via its :class:`LaneSim` facade.

    ``winds`` (optional) gives every lane its own seeded
    :class:`~repro.physics.environment.Wind`; all winds must share mean /
    gust / correlation parameters (only the seed may differ), which is what
    the gust Monte Carlo needs.
    """

    def __init__(
        self,
        model: DroneModel,
        n_lanes: int,
        physics_rate_hz: float = 500.0,
        use_ekf: bool = False,
        winds: Optional[Sequence[Wind]] = None,
        record_rate_hz: float = 50.0,
        rates=None,
    ):
        if n_lanes <= 0:
            raise ValueError(f"need at least one lane, got {n_lanes}")
        # The template is the single source of every derived constant — the
        # mixer inverse, inertia, power denominators — so the ensemble can
        # never drift from what FlightSimulator.__init__ computes.
        template = FlightSimulator(
            model,
            physics_rate_hz=physics_rate_hz,
            use_ekf=use_ekf,
            record_rate_hz=record_rate_hz,
        )
        if rates is not None:
            template.controller.rates = rates
        self._template = template
        self.model = model
        self.n_lanes = n_lanes
        self.physics_rate_hz = physics_rate_hz
        self.use_ekf = use_ekf
        self.time_s = 0.0
        self._record_period_s = template._record_period_s
        self._next_record_s = 0.0

        n = n_lanes
        # -- rigid body --------------------------------------------------------
        self._pos = np.zeros((n, 3))
        self._vel = np.zeros((n, 3))
        self._quat = np.zeros((n, 4))
        self._quat[:, 0] = 1.0
        self._omega = np.zeros((n, 3))
        body = template.body
        self._mass = body.mass_kg
        self._inertia = np.asarray(body.inertia_kg_m2, dtype=float)
        # QuadcopterBody only accepts a diagonal inertia.
        self._principal_inertia = np.diag(self._inertia).copy()
        self._arm_x = body.arm_length_m * np.cos(ROTOR_ANGLES_RAD)
        self._arm_y = body.arm_length_m * np.sin(ROTOR_ANGLES_RAD)
        self._gravity_row = np.array(
            [0.0, 0.0, -self._mass * constants.GRAVITY_M_S2]
        )
        self._air_density = body.environment.air_density
        self._cda = body.drag_coefficient_area

        # -- wind (optional, per-lane seeds) ----------------------------------
        self._winds = list(winds) if winds is not None else None
        if self._winds is not None:
            if len(self._winds) != n:
                raise ValueError(
                    f"need one wind per lane: {len(self._winds)} != {n}"
                )
            first = self._winds[0]
            for wind in self._winds:
                if (
                    tuple(wind.mean_m_s) != tuple(first.mean_m_s)
                    or wind.gust_speed_m_s != first.gust_speed_m_s
                    or wind.correlation_time_s != first.correlation_time_s
                ):
                    raise ValueError(
                        "ensemble winds must share mean/gust/correlation "
                        "(only seeds may differ)"
                    )
            self._wind_mean = np.asarray(first.mean_m_s, dtype=float)
            self._wind_gust = first.gust_speed_m_s
            self._wind_corr = first.correlation_time_s
            self._wind_states = np.zeros((n, 3))
            self._wind_gens = [
                np.random.default_rng(wind.seed) for wind in self._winds
            ]
            self._wind_block: Optional[np.ndarray] = None
            self._wind_block_pos = 0
            if self._wind_gust > 0:
                tick = 1.0 / physics_rate_hz
                self._wind_alpha = math.exp(-tick / self._wind_corr)
                self._wind_noise_scale = self._wind_gust * math.sqrt(
                    1.0 - self._wind_alpha * self._wind_alpha
                )

        # -- EKF ---------------------------------------------------------------
        self._ekf_state = np.zeros((n, STATE_SIZE))
        self._ekf_cov = np.broadcast_to(
            np.eye(STATE_SIZE) * 0.1, (n, STATE_SIZE, STATE_SIZE)
        ).copy()
        self._ekf_flops = np.zeros(n, dtype=np.int64)
        self._ekf_predictions = np.zeros(n, dtype=np.int64)
        self._ekf_corrections = np.zeros(n, dtype=np.int64)
        self.ekf_resets = np.zeros(n, dtype=np.int64)
        ekf = template.ekf
        self._ekf_accel_noise = ekf.accel_noise
        self._ekf_gyro_noise = ekf.gyro_noise
        self._ekf_gps_noise = ekf.gps_noise_m
        self._ekf_baro_noise = ekf.baro_noise_m
        self._ekf_mag_noise = ekf.mag_noise_rad

        # -- battery -----------------------------------------------------------
        battery = template.battery
        self._cells = battery.cells
        self._capacity_mah = battery.capacity_mah
        self._c_rating = battery.c_rating
        self._max_cont_a = battery.max_continuous_current_a
        self._usable_mah = battery.usable_mah
        self._resistance_base = (
            battery.internal_resistance_ohm_per_cell * battery.cells
        )
        self._used_mah = np.zeros(n)
        self._fault_res = np.zeros(n)
        self.depleted = np.zeros(n, dtype=bool)
        self._last_current = np.zeros(n)
        self._voltage_denom = (
            battery.cells * constants.LIPO_CELL_NOMINAL_V * 1.135
        )

        # -- power chain -------------------------------------------------------
        self._hover_eff = template._hover_eff
        self._induced_denom = template._induced_power_denom
        self._compute_power_w = model.compute_power_w
        self._sensors_power_w = model.sensors_power_w
        self._max_thrust = model.max_thrust_per_motor_n

        # -- controller --------------------------------------------------------
        controller = template.controller
        self._rates = controller.rates
        self._target_pos = np.zeros((n, 3))
        self._target_yaw = np.zeros(n)
        self._att_target = np.zeros((n, 3))
        self._collective = np.full(n, self._mass * constants.GRAVITY_M_S2)
        self._torque_cmd = np.zeros((n, 3))
        self._ctl_time = 0.0
        self._next_position_update = 0.0
        self._next_attitude_update = 0.0
        self._position_level_updates = 0
        pc = controller.position_controller
        self._pos_kp = pc.kp
        self._max_vel = pc.max_velocity_m_s
        self._pos_updates = 0
        vc = pc.velocity
        self._vel_kp, self._vel_ki, self._vel_kd = vc.kp, vc.ki, vc.kd
        self._max_accel = vc.max_acceleration_m_s2
        self._vel_integ = np.zeros((n, 3))
        self._vel_last = np.zeros((n, 3))
        self._vel_has_last = False
        self._vel_updates = 0
        self._vel_pid_updates = 0
        ac = controller.attitude_controller
        self._angle_kp = ac.angle_kp
        self._rate_kp, self._rate_ki, self._rate_kd = (
            ac.rate_kp,
            ac.rate_ki,
            ac.rate_kd,
        )
        self._max_rate = ac.max_rate_rad_s
        self._rate_integ = np.zeros((n, 3))
        self._rate_last = np.zeros((n, 3))
        self._rate_has_last = False
        self._att_updates = 0
        self._rate_pid_updates = 0
        tc = controller.thrust_controller
        self._motor_tc = tc.motor_time_constant_s
        self._lag = np.zeros((n, 4))
        self._thrust_updates = 0
        self._mixer_inverse = tc.mixer._inverse
        self.motor_health = np.ones((n, 4))
        self._mixes = np.zeros(n, dtype=np.int64)
        self._saturations = np.zeros(n, dtype=np.int64)
        self._max_tilt = math.radians(35.0)
        self._sin_max_tilt = math.sin(self._max_tilt)
        self._cos_max_tilt = math.cos(self._max_tilt)

        # -- sensors -----------------------------------------------------------
        suite = template.sensors
        self._sensor_time = 0.0
        self._due = {"imu": 0.0, "baro": 0.0, "gps": 0.0, "mag": 0.0}
        self._imu_period = suite.imu.period_s
        self._imu_accel_noise = suite.imu.accel_noise_m_s2
        self._imu_gyro_noise = suite.imu.gyro_noise_rad_s
        self._imu_seed = suite.imu.seed
        self._imu_samples = np.zeros(n, dtype=np.int64)
        self._imu_last_vel = np.zeros((n, 3))
        self._imu_has_last = False
        self._accel_bias = np.zeros((n, 3))
        self._gyro_bias = np.zeros((n, 3))
        self._accel_bias_obj: List[object] = [(0.0, 0.0, 0.0)] * n
        self._gyro_bias_obj: List[object] = [(0.0, 0.0, 0.0)] * n
        self._gravity_col = np.array([0.0, 0.0, constants.GRAVITY_M_S2])
        self._baro_period = suite.barometer.period_s
        self._baro_noise = suite.barometer.noise_m
        self._baro_bias = suite.barometer.bias_m
        self._baro_seed = suite.barometer.seed
        self._baro_samples = np.zeros(n, dtype=np.int64)
        self._baro_draws = np.zeros(n, dtype=np.int64)
        self._baro_last_alt = np.zeros(n)
        self.baro_frozen = np.zeros(n, dtype=bool)
        self._gps_period = suite.gps.period_s
        self._gps_hnoise = suite.gps.horizontal_noise_m
        self._gps_vnoise = suite.gps.vertical_noise_m
        self._gps_seed = suite.gps.seed
        self._gps_samples = np.zeros(n, dtype=np.int64)
        self.gps_available = np.ones(n, dtype=bool)
        self._last_gps_fix = np.zeros(n)
        self._mag_period = suite.magnetometer.period_s
        self._mag_noise = suite.magnetometer.noise_rad
        self._mag_hard_iron = suite.magnetometer.hard_iron_bias_rad
        self._mag_seed = suite.magnetometer.seed
        self._mag_samples = np.zeros(n, dtype=np.int64)
        # Canonical generators: one per sensor, valid while every live lane
        # draws on every fire.  ``*_gens`` materialize lazily on desync.
        self._imu_gen = np.random.default_rng(self._imu_seed)
        self._baro_gen: Optional[np.random.Generator] = np.random.default_rng(
            self._baro_seed
        )
        self._gps_gen: Optional[np.random.Generator] = np.random.default_rng(
            self._gps_seed
        )
        self._mag_gen = np.random.default_rng(self._mag_seed)
        self._baro_lane_gens: Optional[List] = None
        self._gps_lane_gens: Optional[List] = None

        # -- lane bookkeeping --------------------------------------------------
        #: attached & not frozen: lanes the collective step advances.
        self.live = np.ones(n, dtype=bool)
        #: still backed by the ensemble arrays (False once defected).
        self.attached = np.ones(n, dtype=bool)
        self._uniform = True
        #: Sentinel all-true mask: commits called with *this exact array*
        #: take the unmasked fast path.  Partial masks (EKF ok-sets, baro
        #: draw masks) are always fresh arrays and always go masked.
        self._full = np.ones(n, dtype=bool)
        self._sample_rows: List[List[SimSample]] = [[] for _ in range(n)]
        self._lanes: List[Optional["LaneSim"]] = [None] * n

    # -- masked commit helpers ---------------------------------------------------

    def _commit(self, dst: np.ndarray, src: np.ndarray, mask: np.ndarray) -> None:
        """Write ``src`` into ``dst`` on masked rows, in place.

        In-place (``np.copyto``) so the row views held by lane facades and
        fault-injector closures stay valid; dead and defected lanes' rows
        are never touched.
        """
        if mask is self._full:
            np.copyto(dst, src)
        elif dst.ndim == 1:
            np.copyto(dst, src, where=mask)
        elif dst.ndim == 2:
            np.copyto(dst, src, where=mask[:, None])
        else:
            np.copyto(dst, src, where=mask[:, None, None])

    def _refresh_uniform(self) -> None:
        self._uniform = bool(self.live.all())

    def freeze_lane(self, index: int) -> None:
        """Stop advancing a lane (its trial ended); state stays readable."""
        self.live[index] = False
        self._refresh_uniform()

    # -- sensors -----------------------------------------------------------------

    def _sample_imu(self, live: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        period = self._imu_period
        if not self._imu_has_last:
            accel_world = np.zeros((self.n_lanes, 3))
        else:
            accel_world = (self._vel - self._imu_last_vel) / period
        self._commit(self._imu_last_vel, self._vel, live)
        self._imu_has_last = True
        rotation = _quat_to_rotation_rows(self._quat)
        specific_force = accel_world + self._gravity_col
        accel_body = np.matmul(
            rotation.transpose(0, 2, 1), specific_force[:, :, None]
        )[:, :, 0]
        gyro_body = self._omega.copy()
        # Every lane's scalar IMU shares seed 1 and draws on every fire, so
        # one canonical stream serves all lanes; the IMU can never desync.
        accel_noise = self._imu_gen.normal(0.0, self._imu_accel_noise, 3)
        gyro_noise = self._imu_gen.normal(0.0, self._imu_gyro_noise, 3)
        accel_body += self._accel_bias + accel_noise
        gyro_body += self._gyro_bias + gyro_noise
        self._imu_samples[live] += 1
        return accel_body, gyro_body

    def _materialize_baro_gens(self, live: np.ndarray) -> None:
        """First frozen-vs-drawing split: replay each live lane's stream."""
        gens: List = [None] * self.n_lanes
        for i in np.flatnonzero(live):
            gen = np.random.default_rng(self._baro_seed)
            for _ in range(int(self._baro_draws[i])):
                gen.normal(0.0, self._baro_noise)
            gens[i] = gen
        self._baro_lane_gens = gens
        self._baro_gen = None

    def _sample_baro(self, live: np.ndarray) -> np.ndarray:
        self._baro_samples[live] += 1
        draw = live & ~self.baro_frozen
        n_draw = int(np.count_nonzero(draw))
        if self._baro_lane_gens is None and 0 < n_draw < int(
            np.count_nonzero(live)
        ):
            self._materialize_baro_gens(live)
        if self._baro_lane_gens is None:
            if n_draw:
                assert self._baro_gen is not None
                noise = float(self._baro_gen.normal(0.0, self._baro_noise))
                new_alt = (self._pos[:, 2] + self._baro_bias) + noise
                self._commit(self._baro_last_alt, new_alt, draw)
                self._baro_draws[draw] += 1
        else:
            for i in np.flatnonzero(draw):
                gen = self._baro_lane_gens[i]
                noise = float(gen.normal(0.0, self._baro_noise))
                self._baro_last_alt[i] = (
                    float(self._pos[i, 2]) + self._baro_bias
                ) + noise
                self._baro_draws[i] += 1
        # A frozen barometer still reports (stale) altitude — the scalar
        # sensor returns _last_altitude_m either way.
        return self._baro_last_alt

    def _materialize_gps_gens(self, live: np.ndarray) -> None:
        gens: List = [None] * self.n_lanes
        for i in np.flatnonzero(live):
            gen = np.random.default_rng(self._gps_seed)
            for _ in range(int(self._gps_samples[i])):
                gen.normal(0.0, self._gps_hnoise)
                gen.normal(0.0, self._gps_hnoise)
                gen.normal(0.0, self._gps_vnoise)
            gens[i] = gen
        self._gps_lane_gens = gens
        self._gps_gen = None

    def _sample_gps(
        self, live: np.ndarray, fix: np.ndarray
    ) -> Optional[np.ndarray]:
        n_fix = int(np.count_nonzero(fix))
        if self._gps_lane_gens is None and 0 < n_fix < int(
            np.count_nonzero(live)
        ):
            self._materialize_gps_gens(live)
        if n_fix == 0:
            return None
        if self._gps_lane_gens is None:
            assert self._gps_gen is not None
            gen = self._gps_gen
            noise = np.array(
                [
                    gen.normal(0.0, self._gps_hnoise),
                    gen.normal(0.0, self._gps_hnoise),
                    gen.normal(0.0, self._gps_vnoise),
                ]
            )
            positions = self._pos + noise
        else:
            positions = np.zeros((self.n_lanes, 3))
            for i in np.flatnonzero(fix):
                gen = self._gps_lane_gens[i]
                noise = np.array(
                    [
                        gen.normal(0.0, self._gps_hnoise),
                        gen.normal(0.0, self._gps_hnoise),
                        gen.normal(0.0, self._gps_vnoise),
                    ]
                )
                positions[i] = self._pos[i] + noise
        self._gps_samples[fix] += 1
        return positions

    def _sample_mag(self, live: np.ndarray) -> np.ndarray:
        q = self._quat
        w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
        # Only yaw is observable.  np.arctan2 is NOT bit-identical to
        # math.atan2, so the angle itself runs per lane (10 Hz — cheap).
        yaw_y = 2 * (w * z + x * y)
        yaw_x = 1 - 2 * (y * y + z * z)
        yaw = np.zeros(self.n_lanes)
        for i in np.flatnonzero(live):
            yaw[i] = math.atan2(yaw_y[i], yaw_x[i])
        noise = float(self._mag_gen.normal(0.0, self._mag_noise))
        measured = (yaw + self._mag_hard_iron) + noise
        self._mag_samples[live] += 1
        return (measured + math.pi) % (2.0 * math.pi) - math.pi

    def _poll_sensors(self, dt: float, live: np.ndarray) -> _Readings:
        self._sensor_time += dt
        now = self._sensor_time
        readings = _Readings()
        if now + 1e-12 >= self._due["imu"]:
            self._due["imu"] = max(self._due["imu"] + self._imu_period, now)
            readings.imu_fired = True
            readings.accel, readings.gyro = self._sample_imu(live)
        if now + 1e-12 >= self._due["baro"]:
            self._due["baro"] = max(self._due["baro"] + self._baro_period, now)
            readings.baro_fired = True
            readings.baro = self._sample_baro(live)
        if now + 1e-12 >= self._due["gps"]:
            self._due["gps"] = max(self._due["gps"] + self._gps_period, now)
            fix = live & self.gps_available
            readings.gps_fired = True
            readings.gps_has_fix = fix
            readings.gps_fix = self._sample_gps(live, fix)
            self._last_gps_fix[fix] = now
        if now + 1e-12 >= self._due["mag"]:
            self._due["mag"] = max(self._due["mag"] + self._mag_period, now)
            readings.mag_fired = True
            readings.mag = self._sample_mag(live)
        return readings

    # -- EKF ---------------------------------------------------------------------

    def _ekf_predict(
        self,
        accel: np.ndarray,
        gyro: np.ndarray,
        ok: np.ndarray,
        failed: np.ndarray,
        idx: np.ndarray,
    ) -> None:
        dt = self._imu_period
        state = self._ekf_state
        roll, pitch, yaw = state[:, 6], state[:, 7], state[:, 8]
        rotation = _rotation_from_euler_rows(roll, pitch, yaw)
        accel_world = np.matmul(rotation, accel[:, :, None])[:, :, 0]
        accel_world[:, 2] -= constants.GRAVITY_M_S2

        new_state = state.copy()
        new_state[:, 0:3] += state[:, 3:6] * dt + 0.5 * accel_world * dt * dt
        new_state[:, 3:6] += accel_world * dt
        new_state[:, 6:9] += _euler_rates_rows(roll, pitch, gyro, idx) * dt
        new_state[:, 8] = _wrap_rows(new_state[:, 8])

        def build_jacobian() -> np.ndarray:
            jacobian = np.eye(STATE_SIZE)
            jacobian[0:3, 3:6] = np.eye(3) * dt
            return jacobian

        def build_process() -> np.ndarray:
            process = np.zeros((STATE_SIZE, STATE_SIZE))
            process[3:6, 3:6] = np.eye(3) * (self._ekf_accel_noise * dt) ** 2
            process[6:9, 6:9] = np.eye(3) * (self._ekf_gyro_noise * dt) ** 2
            process[0:3, 0:3] = (
                np.eye(3) * (0.5 * self._ekf_accel_noise * dt * dt) ** 2
            )
            return process

        jacobian = _scratch("ekf_jacobian", (dt,), build_jacobian)
        process = _scratch(
            "ekf_process",
            (dt, self._ekf_accel_noise, self._ekf_gyro_noise),
            build_process,
        )
        new_cov = (
            np.matmul(np.matmul(jacobian, self._ekf_cov), jacobian.T) + process
        )
        # The scalar EKF commits state and covariance before the finite
        # check (the raise happens after mutation); failed lanes are fully
        # reset at end of tick, so committing them here is equivalent.
        self._commit(state, new_state, ok)
        self._commit(self._ekf_cov, new_cov, ok)
        bad = ok & ~np.all(np.isfinite(new_state), axis=1)
        failed |= bad
        ok &= ~bad
        self._ekf_flops[ok] += 2 * STATE_SIZE**3 + 60
        self._ekf_predictions[ok] += 1

    def _ekf_correct(
        self,
        measurement: np.ndarray,
        h: np.ndarray,
        noise: np.ndarray,
        mask: np.ndarray,
        ok: np.ndarray,
        failed: np.ndarray,
    ) -> None:
        state = self._ekf_state
        cov = self._ekf_cov
        m = h.shape[0]
        innovation = measurement - np.matmul(h, state[:, :, None])[:, :, 0]
        s = np.matmul(np.matmul(h, cov), h.T) + noise
        # Identity-fill lanes outside the mask so batched inv cannot choke
        # on dead/garbage rows (their results are discarded anyway).
        eye_m = _scratch("eye", (m,), lambda: np.eye(m))
        s = np.where(mask[:, None, None], s, eye_m)
        gain = np.matmul(np.matmul(cov, h.T), np.linalg.inv(s))
        new_state = state + np.matmul(gain, innovation[:, :, None])[:, :, 0]
        new_state[:, 8] = _wrap_rows(new_state[:, 8])
        identity = _scratch("eye", (STATE_SIZE,), lambda: np.eye(STATE_SIZE))
        new_cov = np.matmul(identity - np.matmul(gain, h), cov)
        self._commit(state, new_state, mask)
        self._commit(cov, new_cov, mask)
        bad = mask & ~np.all(np.isfinite(new_state), axis=1)
        failed |= bad
        ok &= ~bad
        good = mask & ~bad
        self._ekf_flops[good] += 2 * STATE_SIZE**2 * m + STATE_SIZE**3 + m**3 + 40
        self._ekf_corrections[good] += 1

    def _ekf_tick(self, readings: _Readings, live: np.ndarray) -> None:
        checkpoint = self._ekf_state.copy()
        ok = live.copy()
        failed = np.zeros(self.n_lanes, dtype=bool)
        if readings.imu_fired:
            assert readings.accel is not None and readings.gyro is not None
            idx = np.flatnonzero(ok)
            self._ekf_predict(readings.accel, readings.gyro, ok, failed, idx)
        if readings.gps_fired and readings.gps_fix is not None:
            assert readings.gps_has_fix is not None
            mask = ok & readings.gps_has_fix
            if mask.any():
                h = _scratch("ekf_h_gps", (), self._build_h_gps)
                noise = _scratch(
                    "ekf_noise_gps",
                    (self._ekf_gps_noise,),
                    lambda: np.eye(2) * self._ekf_gps_noise**2,
                )
                self._ekf_correct(
                    readings.gps_fix[:, 0:2], h, noise, mask, ok, failed
                )
        if readings.baro_fired:
            assert readings.baro is not None
            if ok.any():
                h = _scratch("ekf_h_baro", (), self._build_h_baro)
                noise = _scratch(
                    "ekf_noise_baro",
                    (self._ekf_baro_noise,),
                    lambda: np.array([[self._ekf_baro_noise**2]]),
                )
                self._ekf_correct(
                    readings.baro[:, None], h, noise, ok.copy(), ok, failed
                )
        if readings.mag_fired:
            assert readings.mag is not None
            if ok.any():
                h = _scratch("ekf_h_mag", (), self._build_h_mag)
                noise = _scratch(
                    "ekf_noise_mag",
                    (self._ekf_mag_noise,),
                    lambda: np.array([[self._ekf_mag_noise**2]]),
                )
                wrapped = (
                    _wrap_rows(readings.mag - self._ekf_state[:, 8])
                    + self._ekf_state[:, 8]
                )
                self._ekf_correct(
                    wrapped[:, None], h, noise, ok.copy(), ok, failed
                )
        if failed.any():
            # Mirror of InsEkf.reset(checkpoint): pre-tick state, fresh
            # covariance, and zeroed op counters.
            np.copyto(self._ekf_state, checkpoint, where=failed[:, None])
            np.copyto(
                self._ekf_cov,
                np.eye(STATE_SIZE) * 0.1,
                where=failed[:, None, None],
            )
            self._ekf_flops[failed] = 0
            self._ekf_predictions[failed] = 0
            self._ekf_corrections[failed] = 0
            self.ekf_resets[failed] += 1

    @staticmethod
    def _build_h_gps() -> np.ndarray:
        h = np.zeros((2, STATE_SIZE))
        h[0, 0] = 1.0
        h[1, 1] = 1.0
        return h

    @staticmethod
    def _build_h_baro() -> np.ndarray:
        h = np.zeros((1, STATE_SIZE))
        h[0, 2] = 1.0
        return h

    @staticmethod
    def _build_h_mag() -> np.ndarray:
        h = np.zeros((1, STATE_SIZE))
        h[0, 8] = 1.0
        return h

    # -- controller cascade -------------------------------------------------------

    @staticmethod
    def _clamp_rows(values: np.ndarray, limit: float) -> np.ndarray:
        """Mirror of ``max(-limit, min(limit, x))`` with Python's NaN order."""
        step = np.where(values < limit, values, limit)
        return np.where(step > -limit, step, -limit)

    def _accel_to_attitude(
        self, accel: np.ndarray, live: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched acceleration_to_attitude_thrust over the live mask."""
        force_world = self._mass * (accel + self._gravity_col)
        thrust = _rows_norm(force_world)
        tiny = thrust < 1e-9
        z_body = force_world / thrust[:, None]
        cos_tilt = self._clamp_rows(z_body[:, 2], 1.0)
        tilt = np.zeros(self.n_lanes)
        for i in np.flatnonzero(live & ~tiny):
            tilt[i] = math.acos(cos_tilt[i])
        over = (tilt > self._max_tilt) & live & ~tiny
        if over.any():
            horizontal = z_body[:, 0:2]
            horizontal_norm = _rows_norm(horizontal)
            fix = over & (horizontal_norm > 1e-9)
            if fix.any():
                scale = self._sin_max_tilt / horizontal_norm
                projected = np.empty_like(z_body)
                projected[:, 0] = horizontal[:, 0] * scale
                projected[:, 1] = horizontal[:, 1] * scale
                projected[:, 2] = self._cos_max_tilt
                z_body = np.where(fix[:, None], projected, z_body)
        yaw = self._target_yaw
        x_c = np.zeros((self.n_lanes, 3))
        x_c[:, 0] = np.cos(yaw)
        x_c[:, 1] = np.sin(yaw)
        y_body = np.cross(z_body, x_c)
        y_norm = _rows_norm(y_body)
        if bool(np.any((y_norm < 1e-9) & live & ~tiny)):
            raise ValueError("degenerate attitude: thrust axis parallel to heading")
        y_body = y_body / y_norm[:, None]
        x_body = np.cross(y_body, z_body)
        pitch = np.zeros(self.n_lanes)
        roll = np.zeros(self.n_lanes)
        x_body_z = x_body[:, 2]
        y_body_z = y_body[:, 2]
        z_body_z = z_body[:, 2]
        for i in np.flatnonzero(live & ~tiny):
            pitch[i] = -math.asin(max(-1.0, min(1.0, x_body_z[i])))
            roll[i] = math.atan2(y_body_z[i], z_body_z[i])
        attitude = np.zeros((self.n_lanes, 3))
        attitude[:, 0] = np.where(tiny, 0.0, roll)
        attitude[:, 1] = np.where(tiny, 0.0, pitch)
        attitude[:, 2] = yaw
        collective = np.where(tiny, 0.0, thrust)
        return attitude, collective

    def _mix(self, live: np.ndarray) -> np.ndarray:
        """Batched MotorMixer.mix with attitude-priority desaturation."""
        inverse = self._mixer_inverse
        wrench = np.empty((self.n_lanes, 4))
        wrench[:, 0] = self._collective
        wrench[:, 1:4] = self._torque_cmd
        ceilings = self._max_thrust * self.motor_health
        thrusts = np.matmul(inverse, wrench[:, :, None])[:, :, 0]
        need = np.any(thrusts < 0.0, axis=1) | np.any(thrusts > ceilings, axis=1)
        if need.any():
            wrench_no_yaw = wrench.copy()
            wrench_no_yaw[:, 3] *= 0.25
            wrench_no_yaw[:, 0] = 0.0
            torque_part = np.matmul(inverse, wrench_no_yaw[:, :, None])[:, :, 0]
            collective_part = inverse[:, 0] * self._collective[:, None]
            scale = np.ones(self.n_lanes)
            for rotor in range(4):
                candidate = (
                    ceilings[:, rotor] - torque_part[:, rotor]
                ) / collective_part[:, rotor]
                usable = collective_part[:, rotor] > 1e-12
                take = usable & (candidate < scale)
                scale = np.where(take, candidate, scale)
            scale = np.clip(scale, 0.5, 1.0)
            desat = torque_part + scale[:, None] * collective_part
            thrusts = np.where(need[:, None], desat, thrusts)
        self._mixes[live] += 1
        saturated = np.any(thrusts > ceilings + 1e-9, axis=1)
        self._saturations[live & saturated] += 1
        return np.clip(thrusts, 0.0, ceilings)

    def _controller_tick(
        self,
        est_pos: np.ndarray,
        est_vel: np.ndarray,
        est_quat: np.ndarray,
        est_omega: np.ndarray,
        dt: float,
        live: np.ndarray,
        idx: np.ndarray,
    ) -> np.ndarray:
        self._ctl_time += dt

        if self._ctl_time + 1e-12 >= self._next_position_update:
            position_dt = 1.0 / self._rates.position_hz
            self._next_position_update = max(
                self._next_position_update + position_dt, self._ctl_time
            )
            self._position_level_updates += 1
            # PositionController.update: P loop with velocity norm clamp.
            velocity_setpoint = self._pos_kp * (self._target_pos - est_pos)
            norm = _rows_norm(velocity_setpoint)
            over = norm > self._max_vel
            if over.any():
                scaled = velocity_setpoint * (self._max_vel / norm)[:, None]
                velocity_setpoint = np.where(
                    over[:, None], scaled, velocity_setpoint
                )
            self._pos_updates += 1
            # VelocityController.update: three axis PIDs + accel norm clamp.
            error = velocity_setpoint - est_vel
            integral = self._clamp_rows(self._vel_integ + error * position_dt, 3.0)
            if self._vel_has_last:
                derivative = -(est_vel - self._vel_last) / position_dt
            else:
                derivative = np.zeros((self.n_lanes, 3))
            self._commit(self._vel_integ, integral, live)
            self._commit(self._vel_last, est_vel, live)
            self._vel_has_last = True
            self._vel_pid_updates += 1
            accel = (
                self._vel_kp * error + self._vel_ki * integral
            ) + self._vel_kd * derivative
            self._vel_updates += 1
            norm = _rows_norm(accel)
            over = norm > self._max_accel
            if over.any():
                scaled = accel * (self._max_accel / norm)[:, None]
                accel = np.where(over[:, None], scaled, accel)
            attitude, collective = self._accel_to_attitude(accel, live)
            self._commit(self._att_target, attitude, live)
            self._commit(self._collective, collective, live)

        if self._ctl_time + 1e-12 >= self._next_attitude_update:
            attitude_dt = 1.0 / self._rates.attitude_hz
            self._next_attitude_update = max(
                self._next_attitude_update + attitude_dt, self._ctl_time
            )
            est_euler = _euler_from_quaternion_rows(est_quat, idx)
            angle_error = self._att_target - est_euler
            angle_error[:, 2] = (
                angle_error[:, 2] + np.pi
            ) % (2.0 * np.pi) - np.pi
            rate_setpoint = np.clip(
                self._angle_kp * angle_error, -self._max_rate, self._max_rate
            )
            error = rate_setpoint - est_omega
            integral = self._clamp_rows(
                self._rate_integ + error * attitude_dt, 2.0
            )
            if self._rate_has_last:
                derivative = -(est_omega - self._rate_last) / attitude_dt
            else:
                derivative = np.zeros((self.n_lanes, 3))
            self._commit(self._rate_integ, integral, live)
            self._commit(self._rate_last, est_omega, live)
            self._rate_has_last = True
            self._rate_pid_updates += 1
            normalized = (
                self._rate_kp * error + self._rate_ki * integral
            ) + self._rate_kd * derivative
            torque = np.matmul(self._inertia, normalized[:, :, None])[:, :, 0]
            self._commit(self._torque_cmd, torque, live)
            self._att_updates += 1

        # ThrustController.update: mixer allocation + first-order motor lag.
        commanded = self._mix(live)
        alpha = dt / (self._motor_tc + dt)
        lagged = self._lag + alpha * (commanded - self._lag)
        self._commit(self._lag, lagged, live)
        self._thrust_updates += 1
        return lagged

    # -- rigid body ---------------------------------------------------------------

    def _wind_normals(self) -> np.ndarray:
        """Next per-lane OU noise draw, from the pregenerated block when one
        is active (run_for) or drawn lane-by-lane otherwise (direct step)."""
        block = self._wind_block
        if block is not None and self._wind_block_pos < block.shape[1]:
            normals = block[:, self._wind_block_pos, :]
            self._wind_block_pos += 1
            return normals
        normals = np.zeros((self.n_lanes, 3))
        for i in np.flatnonzero(self.live):
            normals[i] = self._wind_gens[i].standard_normal(3)
        return normals

    def _body_step(
        self, thrusts: np.ndarray, dt: float, live: np.ndarray
    ) -> None:
        total_thrust = np.sum(thrusts, axis=1)
        torque = np.empty((self.n_lanes, 3))
        torque[:, 0] = np.sum(self._arm_y * thrusts, axis=1)
        torque[:, 1] = -np.sum(self._arm_x * thrusts, axis=1)
        torque[:, 2] = np.sum(ROTOR_SPIN * thrusts, axis=1) * TORQUE_THRUST_RATIO_M

        rotation = _quat_to_rotation_rows(self._quat)
        thrust_col = np.zeros((self.n_lanes, 3, 1))
        thrust_col[:, 2, 0] = total_thrust
        thrust_world = np.matmul(rotation, thrust_col)[:, :, 0]

        airspeed = self._vel.copy()
        if self._winds is not None:
            if self._wind_gust > 0:
                new_gust = (
                    self._wind_alpha * self._wind_states
                    + self._wind_noise_scale * self._wind_normals()
                )
                self._commit(self._wind_states, new_gust, live)
            airspeed -= self._wind_mean + self._wind_states

        speed = _rows_norm(airspeed)
        magnitude = (
            0.5 * self._air_density * self._cda * speed * speed
        )
        drag = (-magnitude[:, None] * airspeed) / speed[:, None]
        drag = np.where((speed == 0.0)[:, None], 0.0, drag)

        acceleration = (thrust_world + self._gravity_row + drag) / self._mass
        new_vel = self._vel + acceleration * dt
        new_pos = self._pos + new_vel * dt
        below = new_pos[:, 2] < 0.0
        if below.any():
            new_pos[:, 2] = np.where(below, 0.0, new_pos[:, 2])
            new_vel[:, 2] = np.where(
                below & (new_vel[:, 2] < 0.0), 0.0, new_vel[:, 2]
            )

        inertia_omega = np.matmul(self._inertia, self._omega[:, :, None])[:, :, 0]
        rhs = torque - np.cross(self._omega, inertia_omega)
        # np.linalg.solve on the diagonal inertia, bit for bit up to the sign
        # of a zero, which never reaches omega: lane rates start at +0.0.
        omega_dot = rhs / self._principal_inertia
        new_omega = self._omega + omega_dot * dt

        omega_quat = np.zeros((self.n_lanes, 4))
        omega_quat[:, 1:4] = new_omega
        q_dot = 0.5 * _quat_multiply_rows(self._quat, omega_quat)
        new_quat = self._quat + q_dot * dt
        new_quat = new_quat / _rows_norm(new_quat)[:, None]

        self._commit(self._vel, new_vel, live)
        self._commit(self._pos, new_pos, live)
        self._commit(self._omega, new_omega, live)
        self._commit(self._quat, new_quat, live)

    # -- battery / power ----------------------------------------------------------

    def _soc_rows(self) -> np.ndarray:
        soc = 1.0 - self._used_mah / self._capacity_mah
        return np.where(soc > 0.0, soc, 0.0)

    def _ocv_rows(self) -> np.ndarray:
        soc = self._soc_rows()
        full = 4.05 + (soc - 0.9) / 0.1 * (constants.LIPO_CELL_FULL_V - 4.05)
        mid = 3.70 + (soc - 0.15) / 0.75 * (4.05 - 3.70)
        low = constants.LIPO_CELL_EMPTY_V + soc / 0.15 * (
            3.70 - constants.LIPO_CELL_EMPTY_V
        )
        cell_v = np.where(soc > 0.9, full, np.where(soc > 0.15, mid, low))
        return cell_v * self._cells

    def _terminal_voltage(self, load_current_a) -> np.ndarray:
        resistance = self._resistance_base + self._fault_res
        sagged = self._ocv_rows() - load_current_a * resistance
        return np.where(sagged > 0.0, sagged, 0.0)

    # -- the lockstep tick --------------------------------------------------------

    def step(self) -> None:
        """Advance every live lane one physics tick, in lockstep.

        Mirrors FlightSimulator.step op for op: sense -> estimate -> control
        -> actuate -> meter.  Masked lanes (dead/defected) produce garbage in
        intermediate arrays that the masked commits discard; errstate
        suppresses the resulting spurious warnings (the scalar path never
        evaluates those lanes at all).
        """
        live = self._full if self._uniform else self.live
        if not self._uniform and not bool(live.any()):
            raise RuntimeError("no live lanes to step")
        dt = 1.0 / self.physics_rate_hz
        self.time_s += dt
        idx = np.flatnonzero(live)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            readings = self._poll_sensors(dt, live)
            if self.use_ekf:
                self._ekf_tick(readings, live)
                est_pos = self._ekf_state[:, 0:3]
                est_vel = self._ekf_state[:, 3:6]
                est_quat = _quat_from_euler_rows(self._ekf_state[:, 6:9])
            else:
                est_pos, est_vel, est_quat = self._pos, self._vel, self._quat
            thrusts = self._controller_tick(
                est_pos, est_vel, est_quat, self._omega, dt, live, idx
            )
            voltage_ratio = (
                self._terminal_voltage(self._last_current) / self._voltage_denom
            )
            capped = np.where(voltage_ratio < 1.0, voltage_ratio, 1.0)
            ceiling = self._max_thrust * np.float_power(capped, 2)
            thrusts = np.minimum(thrusts, ceiling[:, None])
            self._body_step(thrusts, dt, live)

            clipped = np.maximum(thrusts, 0.0)
            ideal_w = clipped * np.sqrt(clipped) / self._induced_denom
            propulsion = np.sum(ideal_w / (self._hover_eff * 1.0), axis=1)
            power = (
                propulsion + self._compute_power_w
            ) + self._sensors_power_w
            floor = self._terminal_voltage(0.0)
            current = power / np.where(floor > 1.0, floor, 1.0)
            self._commit(self._last_current, current, live)
            draw = np.where(
                current < self._max_cont_a, current, self._max_cont_a
            )
            drawn_mah = draw * dt / 3.6
            remaining = self._usable_mah - self._used_mah
            remaining = np.where(remaining > 0.0, remaining, 0.0)
            deplete = drawn_mah > remaining + 1e-9
            new_used = self._used_mah + drawn_mah
            if deplete.any():
                self._commit(self._used_mah, new_used, live & ~deplete)
                self.depleted |= live & deplete
            else:
                self._commit(self._used_mah, new_used, live)

        if self.time_s + 1e-12 >= self._next_record_s:
            self._next_record_s = self.time_s + self._record_period_s
            voltage = self._terminal_voltage(current)
            soc = self._soc_rows()
            for i in idx:
                self._sample_rows[i].append(
                    SimSample(
                        time_s=self.time_s,
                        position_m=self._pos[i].copy(),
                        velocity_m_s=self._vel[i].copy(),
                        euler_rad=euler_from_quaternion(self._quat[i]),
                        motor_thrusts_n=thrusts[i].copy(),
                        electrical_power_w=float(power[i]),
                        battery_voltage_v=float(voltage[i]),
                        battery_soc=float(soc[i]),
                    )
                )

    def run_for(self, duration_s: float) -> None:
        """Step all live lanes for ``duration_s`` simulated seconds."""
        if duration_s <= 0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        steps = int(round(duration_s * self.physics_rate_hz))
        gusty = self._winds is not None and self._wind_gust > 0
        remaining = steps
        while remaining > 0:
            chunk = min(remaining, 2048)
            if gusty:
                # Per-lane OU noise, drawn as one block per lane: a
                # standard_normal(3k) block equals k sequential
                # standard_normal(3) draws, values and generator state.
                block = np.zeros((self.n_lanes, chunk, 3))
                for i in np.flatnonzero(self.live):
                    block[i] = self._wind_gens[i].standard_normal(
                        3 * chunk
                    ).reshape(chunk, 3)
                self._wind_block = block
                self._wind_block_pos = 0
            for _ in range(chunk):
                self.step()
            remaining -= chunk

    # -- lane access --------------------------------------------------------------

    def set_lane_target(self, index: int, position_m, yaw_rad: float = 0.0) -> None:
        """Set one lane's position target (mirrors ``FlightSimulator.goto``)."""
        self._check_lane(index)
        self._target_pos[index] = np.asarray(position_m, dtype=float)
        self._target_yaw[index] = yaw_rad

    def lane(self, index: int) -> "LaneSim":
        """Persistent scalar-simulator facade over one lane.

        The same object is returned for repeated calls, so closures that
        capture it (fault-injector restores, autopilot references) stay
        valid across a mid-flight defection to the scalar backend.
        """
        self._check_lane(index)
        facade = self._lanes[index]
        if facade is None:
            facade = LaneSim(self, index)
            self._lanes[index] = facade
        return facade

    def lane_samples(self, index: int) -> List[SimSample]:
        """Telemetry recorded for one lane (shared with its scalar backend)."""
        self._check_lane(index)
        return self._sample_rows[index]

    def _check_lane(self, index: int) -> None:
        if not 0 <= index < self.n_lanes:
            raise IndexError(
                f"lane index {index} out of range [0, {self.n_lanes})"
            )

    # -- defection ----------------------------------------------------------------

    def materialize_lane(self, index: int) -> FlightSimulator:
        """Detach one lane into a scalar :class:`FlightSimulator`, bit-for-bit.

        Every array row, schedule deadline, PID register, counter, and RNG
        state transfers exactly, so the scalar simulator continues the
        trajectory the ensemble would have produced.  The lane's ensemble
        slots go dead (masked out of every subsequent kernel); its
        ``motor_health`` row and samples list are *shared* with the scalar
        backend so facade references keep working.
        """
        self._check_lane(index)
        if not self.attached[index]:
            raise RuntimeError(f"lane {index} already defected")
        if not self.live[index]:
            raise RuntimeError(f"lane {index} is dead")

        wind: Optional[Wind] = None
        if self._winds is not None:
            spec = self._winds[index]
            wind = Wind(
                mean_m_s=spec.mean_m_s,
                gust_speed_m_s=spec.gust_speed_m_s,
                correlation_time_s=spec.correlation_time_s,
                seed=spec.seed,
            )
            wind._state = self._wind_states[index].tolist()
            wind._rng = self._wind_gens[index]

        sim = FlightSimulator(
            self.model,
            physics_rate_hz=self.physics_rate_hz,
            use_ekf=self.use_ekf,
            wind=wind,
        )
        sim._record_period_s = self._record_period_s
        sim._next_record_s = self._next_record_s
        sim.time_s = self.time_s
        sim._last_current_a = float(self._last_current[index])
        sim.depleted = bool(self.depleted[index])
        sim.ekf_resets = int(self.ekf_resets[index])
        # Shared list: the scalar backend appends to the same telemetry the
        # ensemble recorded, so lane(i).samples is seamless across the switch.
        sim.samples = self._sample_rows[index]

        state = sim.body.state
        state.position_m = self._pos[index].copy()
        state.velocity_m_s = self._vel[index].copy()
        state.quaternion = self._quat[index].copy()
        state.angular_velocity_rad_s = self._omega[index].copy()

        sim.battery.used_mah = float(self._used_mah[index])
        sim.battery.fault_resistance_ohm = float(self._fault_res[index])

        sim.ekf.state = self._ekf_state[index].copy()
        sim.ekf.covariance = self._ekf_cov[index].copy()
        sim.ekf.flops = int(self._ekf_flops[index])
        sim.ekf.predictions = int(self._ekf_predictions[index])
        sim.ekf.corrections = int(self._ekf_corrections[index])

        ctl = sim.controller
        ctl.rates = self._rates
        ctl.targets.mode = TargetMode.POSITION
        ctl.targets.position_m = self._target_pos[index].copy()
        ctl.targets.yaw_rad = float(self._target_yaw[index])
        ctl._attitude_target = self._att_target[index].copy()
        ctl._collective_thrust_n = float(self._collective[index])
        ctl._time_s = self._ctl_time
        ctl._next_position_update = self._next_position_update
        ctl._next_attitude_update = self._next_attitude_update
        ctl._position_level_updates = self._position_level_updates
        ctl._torque_command = self._torque_cmd[index].copy()
        ctl.position_controller.updates = self._pos_updates
        velocity = ctl.position_controller.velocity
        velocity.updates = self._vel_updates
        for axis in range(3):
            pid = velocity._pids[axis]
            pid._integral = float(self._vel_integ[index, axis])
            pid._last_measurement = (
                float(self._vel_last[index, axis]) if self._vel_has_last else None
            )
            pid.updates = self._vel_pid_updates
        attitude = ctl.attitude_controller
        attitude.updates = self._att_updates
        for axis in range(3):
            pid = attitude._rate_pids[axis]
            pid._integral = float(self._rate_integ[index, axis])
            pid._last_measurement = (
                float(self._rate_last[index, axis]) if self._rate_has_last else None
            )
            pid.updates = self._rate_pid_updates
        thrust = ctl.thrust_controller
        thrust.updates = self._thrust_updates
        thrust._thrusts_n = self._lag[index].copy()
        mixer = thrust.mixer
        mixer.mixes = int(self._mixes[index])
        mixer.saturations = int(self._saturations[index])
        # Row VIEW, not a copy: injector restore closures write through the
        # facade's motor_health array in place, and the facade always hands
        # out this row.
        mixer.motor_health = self.motor_health[index]

        suite = sim.sensors
        suite._time_s = self._sensor_time
        suite._due = dict(self._due)
        suite._last_gps_fix_s = float(self._last_gps_fix[index])
        imu = suite.imu
        imu.samples = int(self._imu_samples[index])
        imu.accel_bias_m_s2 = self._accel_bias_obj[index]
        imu.gyro_bias_rad_s = self._gyro_bias_obj[index]
        imu._last_velocity = (
            self._imu_last_vel[index].tolist() if self._imu_has_last else None
        )
        imu._rng = _clone_generator(self._imu_seed, self._imu_gen)
        baro = suite.barometer
        baro.samples = int(self._baro_samples[index])
        baro.frozen = bool(self.baro_frozen[index])
        baro._last_altitude_m = float(self._baro_last_alt[index])
        if self._baro_lane_gens is not None:
            baro._rng = self._baro_lane_gens[index]
            self._baro_lane_gens[index] = None
        else:
            assert self._baro_gen is not None
            baro._rng = _clone_generator(self._baro_seed, self._baro_gen)
        gps = suite.gps
        gps.samples = int(self._gps_samples[index])
        gps.available = bool(self.gps_available[index])
        if self._gps_lane_gens is not None:
            gps._rng = self._gps_lane_gens[index]
            self._gps_lane_gens[index] = None
        else:
            assert self._gps_gen is not None
            gps._rng = _clone_generator(self._gps_seed, self._gps_gen)
        mag = suite.magnetometer
        mag.samples = int(self._mag_samples[index])
        mag._rng = _clone_generator(self._mag_seed, self._mag_gen)

        self.live[index] = False
        self.attached[index] = False
        self._refresh_uniform()
        facade = self._lanes[index]
        if facade is not None:
            facade._scalar = sim
        return sim


def _clone_generator(seed: int, source: np.random.Generator) -> np.random.Generator:
    """Fresh Generator carrying the exact bit-generator state of ``source``."""
    gen = np.random.default_rng(seed)
    gen.bit_generator.state = source.bit_generator.state
    return gen


# ---------------------------------------------------------------------------
# Lane facades: the scalar FlightSimulator surface over one ensemble lane
# ---------------------------------------------------------------------------


class LaneGps:
    """Facade over one lane's GPS availability flag."""

    def __init__(self, lane: "LaneSim"):
        self._lane = lane

    @property
    def available(self) -> bool:
        lane = self._lane
        if lane._scalar is not None:
            return lane._scalar.sensors.gps.available
        return bool(lane._ens.gps_available[lane._index])

    @available.setter
    def available(self, value: bool) -> None:
        lane = self._lane
        if lane._scalar is not None:
            lane._scalar.sensors.gps.available = value
        else:
            lane._ens.gps_available[lane._index] = bool(value)


class LaneImu:
    """Facade over one lane's IMU bias tuples.

    The injector framework reads the current tuples, swaps in biased ones,
    and restores the originals — the facade keeps the tuple *objects* so
    that round-trip is exact, while mirroring the values into the batch
    bias arrays the vector kernels read.
    """

    def __init__(self, lane: "LaneSim"):
        self._lane = lane

    @property
    def accel_bias_m_s2(self) -> Tuple[float, float, float]:
        lane = self._lane
        if lane._scalar is not None:
            return lane._scalar.sensors.imu.accel_bias_m_s2
        return lane._ens._accel_bias_obj[lane._index]

    @accel_bias_m_s2.setter
    def accel_bias_m_s2(self, value) -> None:
        lane = self._lane
        if lane._scalar is not None:
            lane._scalar.sensors.imu.accel_bias_m_s2 = value
        else:
            lane._ens._accel_bias_obj[lane._index] = value
            lane._ens._accel_bias[lane._index] = np.asarray(value)

    @property
    def gyro_bias_rad_s(self) -> Tuple[float, float, float]:
        lane = self._lane
        if lane._scalar is not None:
            return lane._scalar.sensors.imu.gyro_bias_rad_s
        return lane._ens._gyro_bias_obj[lane._index]

    @gyro_bias_rad_s.setter
    def gyro_bias_rad_s(self, value) -> None:
        lane = self._lane
        if lane._scalar is not None:
            lane._scalar.sensors.imu.gyro_bias_rad_s = value
        else:
            lane._ens._gyro_bias_obj[lane._index] = value
            lane._ens._gyro_bias[lane._index] = np.asarray(value)


class LaneBarometer:
    """Facade over one lane's barometer freeze flag."""

    def __init__(self, lane: "LaneSim"):
        self._lane = lane

    @property
    def frozen(self) -> bool:
        lane = self._lane
        if lane._scalar is not None:
            return lane._scalar.sensors.barometer.frozen
        return bool(lane._ens.baro_frozen[lane._index])

    @frozen.setter
    def frozen(self, value: bool) -> None:
        lane = self._lane
        if lane._scalar is not None:
            lane._scalar.sensors.barometer.frozen = value
        else:
            lane._ens.baro_frozen[lane._index] = bool(value)


class LaneSensors:
    """Facade over one lane's sensor suite."""

    def __init__(self, lane: "LaneSim"):
        self._lane = lane
        self.gps = LaneGps(lane)
        self.imu = LaneImu(lane)
        self.barometer = LaneBarometer(lane)

    def gps_fix_age_s(self) -> float:
        lane = self._lane
        if lane._scalar is not None:
            return lane._scalar.sensors.gps_fix_age_s()
        ens = lane._ens
        return float(ens._sensor_time - ens._last_gps_fix[lane._index])


class LaneBattery:
    """Facade over one lane's battery state and fault hooks."""

    def __init__(self, lane: "LaneSim"):
        self._lane = lane

    @property
    def capacity_mah(self) -> float:
        lane = self._lane
        if lane._scalar is not None:
            return lane._scalar.battery.capacity_mah
        return lane._ens._capacity_mah

    @property
    def state_of_charge(self) -> float:
        lane = self._lane
        if lane._scalar is not None:
            return lane._scalar.battery.state_of_charge
        ens = lane._ens
        used = float(ens._used_mah[lane._index])
        return max(0.0, 1.0 - used / ens._capacity_mah)

    @property
    def fault_resistance_ohm(self) -> float:
        lane = self._lane
        if lane._scalar is not None:
            return lane._scalar.battery.fault_resistance_ohm
        return float(lane._ens._fault_res[lane._index])

    @fault_resistance_ohm.setter
    def fault_resistance_ohm(self, value: float) -> None:
        lane = self._lane
        if lane._scalar is not None:
            lane._scalar.battery.fault_resistance_ohm = value
        else:
            lane._ens._fault_res[lane._index] = value

    def inject_drain(self, drain_mah: float) -> None:
        lane = self._lane
        if lane._scalar is not None:
            lane._scalar.battery.inject_drain(drain_mah)
            return
        if drain_mah < 0:
            raise ValueError(f"drain cannot be negative, got {drain_mah}")
        ens = lane._ens
        used = float(ens._used_mah[lane._index])
        ens._used_mah[lane._index] = min(ens._capacity_mah, used + drain_mah)


class LaneMixer:
    """Facade over one lane's mixer statistics and motor-health row.

    ``motor_health`` is always the lane's row *view* into the ensemble
    array — the same memory the scalar backend's mixer is handed at
    defection — so injector restores that write it in place work across
    the backend switch.
    """

    def __init__(self, lane: "LaneSim"):
        self._lane = lane

    @property
    def motor_health(self) -> np.ndarray:
        lane = self._lane
        return lane._ens.motor_health[lane._index]

    @property
    def mixes(self) -> int:
        lane = self._lane
        if lane._scalar is not None:
            return lane._scalar.controller.thrust_controller.mixer.mixes
        return int(lane._ens._mixes[lane._index])

    @property
    def saturations(self) -> int:
        lane = self._lane
        if lane._scalar is not None:
            return lane._scalar.controller.thrust_controller.mixer.saturations
        return int(lane._ens._saturations[lane._index])

    def set_motor_health(self, motor_index: int, factor: float) -> None:
        if not 0 <= motor_index < 4:
            raise ValueError(f"motor index must be 0-3, got {motor_index}")
        if not 0.0 <= factor <= 1.0:
            raise ValueError(f"health factor must be in [0, 1], got {factor}")
        self.motor_health[motor_index] = factor


class LaneThrustController:
    """Facade over one lane's thrust level (exposes the mixer)."""

    def __init__(self, lane: "LaneSim"):
        self.mixer = LaneMixer(lane)


class LaneController:
    """Facade over one lane's controller cascade."""

    def __init__(self, lane: "LaneSim"):
        self.thrust_controller = LaneThrustController(lane)


class LaneBody:
    """Facade over one lane's rigid-body state."""

    def __init__(self, lane: "LaneSim"):
        self._lane = lane
        ens = lane._ens
        self._view = QuadcopterState(
            position_m=ens._pos[lane._index],
            velocity_m_s=ens._vel[lane._index],
            quaternion=ens._quat[lane._index],
            angular_velocity_rad_s=ens._omega[lane._index],
        )

    @property
    def state(self) -> QuadcopterState:
        scalar = self._lane._scalar
        if scalar is not None:
            return scalar.body.state
        return self._view


class LaneSim:
    """One ensemble lane presented through the ``FlightSimulator`` surface.

    The autopilot, fault injectors, and safety monitor all drive a trial
    through this object.  While the lane is attached, reads and writes go
    to the ensemble's arrays; after :meth:`defect` they delegate to the
    materialized scalar simulator — the references callers hold (including
    closures capturing sub-facades) never change.
    """

    def __init__(self, ensemble: EnsembleFlightSimulator, index: int):
        self._ens = ensemble
        self._index = index
        self._scalar: Optional[FlightSimulator] = None
        self.sensors = LaneSensors(self)
        self.battery = LaneBattery(self)
        self.controller = LaneController(self)
        self.body = LaneBody(self)

    # -- identity ------------------------------------------------------------

    @property
    def model(self) -> DroneModel:
        return self._ens.model

    @property
    def physics_rate_hz(self) -> float:
        return self._ens.physics_rate_hz

    @property
    def use_ekf(self) -> bool:
        return self._ens.use_ekf

    @property
    def attached(self) -> bool:
        """True while this lane still steps inside the ensemble."""
        return self._scalar is None

    # -- state ---------------------------------------------------------------

    @property
    def time_s(self) -> float:
        if self._scalar is not None:
            return self._scalar.time_s
        return self._ens.time_s

    @property
    def depleted(self) -> bool:
        if self._scalar is not None:
            return self._scalar.depleted
        return bool(self._ens.depleted[self._index])

    @property
    def ekf_resets(self) -> int:
        if self._scalar is not None:
            return self._scalar.ekf_resets
        return int(self._ens.ekf_resets[self._index])

    @property
    def samples(self) -> List[SimSample]:
        if self._scalar is not None:
            return self._scalar.samples
        return self._ens._sample_rows[self._index]

    # -- commands ------------------------------------------------------------

    def goto(self, position_m, yaw_rad: float = 0.0) -> None:
        if self._scalar is not None:
            self._scalar.goto(position_m, yaw_rad)
        else:
            self._ens.set_lane_target(self._index, position_m, yaw_rad)

    def set_velocity(self, velocity_m_s, yaw_rad: float = 0.0) -> None:
        """Velocity targets are per-lane scalar control flow: defect first."""
        self.defect().set_velocity(velocity_m_s, yaw_rad)

    def inject_position_fix(self, position_m, noise_m: float = 0.05) -> None:
        """External (e.g. SLAM) fixes are unvectorizable: defect first."""
        self.defect().inject_position_fix(position_m, noise_m)

    def run_for(self, duration_s: float) -> None:
        if self._scalar is None:
            raise RuntimeError(
                "lane is attached to the ensemble; step it via "
                "EnsembleFlightSimulator.run_for (or defect() first)"
            )
        self._scalar.run_for(duration_s)

    def defect(self) -> FlightSimulator:
        """Detach from the ensemble into a scalar simulator (idempotent)."""
        if self._scalar is None:
            self._scalar = self._ens.materialize_lane(self._index)
        return self._scalar

    # -- derived metrics ------------------------------------------------------

    def average_power_w(self, since_s: float = 0.0) -> float:
        """Mean recorded electrical power after ``since_s``."""
        powers = [s.electrical_power_w for s in self.samples if s.time_s >= since_s]
        if not powers:
            raise ValueError("no samples recorded in the requested window")
        return float(np.mean(powers))

    def hover_position_error_m(self, target_m, since_s: float) -> float:
        """RMS position error against ``target_m`` after ``since_s``."""
        target = np.asarray(target_m, dtype=float)
        errors = [
            float(np.linalg.norm(s.position_m - target))
            for s in self.samples
            if s.time_s >= since_s
        ]
        if not errors:
            raise ValueError("no samples recorded in the requested window")
        return float(np.sqrt(np.mean(np.square(errors))))


# ---------------------------------------------------------------------------
# Batch Monte Carlo studies
# ---------------------------------------------------------------------------


def hover_gust_monte_carlo(
    model: DroneModel,
    seeds: Sequence[int],
    gust_speed_m_s: float,
    duration_s: float = 10.0,
    physics_rate_hz: float = 500.0,
    target_m=(0.0, 0.0, 5.0),
    mean_m_s: Tuple[float, float, float] = (0.0, 0.0, 0.0),
    correlation_time_s: float = 1.5,
    rates: Optional[ControlRates] = None,
) -> List[float]:
    """RMS hover error per wind seed, one ensemble lane per seed.

    Bit-for-bit equal to running a scalar :class:`FlightSimulator` once per
    seed with ``Wind(gust_speed_m_s=..., seed=s)`` — the vectorized form of
    the gust-rejection study's Monte Carlo loop.
    """
    winds = [
        Wind(
            mean_m_s=mean_m_s,
            gust_speed_m_s=gust_speed_m_s,
            correlation_time_s=correlation_time_s,
            seed=int(seed),
        )
        for seed in seeds
    ]
    if not winds:
        raise ValueError("need at least one wind seed")
    ensemble = EnsembleFlightSimulator(
        model,
        n_lanes=len(winds),
        physics_rate_hz=physics_rate_hz,
        winds=winds,
        rates=rates,
    )
    target = np.asarray(target_m, dtype=float)
    for index in range(len(winds)):
        ensemble.set_lane_target(index, target)
    ensemble.run_for(duration_s)
    return [
        ensemble.lane(index).hover_position_error_m(
            target, since_s=duration_s / 2.0
        )
        for index in range(len(winds))
    ]
