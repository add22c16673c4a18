"""Closed-loop flight simulator.

Couples the 6-DOF rigid body, the sensor suite, the EKF, the hierarchical
inner-loop controller, the electrical power model, and the LiPo battery into
one steppable system — the software stand-in for the paper's physical test
drone.

The electrical model is the same momentum-theory chain the design-space
equations use, so simulated power traces (Figure 16b) and the Equations 1-7
predictions agree by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.markers import hot_path
from repro.control.cascade import HierarchicalController
from repro.control.estimation import InsEkf
from repro.physics import constants
from repro.physics.battery_model import BatteryDepletedError, LipoBattery
from repro.physics.environment import Environment, Wind
from repro.physics.propeller import max_propeller_inch_for_wheelbase
from repro.physics.rigid_body import (
    QuadcopterBody,
    QuadcopterState,
    quaternion_from_euler,
)
from repro.sensors.suite import SensorSuite

#: The lowest physics rate a simulator flies at: EKF-in-the-loop position
#: error is held under 1 m only down to this rate.
MIN_PHYSICS_RATE_HZ = 100.0


@dataclass(frozen=True)
class DroneModel:
    """Physical parameters of the simulated airframe."""

    mass_kg: float
    wheelbase_mm: float
    battery_cells: int
    battery_capacity_mah: float
    compute_power_w: float = 3.0
    sensors_power_w: float = 1.0
    twr: float = constants.MIN_FLYABLE_TWR

    def __post_init__(self) -> None:
        if self.mass_kg <= 0:
            raise ValueError(f"mass must be positive, got {self.mass_kg}")
        if self.wheelbase_mm <= 0:
            raise ValueError("wheelbase must be positive")
        if self.battery_cells <= 0 or self.battery_capacity_mah <= 0:
            raise ValueError("battery configuration must be positive")
        if self.twr < 1.0:
            raise ValueError(f"TWR below 1 cannot fly, got {self.twr}")

    @property
    def arm_length_m(self) -> float:
        return self.wheelbase_mm / 1000.0 / 2.0

    @property
    def propeller_inch(self) -> float:
        return max_propeller_inch_for_wheelbase(self.wheelbase_mm)

    @property
    def max_thrust_per_motor_n(self) -> float:
        return constants.grams_to_newtons(
            self.twr * self.mass_kg * 1000.0 / 4.0
        )


@dataclass
class SimSample:
    """One telemetry sample of the running simulation."""

    time_s: float
    position_m: np.ndarray
    velocity_m_s: np.ndarray
    euler_rad: np.ndarray
    motor_thrusts_n: np.ndarray
    electrical_power_w: float
    battery_voltage_v: float
    battery_soc: float


class FlightSimulator:
    """Steppable closed-loop drone simulation.

    ``sensor_seed`` picks the noise streams of the vehicle's sensors through
    :func:`repro.sensors.suite.sensor_seeds`; ``None`` flies the built-in
    streams.
    """

    def __init__(
        self,
        model: DroneModel,
        physics_rate_hz: float = 500.0,
        use_ekf: bool = False,
        wind: Optional[Wind] = None,
        environment: Optional[Environment] = None,
        record_rate_hz: float = 50.0,
        sensor_seed: Optional[int] = None,
    ):
        if physics_rate_hz < MIN_PHYSICS_RATE_HZ:
            raise ValueError(
                f"physics rate {physics_rate_hz} Hz is below the "
                f"{MIN_PHYSICS_RATE_HZ:g} Hz floor: "
                "EKF-in-the-loop position error is held under 1 m only down "
                "to the floor (tests/test_ekf_low_rate.py::"
                "test_ekf_waypoint_flight_at_100_hz) and grows below it"
            )
        self.model = model
        self.physics_rate_hz = physics_rate_hz
        self.use_ekf = use_ekf
        self.body = QuadcopterBody(
            mass_kg=model.mass_kg,
            arm_length_m=model.arm_length_m,
            environment=environment or Environment(),
            wind=wind,
        )
        self.controller = HierarchicalController(
            mass_kg=model.mass_kg,
            arm_length_m=model.arm_length_m,
            inertia_kg_m2=self.body.inertia_kg_m2,
            max_thrust_per_motor_n=model.max_thrust_per_motor_n,
        )
        self.sensor_seed = sensor_seed
        self.sensors = SensorSuite.seeded(sensor_seed)
        self.ekf = InsEkf()
        self.battery = LipoBattery(
            cells=model.battery_cells,
            capacity_mah=model.battery_capacity_mah,
            c_rating=40.0,
        )
        self.time_s = 0.0
        self.samples: List[SimSample] = []
        self.depleted = False
        self.ekf_resets = 0
        self._record_period_s = 1.0 / record_rate_hz
        self._next_record_s = 0.0
        self._hover_eff = constants.HOVER_OVERALL_EFFICIENCY
        # Momentum-theory denominator sqrt(2*rho*A), hoisted out of the
        # per-tick power evaluation (the propeller never changes in flight).
        self._induced_power_denom = math.sqrt(
            2.0
            * constants.AIR_DENSITY_SEA_LEVEL_KG_M3
            * constants.propeller_disk_area_m2(model.propeller_inch)
        )
        self._last_current_a = 0.0
        # Per-tick constants of the voltage-limited thrust ceiling.
        self._max_thrust_n = model.max_thrust_per_motor_n
        self._full_voltage_v = (
            self.battery.cells * constants.LIPO_CELL_NOMINAL_V * 1.135
        )

    # -- target passthrough ------------------------------------------------------

    def goto(self, position_m, yaw_rad: float = 0.0) -> None:
        self.controller.set_position_target(np.asarray(position_m, float), yaw_rad)

    def set_velocity(self, velocity_m_s, yaw_rad: float = 0.0) -> None:
        self.controller.set_velocity_target(np.asarray(velocity_m_s, float), yaw_rad)

    def inject_position_fix(self, position_m, noise_m: float = 0.05) -> None:
        """Feed an external position estimate (e.g. a SLAM pose) to the EKF.

        This is how GPS-denied flight stays bounded: the outer loop's SLAM
        produces poses that correct the inertial drift — the integration the
        paper's drone performs between its SLAM stack and the autopilot.
        """
        if not self.use_ekf:
            raise RuntimeError("position fixes require the EKF (use_ekf=True)")
        if noise_m <= 0:
            raise ValueError(f"noise must be positive, got {noise_m}")
        original = self.ekf.gps_noise_m
        self.ekf.gps_noise_m = noise_m
        try:
            self.ekf.update_gps(np.asarray(position_m, dtype=float))
        finally:
            self.ekf.gps_noise_m = original

    # -- stepping -----------------------------------------------------------------

    @hot_path
    def electrical_power_w(self, motor_thrusts_n: np.ndarray) -> float:
        """Instantaneous electrical power (W) at the given rotor thrusts.

        Momentum-theory chain ``T*sqrt(T)/sqrt(2*rho*A)`` per rotor, on
        floats in the order of the NumPy expression it replaced: thrusts
        floored at 0.0 as ``np.maximum`` does (``-0.0`` becomes ``+0.0``,
        NaN passes), then summed from a ``0.0`` accumulator like ``np.sum``
        over fewer than eight elements.  Bit-identical to summing
        :func:`repro.physics.propeller.hover_electrical_power_w` per motor;
        the equality is pinned by the test suite.
        """
        denom = self._induced_power_denom
        efficiency = self._hover_eff * 1.0
        propulsion = 0.0
        for thrust in np.asarray(motor_thrusts_n, dtype=float).tolist():
            if not (thrust > 0.0 or thrust != thrust):
                thrust = 0.0
            propulsion += thrust * math.sqrt(thrust) / denom / efficiency
        return propulsion + self.model.compute_power_w + self.model.sensors_power_w

    @hot_path
    def step(self) -> None:
        """Advance one physics tick: sense -> estimate -> control -> actuate."""
        dt = 1.0 / self.physics_rate_hz
        self.time_s += dt
        state = self.body.state

        readings = self.sensors.poll(state, dt)
        if self.use_ekf:
            # The EKF raises FloatingPointError the moment its state goes
            # non-finite; roll back to the pre-tick (finite) state instead
            # of flying on NaN — degrade, don't abort.
            checkpoint = self.ekf.state.copy()
            try:
                if readings.imu_fired:
                    self.ekf.predict(
                        readings.accel_body_m_s2,
                        readings.gyro_rad_s,
                        readings.imu_dt_s,
                    )
                if readings.gps_position_m is not None:
                    self.ekf.update_gps(readings.gps_position_m)
                if readings.baro_altitude_m is not None:
                    self.ekf.update_barometer(readings.baro_altitude_m)
                if readings.mag_yaw_rad is not None:
                    self.ekf.update_magnetometer(readings.mag_yaw_rad)
            except FloatingPointError:
                self.ekf.reset(checkpoint)
                self.ekf_resets += 1
            estimated = self._estimated_state(state)
        else:
            estimated = state

        thrusts = self.controller.tick(estimated, dt)
        # Voltage sag limits available thrust: rotor speed tops out at
        # Kv * V, and thrust goes as speed squared — a tired pack flies
        # noticeably softer (the end-of-flight weakness every pilot knows).
        battery = self.battery
        voltage_ratio = (
            battery.terminal_voltage_v(self._last_current_a) / self._full_voltage_v
        )
        ceiling = self._max_thrust_n * min(1.0, voltage_ratio) ** 2
        # np.minimum(thrusts, ceiling) in place on the tick's fresh array:
        # NaN passes, and a tie returns the ceiling.
        for index, thrust in enumerate(thrusts.tolist()):
            if not (thrust < ceiling or thrust != thrust):
                thrusts[index] = ceiling
        self.body.step(thrusts, dt)

        power = self.electrical_power_w(thrusts)
        current = bus_current_a(power, battery.terminal_voltage_v(0.0))
        self._last_current_a = current
        try:
            battery.draw(min(current, battery.max_continuous_current_a), dt)
        except BatteryDepletedError:
            self.depleted = True

        if self.time_s + 1e-12 >= self._next_record_s:
            self._next_record_s = self.time_s + self._record_period_s
            self.samples.append(
                SimSample(
                    time_s=self.time_s,
                    position_m=state.position_m.copy(),
                    velocity_m_s=state.velocity_m_s.copy(),
                    euler_rad=state.euler_rad.copy(),
                    motor_thrusts_n=thrusts.copy(),
                    electrical_power_w=power,
                    battery_voltage_v=self.battery.terminal_voltage_v(current),
                    battery_soc=self.battery.state_of_charge,
                )
            )

    def run_for(self, duration_s: float) -> None:
        """Step the simulation for ``duration_s`` simulated seconds."""
        if duration_s <= 0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        steps = int(round(duration_s * self.physics_rate_hz))
        for _ in range(steps):
            self.step()

    @hot_path
    def _estimated_state(self, truth: QuadcopterState) -> QuadcopterState:
        """EKF estimate packaged as a state for the controller.

        Angular velocity comes straight from the gyro path (truth here) —
        rate feedback is not part of the 9-state estimate, matching how
        flight stacks feed raw gyro to the rate PIDs.
        """
        estimate = self.ekf.state.copy()
        roll, pitch, yaw = estimate[6:9].tolist()
        return QuadcopterState(
            position_m=estimate[0:3],
            velocity_m_s=estimate[3:6],
            quaternion=quaternion_from_euler(roll, pitch, yaw),
            angular_velocity_rad_s=truth.angular_velocity_rad_s.copy(),
        )

    # -- derived metrics -----------------------------------------------------------

    def average_power_w(self, since_s: float = 0.0) -> float:
        """Mean recorded electrical power after ``since_s``."""
        return mean_power_w(self.samples, since_s)

    def hover_position_error_m(self, target_m: np.ndarray, since_s: float) -> float:
        """RMS position error against ``target_m`` after ``since_s``."""
        return rms_position_error_m(self.samples, target_m, since_s)


def mean_power_w(samples: Sequence[SimSample], since_s: float = 0.0) -> float:
    """Mean electrical power of the ``samples`` recorded at or after ``since_s``."""
    powers = [s.electrical_power_w for s in samples if s.time_s >= since_s]
    if not powers:
        raise ValueError("no samples recorded in the requested window")
    return float(np.mean(powers))


def rms_position_error_m(
    samples: Sequence[SimSample], target_m, since_s: float
) -> float:
    """RMS distance to ``target_m`` of the ``samples`` at or after ``since_s``."""
    target = np.asarray(target_m, dtype=float)
    errors = [
        float(np.linalg.norm(s.position_m - target))
        for s in samples
        if s.time_s >= since_s
    ]
    if not errors:
        raise ValueError("no samples recorded in the requested window")
    return float(np.sqrt(np.mean(np.square(errors))))


@hot_path
def bus_current_a(power_w: float, no_load_v: float) -> float:
    """The pack current that delivers ``power_w`` at the no-load terminal
    voltage ``no_load_v``, floored at 1 V so a flat pack cannot divide by 0."""
    return power_w / max(1.0, no_load_v)


# -- row kernels: the batched twins of FlightSimulator.step's voltage-sag
# ceiling, electrical power and bus current, bit for bit per row.


def thrust_ceiling_rows(
    sim: FlightSimulator, thrusts: np.ndarray, terminal_v: np.ndarray
) -> np.ndarray:
    """``thrusts`` capped per row by the sagged pack voltage ``terminal_v``."""
    voltage_ratio = terminal_v / sim._full_voltage_v
    capped = np.where(voltage_ratio < 1.0, voltage_ratio, 1.0)
    ceiling = sim._max_thrust_n * np.float_power(capped, 2)
    return np.minimum(thrusts, ceiling[:, None])


def electrical_power_rows(sim: FlightSimulator, thrusts: np.ndarray) -> np.ndarray:
    """Mirrors :meth:`FlightSimulator.electrical_power_w` row-wise."""
    clipped = np.maximum(thrusts, 0.0)
    ideal_w = clipped * np.sqrt(clipped) / sim._induced_power_denom
    propulsion = np.sum(ideal_w / (sim._hover_eff * 1.0), axis=1)
    return (propulsion + sim.model.compute_power_w) + sim.model.sensors_power_w


def bus_current_rows(power_w: np.ndarray, no_load_v: np.ndarray) -> np.ndarray:
    """Mirrors :func:`bus_current_a` row-wise (a NaN voltage floors to 1 V,
    as ``max(1.0, nan)`` does)."""
    return power_w / np.where(no_load_v > 1.0, no_load_v, 1.0)
