"""Ensemble flight simulator: N closed-loop trials stepped in lockstep.

A chaos campaign (or a gust Monte Carlo) is many *independent* closed-loop
flights of one airframe.  :class:`EnsembleFlightSimulator` holds N trials'
state as rows and advances every *live* lane with masked NumPy kernels,
while per-trial control flow (failsafe ladders, fault windows, mission
phases) runs over the mask through one :class:`LaneSim` per lane, which
implements the :class:`~repro.sim.simulator.FlightVehicle` protocol over
the lane's rows.

Each layer's batched kernel sits beside its scalar twin and reads that
twin's constants, matrices and schedule from the ensemble's template
:class:`FlightSimulator` (DESIGN.md lists where each lives).  This module
keeps the lane masks and the masked commit, the lockstep order of one
tick, lane bookkeeping and :class:`LaneSim`.

The contract is **bit-for-bit** per lane against the scalar oracle
(DESIGN.md §Performance), noise streams included: lane *i* owns the sensor
and wind generators its scalar simulator would own and draws exactly what
scalar trial *i* draws, when it draws.  Every lane flies inside the
ensemble from start to end; :meth:`EnsembleFlightSimulator.materialize_lane`
copies one lane's rows into a scalar :class:`FlightSimulator` without
detaching it, which is how the tests prove the rows hold the lane's whole
scalar state.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.control.cascade import CascadeRows, ControlRates, TargetMode
from repro.control.mixer import check_motor_health
from repro.control.estimation import EkfRows
from repro.physics.battery_model import (
    draw_rows, drained_mah, ocv_rows, soc_rows, terminal_voltage_rows,
)
from repro.physics.environment import Wind, WindRows
from repro.physics.rigid_body import (
    BodyRows, QuadcopterState, euler_from_quaternion_rows, quaternion_from_euler_rows,
)
from repro.sensors.suite import RowReadings, SensorRows
from repro.sim.simulator import (
    Bias3, DroneModel, FlightSimulator, SimSample, bus_current_rows,
    electrical_power_rows, rms_position_error_m, thrust_ceiling_rows,
)

__all__ = ["EnsembleFlightSimulator", "LaneSim", "hover_gust_monte_carlo"]


class EnsembleFlightSimulator:
    """N independent closed-loop flights stepped in lockstep.

    All lanes share one airframe model and physics rate.  ``use_ekf`` is
    one bool for the whole group or one bool per lane, so a campaign chunk
    flies EKF and truth-state trials together: the EKF runs under the mask
    of its lanes, and the controller reads each lane's own estimate or its
    own truth.  Per-lane divergence — injected faults, failsafe ladders,
    deaths — is handled by masking.

    ``winds`` (optional) gives every lane its own seeded
    :class:`~repro.physics.environment.Wind`; all winds must share mean /
    gust / correlation parameters (only the seed may differ), which is what
    the gust Monte Carlo needs.  ``sensor_seeds`` (optional) gives one
    ``FlightSimulator(sensor_seed=...)`` value per lane; without it every
    lane flies the built-in sensor streams.
    """

    def __init__(
        self,
        model: DroneModel,
        n_lanes: int,
        physics_rate_hz: float = 500.0,
        use_ekf: Union[bool, Sequence[bool]] = False,
        winds: Optional[Sequence[Wind]] = None,
        record_rate_hz: float = 50.0,
        rates=None,
        sensor_seeds: Optional[Sequence[Optional[int]]] = None,
    ):
        if n_lanes <= 0:
            raise ValueError(f"need at least one lane, got {n_lanes}")
        flags = np.asarray(use_ekf, dtype=bool)
        if flags.ndim == 0:
            flags = np.full(n_lanes, bool(flags))
        elif flags.shape != (n_lanes,):
            raise ValueError(
                f"need one use_ekf flag per lane: {flags.size} != {n_lanes}"
            )
        seeds: List[Optional[int]] = (
            [None] * n_lanes if sensor_seeds is None else list(sensor_seeds)
        )
        if len(seeds) != n_lanes:
            raise ValueError(
                f"need one sensor seed per lane: {len(seeds)} != {n_lanes}"
            )
        if winds is not None and len(winds) != n_lanes:
            raise ValueError(f"need one wind per lane: {len(winds)} != {n_lanes}")
        # The template is the single source of every constant, matrix and
        # schedule the row kernels read (its sensor suite keeps the one
        # schedule all lanes fire on), so the ensemble can never drift
        # from what FlightSimulator.__init__ builds.
        template = FlightSimulator(
            model,
            physics_rate_hz=physics_rate_hz,
            record_rate_hz=record_rate_hz,
        )
        if rates is not None:
            template.controller.rates = rates
        self._template = template
        self.model = model
        self.n_lanes = n_lanes
        self.physics_rate_hz = physics_rate_hz
        #: Per-lane ``use_ekf``: which lanes fly on the EKF estimate.
        self.ekf_lanes = flags.copy()
        self._ekf_all = bool(flags.all())
        self._ekf_any = bool(flags.any())
        self.time_s = 0.0
        self._next_record_s = 0.0

        n = n_lanes
        self._body = BodyRows(template.body, n, self._commit)
        self._wind = (
            None
            if winds is None
            else WindRows(winds, 1.0 / physics_rate_hz, self._commit)
        )
        self._sensors = SensorRows(template.sensors, seeds, self._commit)
        self._ekf = EkfRows(template.ekf, n, self._commit)
        self._cascade = CascadeRows(template.controller, n, self._commit)
        # Battery registers; the pack constants are the template battery's.
        self._used_mah = np.zeros(n)
        self._fault_res = np.zeros(n)
        self.depleted = np.zeros(n, dtype=bool)
        self._last_current = np.zeros(n)

        # -- lane bookkeeping --------------------------------------------------
        #: Lanes not frozen: the lanes the collective step advances.
        self.live = np.ones(n, dtype=bool)
        self._uniform = True
        #: Sentinel all-true mask: commits called with *this exact array*
        #: take the unmasked fast path.  Partial masks (EKF ok-sets, GPS
        #: fix masks) are always fresh arrays and always go masked.
        self._full = np.ones(n, dtype=bool)
        self._all_lanes = list(range(n))
        # Telemetry: one row block per record tick, turned into each
        # lane's samples on the first read after it (``_samples``).
        self._blocks: List[tuple] = []
        self._sample_rows: List[List[SimSample]] = [[] for _ in range(n)]
        self._lanes: List[Optional["LaneSim"]] = [None] * n

    # -- masked commit helpers ---------------------------------------------------

    def _commit(self, dst: np.ndarray, src: np.ndarray, mask: np.ndarray) -> None:
        """Write ``src`` into ``dst`` on masked rows, in place.

        In-place (``np.copyto``) so the row views a :class:`LaneSim` holds
        stay valid; frozen lanes' rows are never touched.
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
        self._check_lane(index)
        self.live[index] = False
        self._refresh_uniform()

    # -- the lockstep tick --------------------------------------------------------

    def step(self) -> None:
        """Advance every live lane one physics tick, in lockstep.

        Mirrors FlightSimulator.step op for op: sense -> estimate -> control
        -> actuate -> meter.  Frozen lanes produce garbage in intermediate
        arrays that the masked commits discard; errstate suppresses the
        resulting spurious warnings (the scalar path never evaluates those
        lanes at all).
        """
        live = self._full if self._uniform else self.live
        if not self._uniform and not bool(live.any()):
            raise RuntimeError("no live lanes to step")
        dt = 1.0 / self.physics_rate_hz
        self.time_s += dt
        lanes = self._all_lanes if self._uniform else np.flatnonzero(live).tolist()
        template, body = self._template, self._body
        battery = template.battery
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # The IMU and the body both read the pre-tick quaternion, and
            # both voltages below read the pre-draw charge: build each once.
            rotation = body.rotation()
            ocv = ocv_rows(battery, self._used_mah)
            readings = self._sensors.poll(
                dt, live, lanes, body.pos, body.vel, body.quat, body.omega, rotation
            )
            est_pos, est_vel, est_quat = self._estimate(readings, live)
            thrusts = self._cascade.tick(
                est_pos, est_vel, est_quat, body.omega, dt, live, lanes
            )
            thrusts = thrust_ceiling_rows(
                template,
                thrusts,
                terminal_voltage_rows(
                    battery, ocv, self._last_current, self._fault_res
                ),
            )
            airspeed = (
                body.vel if self._wind is None else self._wind.airspeed(body.vel, live)
            )
            body.step(thrusts, rotation, airspeed, dt, live)

            power = electrical_power_rows(template, thrusts)
            current = bus_current_rows(
                power, terminal_voltage_rows(battery, ocv, 0.0, self._fault_res)
            )
            self._commit(self._last_current, current, live)
            new_used, deplete = draw_rows(battery, self._used_mah, current, dt)
            if deplete.any():
                self._commit(self._used_mah, new_used, live & ~deplete)
                self.depleted |= live & deplete
            else:
                self._commit(self._used_mah, new_used, live)

        if self.time_s + 1e-12 >= self._next_record_s:
            self._next_record_s = self.time_s + template._record_period_s
            # The registers are overwritten in place by later steps, so
            # copy them; thrusts, power and current are this step's own
            # arrays, which nothing writes after it.
            self._blocks.append((
                self.time_s, lanes, body.pos.copy(), body.vel.copy(),
                body.quat.copy(), thrusts, power, current,
                self._used_mah.copy(), self._fault_res.copy(),
            ))

    def _estimate(
        self, readings: RowReadings, live: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run the EKF on its lanes; the state each lane's controller reads.

        A mixed group feeds every lane through a select, which does no
        arithmetic: an EKF lane reads exactly its estimate and a truth lane
        exactly its truth state, as its scalar simulator would.
        """
        body = self._body
        if not self._ekf_any:
            return body.pos, body.vel, body.quat
        ekf = self._ekf
        ekf.tick(readings, live if self._ekf_all else live & self.ekf_lanes)
        est_pos = ekf.state[:, 0:3]
        est_vel = ekf.state[:, 3:6]
        est_quat = quaternion_from_euler_rows(ekf.state[:, 6:9])
        if self._ekf_all:
            return est_pos, est_vel, est_quat
        ekf_rows = self.ekf_lanes[:, None]
        return (
            np.where(ekf_rows, est_pos, body.pos),
            np.where(ekf_rows, est_vel, body.vel),
            np.where(ekf_rows, est_quat, body.quat),
        )

    def _samples(self) -> List[List[SimSample]]:
        """Every lane's samples, extended by the blocks recorded since the
        last read.

        Each sample keeps the bits :meth:`FlightSimulator.step` records:
        the row kernels below are elementwise, so running them once over
        the stacked blocks gives every row what a per-tick call would.
        """
        blocks = self._blocks
        if not blocks:
            return self._sample_rows
        self._blocks = []
        times, lanes, *rows = zip(*blocks)
        pos, vel, quat, thrusts, power, current, used, fault = map(
            np.concatenate, rows
        )
        starts = range(0, len(times) * self.n_lanes, self.n_lanes)
        battery = self._template.battery
        euler = euler_from_quaternion_rows(
            quat,
            [start + i for start, recorded in zip(starts, lanes) for i in recorded],
            np.empty((len(quat), 3)),
        )
        powers = power.tolist()
        voltage = terminal_voltage_rows(
            battery, ocv_rows(battery, used), current, fault
        ).tolist()
        soc = soc_rows(battery, used).tolist()
        for start, time_s, recorded in zip(starts, times, lanes):
            for i in recorded:
                row = start + i
                self._sample_rows[i].append(
                    SimSample(
                        time_s=time_s,
                        position_m=pos[row],
                        velocity_m_s=vel[row],
                        euler_rad=euler[row],
                        motor_thrusts_n=thrusts[row],
                        electrical_power_w=powers[row],
                        battery_voltage_v=voltage[row],
                        battery_soc=soc[row],
                    )
                )
        return self._sample_rows

    def run_for(self, duration_s: float) -> None:
        """Step all live lanes for ``duration_s`` simulated seconds."""
        if duration_s <= 0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        steps = int(round(duration_s * self.physics_rate_hz))
        wind = self._wind
        remaining = steps
        while remaining > 0:
            chunk = min(remaining, 2048)
            if wind is not None and wind.gusty:
                wind.draw_block(self.live, chunk)
            for _ in range(chunk):
                self.step()
            remaining -= chunk

    # -- lane access --------------------------------------------------------------

    def set_lane_target(self, index: int, position_m, yaw_rad: float = 0.0) -> None:
        """Set one lane's position target (mirrors ``FlightSimulator.goto``)."""
        self._check_lane(index)
        self._cascade.target_pos[index] = np.asarray(position_m, dtype=float)
        self._cascade.target_yaw[index] = yaw_rad

    def lane(self, index: int) -> "LaneSim":
        """One lane as a :class:`~repro.sim.simulator.FlightVehicle`.

        The same object is returned for repeated calls.
        """
        self._check_lane(index)
        lane = self._lanes[index]
        if lane is None:
            lane = LaneSim(self, index)
            self._lanes[index] = lane
        return lane

    def _check_lane(self, index: int) -> None:
        if not 0 <= index < self.n_lanes:
            raise IndexError(
                f"lane index {index} out of range [0, {self.n_lanes})"
            )

    # -- scalar copy --------------------------------------------------------------

    def materialize_lane(self, index: int) -> FlightSimulator:
        """Copy one live lane into a scalar :class:`FlightSimulator`, bit-for-bit.

        Every array row, schedule deadline, PID register, counter, and RNG
        state is copied, so the scalar simulator continues the trajectory
        the lane flies on in the ensemble.  The lane stays in the ensemble;
        the copy owns its generators, samples list and ``motor_health`` row,
        so neither side's flight moves the other.
        """
        self._check_lane(index)
        if not self.live[index]:
            raise RuntimeError(f"lane {index} is frozen")

        wind: Optional[Wind] = None
        if self._wind is not None:
            # The lane's wind parameters, gust state and generator.
            wind = replace(
                self._wind.winds[index], _rng=deepcopy(self._wind.gens[index])
            )
            wind._state = self._wind.states[index].tolist()

        rows = self._sensors
        sim = FlightSimulator(
            self.model,
            physics_rate_hz=self.physics_rate_hz,
            use_ekf=bool(self.ekf_lanes[index]),
            wind=wind,
            sensor_seed=rows.seeds[index],
        )
        sim._record_period_s = self._template._record_period_s
        sim._next_record_s = self._next_record_s
        sim.time_s = self.time_s
        sim._last_current_a = float(self._last_current[index])
        sim.depleted = bool(self.depleted[index])
        sim.ekf_resets = int(self._ekf.resets[index])
        sim.samples = list(self._samples()[index])

        body = self._body
        state = sim.body.state
        state.position_m = body.pos[index].copy()
        state.velocity_m_s = body.vel[index].copy()
        state.quaternion = body.quat[index].copy()
        state.angular_velocity_rad_s = body.omega[index].copy()

        sim.battery.used_mah = float(self._used_mah[index])
        sim.battery.fault_resistance_ohm = float(self._fault_res[index])

        ekf = self._ekf
        sim.ekf.state = ekf.state[index].copy()
        sim.ekf.covariance = ekf.cov[index].copy()
        sim.ekf.flops = int(ekf.flops[index])
        sim.ekf.predictions = int(ekf.predictions[index])
        sim.ekf.corrections = int(ekf.corrections[index])

        cascade = self._cascade
        ctl = sim.controller
        ctl.rates = self._template.controller.rates
        ctl.targets.mode = TargetMode.POSITION
        ctl.targets.position_m = cascade.target_pos[index].copy()
        ctl.targets.yaw_rad = float(cascade.target_yaw[index])
        ctl._attitude_target = cascade.att_target[index].copy()
        ctl._collective_thrust_n = float(cascade.collective[index])
        ctl._time_s = cascade.time_s
        ctl._next_position_update = cascade.next_position_update
        ctl._next_attitude_update = cascade.next_attitude_update
        ctl._position_level_updates = cascade.position_updates
        ctl._torque_command = cascade.torque_cmd[index].copy()
        ctl.position_controller.updates = cascade.position_updates
        velocity = ctl.position_controller.velocity
        velocity.updates = cascade.position_updates
        attitude = ctl.attitude_controller
        attitude.updates = cascade.attitude_updates
        # Every PID of a level updates with it: integral, last input, count.
        for pids, integral, last, updates in (
            (velocity._pids, cascade.vel_integ, cascade.vel_last,
             cascade.position_updates),
            (attitude._rate_pids, cascade.rate_integ, cascade.rate_last,
             cascade.attitude_updates),
        ):
            for axis, pid in enumerate(pids):
                pid._integral = float(integral[index, axis])
                pid._last_measurement = float(last[index, axis]) if updates else None
                pid.updates = updates
        thrust = ctl.thrust_controller
        thrust.updates = cascade.thrust_updates
        thrust._thrusts_n = cascade.lag[index].copy()
        mixer = thrust.mixer
        mixer.mixes = int(cascade.mixes[index])
        mixer.saturations = int(cascade.saturations[index])
        mixer.motor_health = cascade.motor_health[index].copy()

        schedule = rows.suite
        suite = sim.sensors
        suite._time_s = schedule._time_s
        suite._due = dict(schedule._due)
        suite._last_gps_fix_s = float(rows.last_gps_fix[index])
        suite._imu_elapsed_s = schedule._imu_elapsed_s
        imu = suite.imu
        imu.samples = int(rows.imu_samples[index])
        imu.accel_bias_m_s2, imu.gyro_bias_rad_s = self.lane(index).imu_bias()
        imu._last_velocity = (
            rows.imu_last_vel[index].tolist() if rows.imu_has_last else None
        )
        imu._rng = deepcopy(rows.imu_gens[index])
        baro = suite.barometer
        baro.samples = int(rows.baro_samples[index])
        baro.frozen = bool(rows.baro_frozen[index])
        baro._last_altitude_m = float(rows.baro_last_alt[index])
        baro._rng = deepcopy(rows.baro_gens[index])
        gps = suite.gps
        gps.samples = int(rows.gps_samples[index])
        gps.available = bool(rows.gps_available[index])
        gps._rng = deepcopy(rows.gps_gens[index])
        mag = suite.magnetometer
        mag.samples = int(rows.mag_samples[index])
        mag._rng = deepcopy(rows.mag_gens[index])
        return sim


class LaneSim:
    """One ensemble lane as a :class:`~repro.sim.simulator.FlightVehicle`.

    The autopilot, fault injector, safety monitor and flight recorder drive
    a trial through this object; its reads and writes go to the ensemble's
    rows.  The lane is stepped only by :meth:`EnsembleFlightSimulator.run_for`.
    """

    def __init__(self, ensemble: EnsembleFlightSimulator, index: int):
        self._ens = ensemble
        self._index = index
        body = ensemble._body
        # Row views, not copies: the state reads what the last step wrote.
        self._state = QuadcopterState(
            position_m=body.pos[index],
            velocity_m_s=body.vel[index],
            quaternion=body.quat[index],
            angular_velocity_rad_s=body.omega[index],
        )

    # -- state ---------------------------------------------------------------

    @property
    def model(self) -> DroneModel:
        return self._ens.model

    @property
    def use_ekf(self) -> bool:
        return bool(self._ens.ekf_lanes[self._index])

    @property
    def time_s(self) -> float:
        return self._ens.time_s

    @property
    def depleted(self) -> bool:
        return bool(self._ens.depleted[self._index])

    @property
    def true_state(self) -> QuadcopterState:
        return self._state

    @property
    def state_of_charge(self) -> float:
        ens = self._ens
        return float(soc_rows(ens._template.battery, ens._used_mah[self._index]))

    @property
    def motor_health(self) -> np.ndarray:
        return self._ens._cascade.motor_health[self._index]

    @property
    def ekf_resets(self) -> int:
        return int(self._ens._ekf.resets[self._index])

    @property
    def samples(self) -> List[SimSample]:
        return self._ens._samples()[self._index]

    def gps_fix_age_s(self) -> float:
        rows = self._ens._sensors
        return float(rows.suite._time_s - rows.last_gps_fix[self._index])

    def mix_counts(self) -> Tuple[int, int]:
        cascade = self._ens._cascade
        return int(cascade.mixes[self._index]), int(cascade.saturations[self._index])

    def hover_position_error_m(self, target_m, since_s: float) -> float:
        """RMS position error against ``target_m`` after ``since_s``."""
        return rms_position_error_m(self.samples, target_m, since_s)

    # -- command and fault knobs ---------------------------------------------

    def goto(self, position_m, yaw_rad: float = 0.0) -> None:
        self._ens.set_lane_target(self._index, position_m, yaw_rad)

    @property
    def gps_available(self) -> bool:
        return bool(self._ens._sensors.gps_available[self._index])

    @gps_available.setter
    def gps_available(self, value: bool) -> None:
        self._ens._sensors.gps_available[self._index] = bool(value)

    @property
    def fault_resistance_ohm(self) -> float:
        return float(self._ens._fault_res[self._index])

    @fault_resistance_ohm.setter
    def fault_resistance_ohm(self, value: float) -> None:
        self._ens._fault_res[self._index] = value

    def imu_bias(self) -> Tuple[Bias3, Bias3]:
        rows, index = self._ens._sensors, self._index
        ax, ay, az = rows.accel_bias[index].tolist()
        gx, gy, gz = rows.gyro_bias[index].tolist()
        return (ax, ay, az), (gx, gy, gz)

    def set_imu_bias(self, accel_m_s2: Bias3, gyro_rad_s: Bias3) -> None:
        rows, index = self._ens._sensors, self._index
        rows.accel_bias[index] = accel_m_s2
        rows.gyro_bias[index] = gyro_rad_s

    def set_baro_frozen(self, frozen: bool) -> None:
        self._ens._sensors.baro_frozen[self._index] = bool(frozen)

    def inject_drain(self, drain_mah: float) -> None:
        ens = self._ens
        ens._used_mah[self._index] = drained_mah(
            ens._template.battery, float(ens._used_mah[self._index]), drain_mah)

    def set_motor_health(self, motor_index: int, factor: float) -> None:
        check_motor_health(motor_index, factor)
        self._ens._cascade.motor_health[self._index, motor_index] = factor


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
        Wind(mean_m_s, gust_speed_m_s, correlation_time_s, seed=int(seed))
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
