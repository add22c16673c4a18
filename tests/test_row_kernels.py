"""Twin tests: every batched row kernel against its scalar twin, row by row.

Each kernel that ``EnsembleFlightSimulator`` steps sits beside its scalar
twin (DESIGN.md §Performance).  Every :class:`~tests.equivalence.Pair` here
runs the row kernel once over N rows and the scalar twin once per row,
stacking what it returns, and holds the two to the ``bitwise`` tier.  The
rows mix ordinary values with the edge cases each layer branches on.
"""

import math

import numpy as np

from repro.control.attitude import AttitudeController, attitude_rows
from repro.control.cascade import CascadeRows, HierarchicalController
from repro.control.estimation import (
    EkfRows,
    InsEkf,
    _euler_rates,
    _rotation_from_euler,
    _wrap_angle,
    euler_rates_rows,
    rotation_from_euler_rows,
    wrap_rows,
)
from repro.control.mixer import MotorMixer, mix_rows
from repro.control.pid import PidController, pid_rows
from repro.control.position import (
    PositionController,
    acceleration_to_attitude_thrust,
    acceleration_to_attitude_thrust_rows,
    position_rows,
    velocity_rows,
)
from repro.physics.battery_model import (
    BatteryDepletedError,
    LipoBattery,
    draw_rows,
    ocv_rows,
    soc_rows,
    terminal_voltage_rows,
)
from repro.physics.environment import Wind, WindRows
from repro.physics.rigid_body import (
    BodyRows,
    QuadcopterBody,
    QuadcopterState,
    cross_rows,
    euler_from_quaternion,
    euler_from_quaternion_rows,
    quaternion_from_euler,
    quaternion_from_euler_rows,
    quaternion_multiply,
    quaternion_multiply_rows,
    quaternion_to_rotation,
    quaternion_to_rotation_rows,
    rows_norm,
)
from repro.sensors.suite import RowReadings, SensorRows, SensorSuite
from repro.sim.simulator import (
    DroneModel, FlightSimulator, bus_current_a, bus_current_rows, electrical_power_rows,
)
from tests.equivalence import BITWISE, Pair

N = 6
DT = 1.0 / 500.0
MASS_KG, ARM_M = 1.2, 0.225


def _rng(seed: int = 5) -> np.random.Generator:
    return np.random.default_rng(seed)


def _unit_quaternions(rng: np.random.Generator, n: int = N) -> np.ndarray:
    q = rng.normal(size=(n, 4))
    return q / np.linalg.norm(q, axis=1)[:, None]


def _per_row(fn):
    """The scalar twin of a row kernel: ``fn`` on each row, stacked."""

    def run(*rows):
        return np.array([fn(*args) for args in zip(*rows)])

    return run


def _commit(dst: np.ndarray, src: np.ndarray, mask: np.ndarray) -> None:
    np.copyto(dst, src, where=mask.reshape(mask.shape + (1,) * (dst.ndim - 1)))


# -- physics -------------------------------------------------------------------


def test_rigid_body_row_helpers_match_scalar_twins():
    rng = _rng()
    q, p = _unit_quaternions(rng), _unit_quaternions(rng)
    p[0, 0] = 0.0  # the omega quaternion's zero scalar part
    v, w = rng.normal(size=(N, 3)), rng.normal(size=(N, 3))
    euler = rng.uniform(-3.0, 3.0, size=(N, 3))
    Pair("rows_norm", rows_norm, _per_row(np.linalg.norm), BITWISE).check(v)
    Pair("cross_rows", cross_rows, _per_row(np.cross), BITWISE).check(v, w)
    Pair(
        "quaternion_to_rotation_rows",
        lambda q: quaternion_to_rotation_rows(q, np.empty((len(q), 3, 3))),
        _per_row(quaternion_to_rotation), BITWISE,
    ).check(q)
    Pair("quaternion_multiply_rows", quaternion_multiply_rows,
         _per_row(quaternion_multiply), BITWISE).check(q, p)
    Pair("quaternion_from_euler_rows", quaternion_from_euler_rows,
         _per_row(lambda e: quaternion_from_euler(*e)), BITWISE).check(euler)
    Pair(
        "euler_from_quaternion_rows",
        lambda q: euler_from_quaternion_rows(q, list(range(len(q))),
                                             np.empty((len(q), 3))),
        _per_row(euler_from_quaternion), BITWISE,
    ).check(q)


def _body_states(rng: np.random.Generator):
    pos = rng.uniform(0.5, 5.0, size=(N, 3))
    vel = rng.normal(size=(N, 3))
    pos[0, 2], vel[0, 2] = 1e-4, -3.0  # lands on the ground plane this step
    vel[1] = 0.0  # still air: the zero-speed drag branch
    return pos, vel, _unit_quaternions(rng), rng.normal(size=(N, 3))


def _body_rows(pos, vel, quat, omega, thrusts):
    rows = BodyRows(QuadcopterBody(mass_kg=MASS_KG, arm_length_m=ARM_M), N, _commit)
    rows.pos[:], rows.vel[:], rows.quat[:], rows.omega[:] = pos, vel, quat, omega
    with np.errstate(invalid="ignore"):  # the still-air row's 0 / 0 drag
        rows.step(thrusts, rows.rotation(), rows.vel.copy(), DT, np.ones(N, dtype=bool))
    return rows.vel, rows.pos, rows.omega, rows.quat


def _body_scalar(pos, vel, quat, omega, thrusts):
    columns = []
    for i in range(N):
        body = QuadcopterBody(mass_kg=MASS_KG, arm_length_m=ARM_M)
        body.state = QuadcopterState(pos[i], vel[i], quat[i], omega[i])
        state = body.step(thrusts[i], DT)
        columns.append((state.velocity_m_s, state.position_m,
                        state.angular_velocity_rad_s, state.quaternion))
    return tuple(np.array(column) for column in zip(*columns))


def test_body_rows_step_matches_quadcopter_body():
    rng = _rng()
    thrusts = rng.uniform(0.0, 6.0, size=(N, 4))
    Pair("BodyRows.step", _body_rows, _body_scalar, BITWISE).check(
        *_body_states(rng), thrusts
    )


def _wind_rows(winds, velocity, ticks):
    rows = WindRows(winds, DT, _commit)
    live = np.ones(len(winds), dtype=bool)
    if ticks > 1:
        rows.draw_block(live, ticks - 1)  # the last tick draws row by row
    return [rows.airspeed(velocity, live) for _ in range(ticks)]


def _wind_scalar(winds, velocity, ticks):
    return [
        np.array([v - wind.step(DT) for wind, v in zip(winds, velocity)])
        for _ in range(ticks)
    ]


def test_wind_rows_match_wind_step():
    winds = [Wind(mean_m_s=(1.0, -0.5, 0.0), gust_speed_m_s=2.0, seed=s)
             for s in range(N)]
    velocity = _rng().normal(size=(N, 3))
    Pair("WindRows.airspeed", _wind_rows, _wind_scalar, BITWISE).check(
        winds, velocity, 5
    )


# -- battery -------------------------------------------------------------------

#: Used charge of a 1000 mAh pack on both sides of the OCV curve's 0.9 and
#: 0.15 SoC knees, on them, empty, and past empty.
USED_MAH = np.array([0.0, 50.0, 99.5, 100.0, 100.5, 500.0, 849.5, 850.0,
                     850.5, 1000.0, 1200.0])


def _pack(used_mah: float = 0.0, fault_ohm: float = 0.0) -> LipoBattery:
    return LipoBattery(cells=4, capacity_mah=1000.0, used_mah=used_mah,
                       fault_resistance_ohm=fault_ohm)


def test_battery_rows_match_lipo_battery():
    battery = _pack()
    fault = np.linspace(0.0, 0.5, USED_MAH.size)
    load = np.linspace(0.0, 400.0, USED_MAH.size)  # the last loads sag to 0 V
    Pair("soc_rows", lambda used: soc_rows(battery, used),
         _per_row(lambda u: _pack(u).state_of_charge), BITWISE).check(USED_MAH)
    Pair("ocv_rows", lambda used: ocv_rows(battery, used),
         _per_row(lambda u: _pack(u).open_circuit_voltage_v()),
         BITWISE).check(USED_MAH)
    Pair(
        "terminal_voltage_rows",
        lambda used, amps, ohm: terminal_voltage_rows(
            battery, ocv_rows(battery, used), amps, ohm),
        _per_row(lambda u, a, r: _pack(u, r).terminal_voltage_v(a)), BITWISE,
    ).check(USED_MAH, load, fault)


def _draw_rows(used, current):
    new_used, deplete = draw_rows(_pack(), used, current, 0.5)
    return np.where(deplete, used, new_used), deplete


def _draw_scalar(used, current):
    after, depleted = [], []
    for u, amps in zip(used.tolist(), current.tolist()):
        battery = _pack(u)
        try:
            battery.draw(min(amps, battery.max_continuous_current_a), 0.5)
            depleted.append(False)
        except BatteryDepletedError:
            depleted.append(True)
        after.append(battery.used_mah)
    return np.array(after), np.array(depleted)


def test_draw_rows_matches_draw_and_its_drain_limit():
    used = np.array([0.0, 400.0, 845.0, 849.99, 850.0])
    current = np.array([10.0, 80.0, 30.0, 1.0, 5.0])  # 80 A: capped at 25 A
    Pair("draw_rows", _draw_rows, _draw_scalar, BITWISE).check(used, current)


# -- EKF -----------------------------------------------------------------------


def test_ekf_row_helpers_match_scalar_twins():
    rng = _rng()
    roll, yaw = rng.uniform(-3.0, 3.0, size=(2, N))
    pitch = rng.uniform(-1.2, 1.2, size=N)
    pitch[0] = math.pi / 2  # cos(pitch) below the 1e-6 clamp
    pitch[1] = -math.pi / 2
    gyro = rng.normal(size=(N, 3))
    Pair("rotation_from_euler_rows", rotation_from_euler_rows,
         _per_row(_rotation_from_euler), BITWISE).check(roll, pitch, yaw)
    Pair(
        "euler_rates_rows",
        lambda r, p, g: euler_rates_rows(r, p, g, list(range(N))),
        _per_row(_euler_rates), BITWISE,
    ).check(roll, pitch, gyro)
    Pair("wrap_rows", wrap_rows, _per_row(_wrap_angle), BITWISE).check(
        rng.uniform(-20.0, 20.0, size=N)
    )


def _ekf_inputs():
    rng = _rng()
    state = rng.normal(scale=0.5, size=(N, 9))
    spread = rng.normal(scale=0.1, size=(N, 9, 9))
    cov = np.eye(9) * 0.1 + np.matmul(spread, spread.transpose(0, 2, 1))
    readings = RowReadings(
        imu_dt=2 * DT,
        accel=rng.normal(size=(N, 3)) + [0.0, 0.0, 9.81],
        gyro=rng.normal(scale=0.1, size=(N, 3)),
        baro=rng.normal(size=N),
        gps_fix=rng.normal(size=(N, 3)),
        gps_has_fix=np.array([True, True, False, True, True, True]),
        mag=rng.uniform(-3.0, 3.0, size=N),
    )
    readings.accel[1, 0] = np.inf  # goes non-finite in predict
    readings.gps_fix[3, 1] = np.nan  # goes non-finite in the GPS correction
    return state, cov, readings


def _ekf_rows(state, cov, readings):
    rows = EkfRows(InsEkf(), N, _commit)
    rows.state[:], rows.cov[:] = state, cov
    with np.errstate(all="ignore"):
        rows.tick(readings, np.ones(N, dtype=bool))
    return (rows.state, rows.cov, rows.flops, rows.predictions,
            rows.corrections, rows.resets)


def _ekf_scalar(state, cov, readings):
    """``FlightSimulator.step``'s filter block, once per row."""
    columns = []
    for i in range(N):
        ekf = InsEkf(state=state[i].copy(), covariance=cov[i].copy())
        checkpoint, resets = ekf.state.copy(), 0
        try:
            with np.errstate(all="ignore"):
                ekf.predict(readings.accel[i], readings.gyro[i], readings.imu_dt)
                if readings.gps_has_fix[i]:
                    ekf.update_gps(readings.gps_fix[i])
                ekf.update_barometer(readings.baro[i])
                ekf.update_magnetometer(readings.mag[i])
        except FloatingPointError:
            ekf.reset(checkpoint)
            resets = 1
        columns.append((ekf.state, ekf.covariance, ekf.flops, ekf.predictions,
                        ekf.corrections, resets))
    return tuple(np.array(column) for column in zip(*columns))


def test_ekf_rows_tick_matches_ins_ekf_with_resets():
    fast, _ = Pair("EkfRows.tick", _ekf_rows, _ekf_scalar, BITWISE).check(
        *_ekf_inputs()
    )
    assert fast[5].tolist() == [0, 1, 0, 1, 0, 0]


# -- controller cascade --------------------------------------------------------


def _pid_rows(setpoints, measurements):
    pid = PidController(kp=2.0, ki=0.5, kd=0.1, integral_limit=0.3)
    integral, last, outputs = np.zeros(len(setpoints[0])), None, []
    for setpoint, measurement in zip(setpoints, measurements):
        output, integral = pid_rows(pid, setpoint, measurement, integral, last, DT)
        last = measurement
        outputs.append(output)
    return outputs


def _pid_scalar(setpoints, measurements):
    pids = [PidController(kp=2.0, ki=0.5, kd=0.1, integral_limit=0.3)
            for _ in setpoints[0]]
    return [
        np.array([pid.update(s, m, DT) for pid, s, m in zip(pids, sp, me)])
        for sp, me in zip(setpoints, measurements)
    ]


def test_pid_rows_match_pid_controller():
    rng = _rng()
    setpoints = rng.normal(scale=300.0, size=(3, N))  # winds the integral up
    setpoints[1, 2] = np.nan
    Pair("pid_rows", _pid_rows, _pid_scalar, BITWISE).check(
        setpoints, rng.normal(size=(3, N))
    )


def _position_rows(targets, positions, velocities):
    controller = PositionController()
    integral, last, outputs = np.zeros((N, 3)), None, []
    for position, velocity in zip(positions, velocities):
        setpoint = position_rows(controller, targets, position)
        accel, integral = velocity_rows(controller.velocity, setpoint, velocity,
                                        integral, last, 0.025)
        last = velocity
        outputs.append(accel)
    return outputs


def _position_scalar(targets, positions, velocities):
    controllers = [PositionController() for _ in range(N)]
    return [
        np.array([c.update(t, p, v, 0.025)
                  for c, t, p, v in zip(controllers, targets, position, velocity)])
        for position, velocity in zip(positions, velocities)
    ]


def test_position_rows_match_position_controller():
    rng = _rng()
    targets = rng.normal(scale=3.0, size=(N, 3))
    targets[0] = [40.0, -30.0, 5.0]  # far: both norm clamps bind
    Pair("position_rows+velocity_rows", _position_rows, _position_scalar,
         BITWISE).check(targets, rng.normal(size=(3, N, 3)),
                        rng.normal(size=(3, N, 3)))


def _tilt_rows(accel, yaw):
    out, lanes = np.empty((N, 3)), list(range(N))
    with np.errstate(invalid="ignore"):  # the free-fall row's 0 / 0 axis
        return acceleration_to_attitude_thrust_rows(
            accel, yaw, MASS_KG, lanes, np.ones(N, dtype=bool), np.zeros((N, 3)), out
        )


def _tilt_scalar(accel, yaw):
    pairs = [acceleration_to_attitude_thrust(a, y, MASS_KG)
             for a, y in zip(accel, yaw.tolist())]
    return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])


def test_acceleration_to_attitude_rows_match_scalar():
    rng = _rng()
    accel = rng.normal(size=(N, 3))
    accel[0] = [12.0, -7.0, 0.5]  # beyond the 35 degree tilt cone
    accel[1] = [0.0, 0.0, -9.80665]  # free fall: no thrust, level attitude
    Pair("acceleration_to_attitude_thrust_rows", _tilt_rows, _tilt_scalar,
         BITWISE).check(accel, rng.uniform(-3.0, 3.0, size=N))


def _attitude_rows(targets, attitudes, rates):
    controller = AttitudeController(inertia_kg_m2=np.diag([0.02, 0.02, 0.04]))
    integral, last, outputs = np.zeros((N, 3)), None, []
    for attitude, rate in zip(attitudes, rates):
        torque, integral = attitude_rows(controller, targets, attitude, rate,
                                         integral, last, 0.005)
        last = rate
        outputs.append(torque)
    return outputs


def _attitude_scalar(targets, attitudes, rates):
    controllers = [AttitudeController(inertia_kg_m2=np.diag([0.02, 0.02, 0.04]))
                   for _ in range(N)]
    return [
        np.array([c.update(t, a, r, 0.005)
                  for c, t, a, r in zip(controllers, targets, attitude, rate)])
        for attitude, rate in zip(attitudes, rates)
    ]


def test_attitude_rows_match_attitude_controller():
    rng = _rng()
    targets = rng.uniform(-3.0, 3.0, size=(N, 3))  # yaw errors wrap
    Pair("attitude_rows", _attitude_rows, _attitude_scalar, BITWISE).check(
        targets, rng.uniform(-3.0, 3.0, size=(3, N, 3)),
        rng.normal(scale=3.0, size=(3, N, 3))
    )


def _mixer() -> MotorMixer:
    return MotorMixer(arm_length_m=ARM_M, max_thrust_per_motor_n=6.0)


def _mix_rows(collective, torque, health):
    thrusts, saturated = mix_rows(_mixer(), collective, torque, health,
                                  np.empty((len(collective), 4)))
    return thrusts, saturated


def _mix_scalar(collective, torque, health):
    thrusts, saturated = [], []
    for c, t, h in zip(collective.tolist(), torque, health):
        mixer = _mixer()
        mixer.motor_health = h.copy()
        thrusts.append(mixer.mix(c, t))
        saturated.append(mixer.saturations == 1)
    return np.array(thrusts), np.array(saturated)


def test_mix_rows_match_motor_mixer():
    rng = _rng()
    collective = rng.uniform(5.0, 15.0, size=N)
    torque = rng.normal(scale=0.2, size=(N, 3))
    health = np.ones((N, 4))
    collective[0], torque[0] = 30.0, [1.5, -1.0, 0.4]  # saturates: desaturated
    health[1, 2] = 0.3  # a derated motor
    torque[2, 1] = np.nan  # a NaN row passes through as NaN
    fast, _ = Pair("mix_rows", _mix_rows, _mix_scalar, BITWISE).check(
        collective, torque, health
    )
    assert fast[1][0] and np.isnan(fast[0][2]).all()


def _cascade_states(rng: np.random.Generator, ticks: int):
    return (rng.normal(size=(ticks, N, 3)), rng.normal(size=(ticks, N, 3)),
            np.array([_unit_quaternions(rng) for _ in range(ticks)]),
            rng.normal(size=(ticks, N, 3)))


def _controller() -> HierarchicalController:
    return HierarchicalController(MASS_KG, ARM_M, np.diag([0.02, 0.02, 0.04]), 8.0)


def _cascade_rows(targets, pos, vel, quat, omega):
    rows = CascadeRows(_controller(), N, _commit)
    rows.target_pos[:] = targets
    live, lanes = np.ones(N, dtype=bool), list(range(N))
    thrusts = [rows.tick(p, v, q, w, DT, live, lanes).copy()
               for p, v, q, w in zip(pos, vel, quat, omega)]
    return thrusts, rows.mixes, rows.saturations


def _cascade_scalar(targets, pos, vel, quat, omega):
    controllers = [_controller() for _ in range(N)]
    for controller, target in zip(controllers, targets):
        controller.set_position_target(target)
    thrusts = [
        np.array([c.tick(QuadcopterState(*state), DT)
                  for c, *state in zip(controllers, p, v, q, w)])
        for p, v, q, w in zip(pos, vel, quat, omega)
    ]
    mixers = [c.thrust_controller.mixer for c in controllers]
    return (thrusts, np.array([m.mixes for m in mixers]),
            np.array([m.saturations for m in mixers]))


def test_cascade_rows_match_hierarchical_controller():
    """Thirty 500 Hz ticks: the 40 Hz position and 200 Hz attitude levels
    fire on their own schedule inside them."""
    rng = _rng()
    Pair("CascadeRows.tick", _cascade_rows, _cascade_scalar, BITWISE).check(
        rng.normal(scale=4.0, size=(N, 3)), *_cascade_states(rng, 30)
    )


# -- sensors and power -----------------------------------------------------------

SENSOR_SEEDS = [None, 5, 2**31 - 1]


def _trajectory(ticks: int):
    rng = _rng()
    n = len(SENSOR_SEEDS)
    return (np.cumsum(rng.normal(scale=0.01, size=(ticks, n, 3)), axis=0),
            rng.normal(size=(ticks, n, 3)),
            np.array([_unit_quaternions(rng, n) for _ in range(ticks)]),
            rng.normal(size=(ticks, n, 3)))


def _reading(imu_dt, accel, gyro, baro, gps, mag):
    return {"imu_dt": imu_dt, "accel": accel, "gyro": gyro, "baro": baro,
            "gps": gps, "mag": mag}


def _poll_rows(pos, vel, quat, omega):
    n = len(SENSOR_SEEDS)
    rows = SensorRows(SensorSuite(), SENSOR_SEEDS, _commit)
    rows.baro_frozen[1] = True
    rows.gps_available[2] = False
    live, lanes, out = np.ones(n, dtype=bool), list(range(n)), []
    for p, v, q, w in zip(pos, vel, quat, omega):
        rotation = quaternion_to_rotation_rows(q, np.empty((n, 3, 3)))
        r = rows.poll(DT, live, lanes, p, v, q, w, rotation)
        gps = None
        if r.gps_has_fix is not None:
            gps = np.zeros((n, 3)) if r.gps_fix is None else r.gps_fix
        baro = None if r.baro is None else r.baro.copy()
        out.append(_reading(r.imu_dt, r.accel, r.gyro, baro, gps, r.mag))
    counts = np.array([rows.imu_samples, rows.baro_samples, rows.gps_samples,
                       rows.mag_samples]).T
    return out, counts


def _poll_scalar(pos, vel, quat, omega):
    suites = [SensorSuite.seeded(seed) for seed in SENSOR_SEEDS]
    suites[1].barometer.frozen = True
    suites[2].gps.available = False
    out = []
    for p, v, q, w in zip(pos, vel, quat, omega):
        r = [suite.poll(QuadcopterState(*s), DT)
             for suite, *s in zip(suites, p, v, q, w)]

        def stack(name):
            values = [getattr(reading, name) for reading in r]
            return None if values[0] is None else np.array(values)

        gps = None  # rows 0 and 1 get a fix whenever the GPS fires
        if r[0].gps_position_m is not None:
            gps = np.array([np.zeros(3) if reading.gps_position_m is None
                            else reading.gps_position_m for reading in r])
        out.append(_reading(r[0].imu_dt_s, stack("accel_body_m_s2"),
                            stack("gyro_rad_s"), stack("baro_altitude_m"), gps,
                            stack("mag_yaw_rad")))
    counts = np.array([list(s.sample_counts().values()) for s in suites])
    return out, counts


def test_sensor_rows_poll_matches_sensor_suite():
    """A frozen barometer row and a GPS-denied row skip their draws and
    stay in step with their scalar suites over 0.3 s of 500 Hz polls."""
    Pair("SensorRows.poll", _poll_rows, _poll_scalar, BITWISE).check(
        *_trajectory(150)
    )


def test_electrical_power_rows_match_flight_simulator():
    sim = FlightSimulator(DroneModel(mass_kg=MASS_KG, wheelbase_mm=450.0,
                                     battery_cells=4, battery_capacity_mah=5000.0))
    thrusts = _rng().uniform(-1.0, 8.0, size=(N, 4))
    thrusts[0, 1] = -0.0
    thrusts[1, 2] = np.nan
    Pair("electrical_power_rows", lambda t: electrical_power_rows(sim, t),
         _per_row(sim.electrical_power_w), BITWISE).check(thrusts)


def test_bus_current_rows_match_scalar():
    """Pack voltages above, at and below the 1 V floor, a NaN voltage (the
    floor takes it, as ``max(1.0, nan)`` does) and a NaN power."""
    rng = _rng()
    power = rng.uniform(0.0, 400.0, size=N)
    power[5] = np.nan
    no_load = np.array([16.8, 1.0, 0.4, 0.0, np.nan, 14.2])
    Pair("bus_current_rows", bus_current_rows, _per_row(bus_current_a),
         BITWISE).check(power, no_load)
