"""Fault injectors: apply a :class:`FaultSchedule` to a live autopilot stack.

The injector is the one component that knows where each fault physically
lands in the stack — GPS loss flips the receiver's availability, battery sag
adds series resistance, ESC thermal throttling derates every rotor's thrust
ceiling through the mixer, a link blackout forces the MAVLink channel into
total outage.  Activation and restoration are window-edge-triggered from the
schedule, so applying the same schedule twice produces the same flight.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.autopilot.arducopter import Autopilot
from repro.autopilot.mavlink import GilbertElliott
from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule
from repro.physics.esc_model import thermal_derate_fraction


class FaultInjector:
    """Drives the fault schedule against one autopilot's simulator stack.

    Call :meth:`apply` with the current simulated time every control cycle
    (before ``Autopilot.update``): events whose window has opened are
    activated, events whose window has closed are restored to the exact
    pre-fault value.
    """

    def __init__(self, autopilot: Autopilot, schedule: FaultSchedule):
        self.autopilot = autopilot
        self.schedule = schedule
        self.activations: List[str] = []
        self._restores: Dict[FaultEvent, Callable[[], None]] = {}

    # -- scheduling --------------------------------------------------------------

    def apply(self, time_s: float) -> None:
        """Activate/restore events against the current simulated time."""
        for event in self.schedule.events:
            applied = event in self._restores
            if event.active(time_s) and not applied:
                self._restores[event] = self._activate(event)
                self.activations.append(f"{time_s:.1f}s +{event.kind.value}")
            elif applied and time_s >= event.end_s:
                self._restores.pop(event)()
                self.activations.append(f"{time_s:.1f}s -{event.kind.value}")

    def offload_blocked(self, time_s: float) -> bool:
        """Whether off-board poses are interrupted right now (for harnesses
        that synthesize the pose stream)."""
        return self.schedule.offload_blocked(time_s)

    # -- per-kind activation -----------------------------------------------------

    def _activate(self, event: FaultEvent) -> Callable[[], None]:
        handler = {
            FaultKind.GPS_LOSS: self._gps_loss,
            FaultKind.IMU_BIAS: self._imu_bias,
            FaultKind.BARO_FREEZE: self._baro_freeze,
            FaultKind.BATTERY_SAG: self._battery_sag,
            FaultKind.BATTERY_DRAIN: self._battery_drain,
            FaultKind.MOTOR_DEGRADATION: self._motor_degradation,
            FaultKind.ESC_THERMAL: self._esc_thermal,
            FaultKind.LINK_BLACKOUT: self._link_blackout,
            FaultKind.LINK_BURST: self._link_burst,
            FaultKind.OFFLOAD_STALL: self._offload_noop,
            FaultKind.OFFLOAD_CRASH: self._offload_noop,
            FaultKind.FEATURE_DROUGHT: self._offload_noop,
            FaultKind.FRAME_CORRUPTION: self._offload_noop,
            FaultKind.COMPUTE_THROTTLE: self._offload_noop,
        }[event.kind]
        return handler(event.param_dict)

    def _gps_loss(self, params: Dict[str, float]) -> Callable[[], None]:
        sim = self.autopilot.sim
        previous = sim.gps_available
        sim.gps_available = False

        def restore() -> None:
            sim.gps_available = previous

        return restore

    def _imu_bias(self, params: Dict[str, float]) -> Callable[[], None]:
        sim = self.autopilot.sim
        previous = sim.imu_bias()
        accel = params.get("accel_bias_m_s2", 1.5)
        gyro = params.get("gyro_bias_rad_s", 0.05)
        sim.set_imu_bias((accel, accel, 0.0), (gyro, 0.0, 0.0))

        def restore() -> None:
            sim.set_imu_bias(*previous)

        return restore

    def _baro_freeze(self, params: Dict[str, float]) -> Callable[[], None]:
        sim = self.autopilot.sim
        sim.set_baro_frozen(True)

        def restore() -> None:
            sim.set_baro_frozen(False)

        return restore

    def _battery_sag(self, params: Dict[str, float]) -> Callable[[], None]:
        sim = self.autopilot.sim
        previous = sim.fault_resistance_ohm
        sim.fault_resistance_ohm = previous + params.get("resistance_ohm", 0.05)

        def restore() -> None:
            sim.fault_resistance_ohm = previous

        return restore

    def _battery_drain(self, params: Dict[str, float]) -> Callable[[], None]:
        """One-shot capacity dump at window start (a cell going bad)."""
        sim = self.autopilot.sim
        if "fraction" in params:
            drain_mah = sim.model.battery_capacity_mah * params["fraction"]
        else:
            drain_mah = params.get("drain_mah", 0.0)
        sim.inject_drain(drain_mah)
        return lambda: None  # lost capacity does not come back

    def _motor_degradation(self, params: Dict[str, float]) -> Callable[[], None]:
        sim = self.autopilot.sim
        index = int(params.get("motor_index", 0))
        previous = float(sim.motor_health[index])
        sim.set_motor_health(index, params.get("health", 0.5))

        def restore() -> None:
            sim.set_motor_health(index, previous)

        return restore

    def _esc_thermal(self, params: Dict[str, float]) -> Callable[[], None]:
        """Uniform derating of all four rotors from the ESC temperature."""
        sim = self.autopilot.sim
        previous = sim.motor_health.tolist()
        derate = thermal_derate_fraction(params.get("temperature_c", 110.0))
        for index, health in enumerate(previous):
            sim.set_motor_health(index, min(health, derate))

        def restore() -> None:
            for index, health in enumerate(previous):
                sim.set_motor_health(index, health)

        return restore

    def _link_blackout(self, params: Dict[str, float]) -> Callable[[], None]:
        link = self.autopilot.link
        previous = link.blackout
        link.blackout = True

        def restore() -> None:
            link.blackout = previous

        return restore

    def _link_burst(self, params: Dict[str, float]) -> Callable[[], None]:
        link = self.autopilot.link
        previous = link.burst_model
        link.burst_model = GilbertElliott(
            p_good_to_bad=params.get("p_good_to_bad", 0.05),
            p_bad_to_good=params.get("p_bad_to_good", 0.2),
            loss_good=params.get("loss_good", 0.0),
            loss_bad=params.get("loss_bad", 0.95),
        )

        def restore() -> None:
            link.burst_model = previous

        return restore

    def _offload_noop(self, params: Dict[str, float]) -> Callable[[], None]:
        """Offload and perception faults act through schedule queries
        (``offload_blocked``, :class:`repro.faults.perception
        .PerceptionFaultInjector`) or the node's stall/crash parameters,
        not through mutation here."""
        return lambda: None
