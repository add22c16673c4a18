"""ArduCopter-like autopilot.

The flight-code layer of the paper's stack (Figure 5): flight modes, arming
checks, command handling over the MAVLink-like link, battery failsafe, and
mission execution — all driving the closed-loop simulator underneath
instead of real ESCs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.autopilot.mavlink import (
    ACK_ACCEPTED,
    ACK_FAILED,
    Command,
    Link,
    MessageType,
)
from repro.sim.simulator import FlightSimulator, FlightVehicle


class FlightMode(enum.Enum):
    STABILIZE = "stabilize"
    GUIDED = "guided"
    AUTO = "auto"
    LAND = "land"
    RTL = "rtl"


class FailsafeState(enum.Enum):
    """Graceful-degradation ladder: each state strictly escalates.

    NOMINAL -> DEGRADED (a redundancy is gone but flight continues, e.g.
    dead-reckoning through a GPS outage or falling back to onboard SLAM)
    -> FAILSAFE_RTL (abort the mission, fly home) -> FAILSAFE_LAND (land
    now, position can no longer be trusted or energy is critical).
    DEGRADED clears back to NOMINAL when every cause clears; the two
    FAILSAFE states latch.
    """

    NOMINAL = 0
    DEGRADED = 1
    FAILSAFE_RTL = 2
    FAILSAFE_LAND = 3


#: SET_MODE payload index -> mode (mirrors custom-mode numbers loosely).
MODE_IDS = {
    0.0: FlightMode.STABILIZE,
    4.0: FlightMode.GUIDED,
    3.0: FlightMode.AUTO,
    9.0: FlightMode.LAND,
    6.0: FlightMode.RTL,
}


class ArmingError(RuntimeError):
    """Raised when pre-arm checks fail."""


@dataclass
class Geofence:
    """A cylindrical fence around home: breach triggers a failsafe.

    The safety-override path the paper routes through the inner loop for
    minimum latency; ArduCopter calls this the cylinder fence.
    """

    radius_m: float = 50.0
    ceiling_m: float = 30.0
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.radius_m <= 0 or self.ceiling_m <= 0:
            raise ValueError("fence dimensions must be positive")

    def breached(self, position_m: np.ndarray, home_m: np.ndarray) -> bool:
        if not self.enabled:
            return False
        horizontal = float(
            np.linalg.norm(np.asarray(position_m)[0:2] - np.asarray(home_m)[0:2])
        )
        return horizontal > self.radius_m or float(position_m[2]) > self.ceiling_m


@dataclass
class MissionItem:
    """One AUTO-mode waypoint."""

    position_m: np.ndarray
    hold_s: float = 0.0

    def __post_init__(self) -> None:
        self.position_m = np.asarray(self.position_m, dtype=float)
        if self.position_m.shape != (3,):
            raise ValueError("mission item position must be a 3-vector")
        if self.hold_s < 0:
            raise ValueError("hold time cannot be negative")


class Autopilot:
    """The flight-code state machine over the simulator."""

    LOW_BATTERY_SOC = 0.25
    CRITICAL_BATTERY_SOC = 0.18
    WAYPOINT_RADIUS_M = 0.6
    #: GPS fix age (s) that flips estimation into dead-reckoning.
    GPS_LOSS_DEGRADED_S = 1.0
    #: Dead-reckoning time (s) after which position is too uncertain to RTL.
    GPS_LOSS_LAND_S = 8.0
    #: Heartbeat silence (s) declaring the GCS link lost (once seen).
    LINK_LOSS_TIMEOUT_S = 5.0
    #: Mixer saturation ratio treated as thrust loss (degraded motors/ESCs).
    SATURATION_RATIO = 0.8
    #: Sustained saturation (s) before degrading / landing.  Descending needs
    #: less than hover thrust, so LAND is the recovery that un-saturates.
    SATURATION_DEGRADED_S = 0.5
    SATURATION_LAND_S = 2.0

    def __init__(
        self,
        sim: FlightVehicle,
        link: Optional[Link] = None,
        geofence: Optional[Geofence] = None,
        downlink: Optional[Link] = None,
    ):
        self.sim = sim
        self.link = link or Link()
        #: Telemetry/ACK channel; defaults to the shared bidirectional link.
        self.downlink = downlink or self.link
        self.mode = FlightMode.STABILIZE
        self.armed = False
        self.home_m = sim.true_state.position_m.copy()
        self.mission: List[MissionItem] = []
        self._mission_index = 0
        self._hold_until_s: Optional[float] = None
        self.failsafe = FailsafeState.NOMINAL
        self.failsafe_cause: Optional[str] = None
        self._degraded_causes: set = set()
        self.geofence = geofence or Geofence()
        self.fence_breached = False
        self.events: List[Tuple[float, str]] = []
        #: Optional offload pose-staleness watchdog (see repro.autopilot.offload).
        self.pose_watchdog = None
        self._last_heartbeat_s: Optional[float] = None
        self._last_mix_counts = (0, 0)
        self._saturated_since_s: Optional[float] = None

    # -- arming -----------------------------------------------------------------

    def arm(self) -> None:
        """Pre-arm checks then arm; raises :class:`ArmingError` on failure."""
        if self.armed:
            raise ArmingError("already armed")
        soc = self.sim.state_of_charge
        if soc < self.LOW_BATTERY_SOC:
            raise ArmingError(f"battery too low to arm: {soc:.0%}")
        if self.sim.depleted:
            raise ArmingError("battery depleted")
        tilt = float(np.linalg.norm(self.sim.true_state.euler_rad[0:2]))
        if tilt > np.radians(20.0):
            raise ArmingError(f"airframe tilted {np.degrees(tilt):.0f} deg")
        self.armed = True
        self.home_m = self.sim.true_state.position_m.copy()
        self._log("armed")

    def disarm(self) -> None:
        if not self.armed:
            raise ArmingError("not armed")
        altitude = float(self.sim.true_state.position_m[2])
        if altitude > 0.3:
            raise ArmingError(f"refusing to disarm at {altitude:.1f} m altitude")
        self.armed = False
        self._log("disarmed")

    # -- commands ----------------------------------------------------------------

    def set_mode(self, mode: FlightMode) -> None:
        self.mode = mode
        self._log(f"mode={mode.value}")
        if mode is FlightMode.LAND:
            current = self.sim.true_state.position_m
            self.sim.goto(np.array([current[0], current[1], 0.0]))
        elif mode is FlightMode.RTL:
            self.sim.goto(
                np.array([self.home_m[0], self.home_m[1], max(3.0, self.home_m[2])])
            )

    def takeoff(self, altitude_m: float) -> None:
        if not self.armed:
            raise ArmingError("cannot take off while disarmed")
        if altitude_m <= 0:
            raise ValueError(f"takeoff altitude must be positive: {altitude_m}")
        self.mode = FlightMode.GUIDED
        current = self.sim.true_state.position_m
        self.sim.goto(np.array([current[0], current[1], altitude_m]))
        self._log(f"takeoff to {altitude_m:.1f} m")

    def goto(self, position_m: np.ndarray) -> None:
        if self.mode is not FlightMode.GUIDED:
            raise RuntimeError(f"goto requires GUIDED mode, in {self.mode.value}")
        self.sim.goto(np.asarray(position_m, dtype=float))

    def upload_mission(self, items: List[MissionItem]) -> None:
        if not items:
            raise ValueError("mission cannot be empty")
        self.mission = list(items)
        self._mission_index = 0
        self._log(f"mission uploaded: {len(items)} items")

    # -- main loop ----------------------------------------------------------------

    def update(self, duration_s: float = 0.1) -> None:
        """Run the autopilot and its :class:`FlightSimulator` forward by
        ``duration_s``."""
        if duration_s <= 0:
            raise ValueError(f"duration must be positive: {duration_s}")
        sim = self.sim
        if not isinstance(sim, FlightSimulator):
            raise TypeError(
                "an ensemble lane is stepped by EnsembleFlightSimulator.run_for"
            )
        self._update_pre()
        sim.run_for(duration_s)
        self._update_post()

    def _update_pre(self) -> None:
        """The control-cycle work that precedes the physics burst.

        Split out of :meth:`update` so the ensemble campaign driver can run
        every lane's link/failsafe/mission logic first, step all lanes'
        physics together in one vectorized ``run_for``, then finish each
        lane with :meth:`_update_post` — preserving the exact per-trial
        sequence of the scalar loop.
        """
        self.link.advance_to(self.sim.time_s)
        self.downlink.advance_to(self.sim.time_s)
        self._process_link()
        self._battery_failsafe()
        self._gps_failsafe()
        self._link_failsafe()
        self._thrust_failsafe()
        self._offload_watchdog()
        self._fence_check()
        if self.mode is FlightMode.AUTO and self.armed:
            self._advance_mission()

    def _update_post(self) -> None:
        """The control-cycle work that follows the physics burst."""
        self._send_state_report()

    def _process_link(self) -> None:
        for message in self.link.drain():
            if message.message_type is MessageType.COMMAND_LONG:
                self._handle_command(message.payload, message.sequence)
            elif message.message_type is MessageType.HEARTBEAT:
                self._last_heartbeat_s = self.sim.time_s
            elif message.message_type is MessageType.SET_POSITION_TARGET:
                if len(message.payload) < 3:
                    continue
                if self.mode is FlightMode.GUIDED and self.armed:
                    self.sim.goto(np.asarray(message.payload[0:3], dtype=float))

    def _handle_command(self, payload: Tuple[float, ...], sequence: int = 0) -> None:
        """Execute one COMMAND_LONG and ACK its outcome on the downlink."""
        if not payload:
            return
        command = Command(int(payload[0]))
        result = ACK_ACCEPTED
        try:
            self._execute_command(command, payload)
        except ArmingError as error:
            # Arming/disarming refusals are operational outcomes the GCS
            # must learn about; protocol violations still raise loudly.
            result = ACK_FAILED
            self._log(f"command {command.name} rejected: {error}")
        self.downlink.send(
            MessageType.ACK, (float(command), result, float(sequence))
        )

    def _execute_command(self, command: Command, payload: Tuple[float, ...]) -> None:
        if command is Command.ARM_DISARM:
            if len(payload) > 1 and payload[1] >= 0.5:
                if not self.armed:
                    self.arm()
            elif self.armed:
                self.disarm()
        elif command is Command.TAKEOFF and len(payload) > 1:
            self.takeoff(float(payload[1]))
        elif command is Command.LAND:
            self.set_mode(FlightMode.LAND)
        elif command is Command.RETURN_TO_LAUNCH:
            self.set_mode(FlightMode.RTL)
        elif command is Command.SET_MODE and len(payload) > 1:
            mode = MODE_IDS.get(payload[1])
            if mode is None:
                raise ValueError(f"unknown mode id {payload[1]}")
            self.set_mode(mode)

    # -- graceful degradation ------------------------------------------------------

    def _enter_failsafe(self, state: FailsafeState, cause: str) -> None:
        """Escalate the failsafe ladder (never de-escalate); act on entry."""
        if state.value <= self.failsafe.value:
            return
        self.failsafe = state
        self.failsafe_cause = cause
        if state is FailsafeState.FAILSAFE_RTL:
            self.set_mode(FlightMode.RTL)
            self._log(f"FAILSAFE: {cause} -> RTL")
        elif state is FailsafeState.FAILSAFE_LAND:
            self.set_mode(FlightMode.LAND)
            self._log(f"FAILSAFE: {cause} -> LAND")

    def _degrade(self, cause: str) -> None:
        """Enter (or add a cause to) the DEGRADED state."""
        if cause in self._degraded_causes:
            return
        self._degraded_causes.add(cause)
        if self.failsafe is FailsafeState.NOMINAL:
            self.failsafe = FailsafeState.DEGRADED
            self.failsafe_cause = cause
            self._log(f"DEGRADED: {cause}")

    def _recover(self, cause: str) -> None:
        """Clear a degradation cause; back to NOMINAL when none remain."""
        if cause not in self._degraded_causes:
            return
        self._degraded_causes.discard(cause)
        self._log(f"RECOVERED: {cause}")
        if self.failsafe is FailsafeState.DEGRADED and not self._degraded_causes:
            self.failsafe = FailsafeState.NOMINAL
            self.failsafe_cause = None
            self._log("NOMINAL: all degradations cleared")

    def _battery_failsafe(self) -> None:
        """RTL on low battery, LAND on critical (the safety-override path
        the paper routes through the inner loop)."""
        if not self.armed:
            return
        soc = self.sim.state_of_charge
        if soc < self.CRITICAL_BATTERY_SOC or self.sim.depleted:
            self._enter_failsafe(FailsafeState.FAILSAFE_LAND, "critical battery")
        elif soc < self.LOW_BATTERY_SOC and self.mode not in (
            FlightMode.RTL,
            FlightMode.LAND,
        ):
            self._enter_failsafe(FailsafeState.FAILSAFE_RTL, "low battery")

    def _gps_failsafe(self) -> None:
        """Dead-reckon through short GPS outages; LAND when drift is unbounded.

        While the fix is stale the EKF keeps predicting on the IMU alone
        (dead-reckoning); position uncertainty grows without bound, so after
        ``GPS_LOSS_LAND_S`` the only safe action left is a controlled LAND —
        RTL would navigate on a fiction.
        """
        if not self.armed or not self.sim.use_ekf:
            return
        age = self.sim.gps_fix_age_s()
        if age > self.GPS_LOSS_DEGRADED_S:
            self._degrade("gps loss (dead-reckoning)")
            if age > self.GPS_LOSS_LAND_S:
                self._enter_failsafe(FailsafeState.FAILSAFE_LAND, "gps loss")
        else:
            self._recover("gps loss (dead-reckoning)")

    def _link_failsafe(self) -> None:
        """RTL on GCS heartbeat loss (armed only after a heartbeat is seen)."""
        if not self.armed or self._last_heartbeat_s is None:
            return
        if self.sim.time_s - self._last_heartbeat_s > self.LINK_LOSS_TIMEOUT_S:
            self._enter_failsafe(FailsafeState.FAILSAFE_RTL, "link loss")

    def _thrust_failsafe(self) -> None:
        """Land on sustained mixer saturation (thrust loss).

        When the mixer keeps hitting per-motor ceilings — a degraded rotor,
        ESC thermal throttling — attitude authority is compromised.  Flying
        on is how drones flip; descending needs less than hover thrust, so a
        controlled LAND restores margin.
        """
        if not self.armed:
            return
        previous_mixes, previous_saturations = self._last_mix_counts
        self._last_mix_counts = self.sim.mix_counts()
        total_mixes, total_saturations = self._last_mix_counts
        mixes = total_mixes - previous_mixes
        if mixes <= 0:
            return
        ratio = (total_saturations - previous_saturations) / mixes
        if ratio < self.SATURATION_RATIO:
            if self._saturated_since_s is not None:
                self._saturated_since_s = None
                self._recover("thrust saturation")
            return
        if self._saturated_since_s is None:
            self._saturated_since_s = self.sim.time_s
        sustained = self.sim.time_s - self._saturated_since_s
        if sustained >= self.SATURATION_DEGRADED_S:
            self._degrade("thrust saturation")
        if sustained >= self.SATURATION_LAND_S:
            self._enter_failsafe(FailsafeState.FAILSAFE_LAND, "thrust saturation")

    def _offload_watchdog(self) -> None:
        """Fall back to onboard SLAM when offloaded poses go stale."""
        if self.pose_watchdog is None or not self.armed:
            return
        transition = self.pose_watchdog.update(self.sim.time_s)
        if transition == "fallback":
            self._degrade("offload pose stale (onboard SLAM fallback)")
        elif transition == "recovered":
            self._recover("offload pose stale (onboard SLAM fallback)")

    def _fence_check(self) -> None:
        """RTL on geofence breach; latched until mode is changed manually."""
        if not self.armed or self.fence_breached:
            return
        if self.geofence.breached(self.sim.true_state.position_m, self.home_m):
            self.fence_breached = True
            self._enter_failsafe(FailsafeState.FAILSAFE_RTL, "geofence breach")

    def _advance_mission(self) -> None:
        if self._mission_index >= len(self.mission):
            self.set_mode(FlightMode.RTL)
            return
        item = self.mission[self._mission_index]
        position = self.sim.true_state.position_m
        distance = float(np.linalg.norm(position - item.position_m))
        self.sim.goto(item.position_m)
        if distance < self.WAYPOINT_RADIUS_M:
            if self._hold_until_s is None:
                self._hold_until_s = self.sim.time_s + item.hold_s
            if self.sim.time_s >= self._hold_until_s:
                self._mission_index += 1
                self._hold_until_s = None
                self._log(f"waypoint {self._mission_index} reached")

    def _send_state_report(self) -> None:
        state = self.sim.true_state
        self.downlink.send(
            MessageType.STATE_REPORT,
            tuple(state.position_m)
            + tuple(state.velocity_m_s)
            + (self.sim.state_of_charge,),
        )

    def _log(self, event: str) -> None:
        self.events.append((self.sim.time_s, event))

    @property
    def mission_complete(self) -> bool:
        return bool(self.mission) and self._mission_index >= len(self.mission)

    @property
    def mission_progress(self) -> float:
        """Fraction of uploaded mission items reached, in [0, 1].

        0.0 with no mission uploaded — the public accessor harnesses use
        instead of reaching into ``_mission_index``.
        """
        if not self.mission:
            return 0.0
        return min(1.0, self._mission_index / len(self.mission))
