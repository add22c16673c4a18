"""Power-trace reconstruction (paper Figure 16).

Figure 16a is the RPi's USB-metered power across software phases
(disconnected -> autopilot -> +SLAM idle -> +SLAM flying -> shutdown);
Figure 16b is the whole-drone oscilloscope trace during a flight.  This
module reconstructs both: phased compute-power synthesis for (a) and
flight-simulator integration for (b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.sim.missions import Mission, figure16_mission
from repro.sim.simulator import DroneModel, FlightSimulator

#: Measured RPi power levels from Section 5.1 (W).
RPI_AUTOPILOT_W = 3.39
RPI_AUTOPILOT_SLAM_IDLE_W = 4.05
RPI_AUTOPILOT_SLAM_FLYING_W = 4.56
RPI_SLAM_PEAK_W = 5.0
RPI_SHUTDOWN_COMPONENTS_W = 1.0

#: Oscilloscope/USB-meter sampling setup from Section 5's experimental setup.
USB_METER_RATE_HZ = 2.0       # one reading every half second
OSCILLOSCOPE_RATE_HZ = 50.0   # one reading every 20 ms


@dataclass(frozen=True)
class PowerPhase:
    """One labelled segment of a power trace."""

    label: str
    duration_s: float
    mean_power_w: float
    fluctuation_w: float = 0.05

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(f"phase duration must be positive: {self.duration_s}")
        if self.mean_power_w < 0 or self.fluctuation_w < 0:
            raise ValueError("power levels cannot be negative")


@dataclass
class PowerTrace:
    """A sampled power time series with phase annotations."""

    times_s: np.ndarray
    powers_w: np.ndarray
    phase_labels: List[str] = field(default_factory=list)
    phase_boundaries_s: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.times_s.shape != self.powers_w.shape:
            raise ValueError("times and powers must have the same shape")

    def mean_power_w(self, start_s: float = 0.0, end_s: float = None) -> float:
        end = self.times_s[-1] if end_s is None else end_s
        mask = (self.times_s >= start_s) & (self.times_s <= end)
        if not np.any(mask):
            raise ValueError(f"no samples in window [{start_s}, {end}]")
        return float(np.mean(self.powers_w[mask]))

    def peak_power_w(self) -> float:
        return float(np.max(self.powers_w))

    def phase_mean_w(self, label: str) -> float:
        """Mean power within the named phase."""
        if label not in self.phase_labels:
            raise KeyError(
                f"unknown phase {label!r}; phases: {self.phase_labels}"
            )
        index = self.phase_labels.index(label)
        start = self.phase_boundaries_s[index]
        end = self.phase_boundaries_s[index + 1]
        return self.mean_power_w(start, end - 1e-9)


def synthesize_phased_trace(
    phases: Sequence[PowerPhase],
    sample_rate_hz: float = USB_METER_RATE_HZ,
    seed: int = 7,
) -> PowerTrace:
    """Build a trace from phase definitions (the Figure 16a method)."""
    if not phases:
        raise ValueError("need at least one phase")
    if sample_rate_hz <= 0:
        raise ValueError(f"sample rate must be positive: {sample_rate_hz}")
    rng = np.random.default_rng(seed)
    times: List[float] = []
    powers: List[float] = []
    boundaries = [0.0]
    labels = []
    clock = 0.0
    for phase in phases:
        count = max(1, int(round(phase.duration_s * sample_rate_hz)))
        for index in range(count):
            times.append(clock + index / sample_rate_hz)
            powers.append(
                max(
                    0.0,
                    phase.mean_power_w
                    + float(rng.normal(0.0, phase.fluctuation_w)),
                )
            )
        clock += phase.duration_s
        boundaries.append(clock)
        labels.append(phase.label)
    return PowerTrace(
        times_s=np.asarray(times),
        powers_w=np.asarray(powers),
        phase_labels=labels,
        phase_boundaries_s=boundaries,
    )


def rpi_power_phases(
    slam_active_power_w: float = RPI_AUTOPILOT_SLAM_FLYING_W,
) -> List[PowerPhase]:
    """The Figure 16a phase script with the paper's measured levels."""
    return [
        PowerPhase("disconnected", 30.0, 0.0, fluctuation_w=0.0),
        PowerPhase("autopilot", 150.0, RPI_AUTOPILOT_W, fluctuation_w=0.08),
        PowerPhase(
            "autopilot+slam-idle", 150.0, RPI_AUTOPILOT_SLAM_IDLE_W,
            fluctuation_w=0.10,
        ),
        PowerPhase(
            "autopilot+slam-flying", 300.0, slam_active_power_w,
            fluctuation_w=0.22,
        ),
        PowerPhase(
            "shutdown-components-powered", 60.0, RPI_SHUTDOWN_COMPONENTS_W,
            fluctuation_w=0.03,
        ),
    ]


def figure16a_trace(seed: int = 7) -> PowerTrace:
    """Reconstruct the RPi power trace of Figure 16a."""
    return synthesize_phased_trace(rpi_power_phases(), seed=seed)


def figure16b_trace(
    model: DroneModel = None,
    mission: Mission = None,
    physics_rate_hz: float = 400.0,
) -> PowerTrace:
    """Reconstruct the whole-drone flight power trace of Figure 16b.

    Runs the closed-loop simulator through the takeoff/hover/maneuver/land
    mission and samples electrical power at the oscilloscope rate.
    """
    if model is None:
        # The paper's drone: ~1.07 kg on a 450 mm frame, 3S 3000 mAh.
        model = DroneModel(
            mass_kg=1.071,
            wheelbase_mm=450.0,
            battery_cells=3,
            battery_capacity_mah=3000.0,
            compute_power_w=RPI_AUTOPILOT_SLAM_FLYING_W,
            sensors_power_w=1.0,
        )
    if mission is None:
        mission = figure16_mission()
    sim = FlightSimulator(
        model,
        physics_rate_hz=physics_rate_hz,
        record_rate_hz=OSCILLOSCOPE_RATE_HZ,
    )
    mission.run(sim)
    times = np.array([s.time_s for s in sim.samples])
    powers = np.array([s.electrical_power_w for s in sim.samples])
    boundaries = [0.0]
    labels = []
    clock = 0.0
    for phase in mission.phases:
        clock += phase.duration_s
        boundaries.append(clock)
        labels.append(phase.kind.value)
    return PowerTrace(
        times_s=times,
        powers_w=powers,
        phase_labels=labels,
        phase_boundaries_s=boundaries,
    )
