"""Flight simulation: closed-loop simulator, missions, power traces
(Figure 16), and telemetry."""

from repro.sim.missions import (
    Mission,
    MissionPhase,
    PhaseKind,
    figure16_mission,
    survey_mission,
)
from repro.sim.power_trace import (
    OSCILLOSCOPE_RATE_HZ,
    RPI_AUTOPILOT_SLAM_FLYING_W,
    RPI_AUTOPILOT_SLAM_IDLE_W,
    RPI_AUTOPILOT_W,
    RPI_SLAM_PEAK_W,
    USB_METER_RATE_HZ,
    PowerPhase,
    PowerTrace,
    figure16a_trace,
    figure16b_trace,
    rpi_power_phases,
    synthesize_phased_trace,
)
from repro.sim.ensemble import (
    EnsembleFlightSimulator,
    LaneSim,
    hover_gust_monte_carlo,
)
from repro.sim.simulator import DroneModel, FlightSimulator, FlightVehicle, SimSample
from repro.sim.telemetry import TelemetryLog, TelemetryRecord

__all__ = [
    "Mission",
    "MissionPhase",
    "PhaseKind",
    "figure16_mission",
    "survey_mission",
    "OSCILLOSCOPE_RATE_HZ",
    "RPI_AUTOPILOT_SLAM_FLYING_W",
    "RPI_AUTOPILOT_SLAM_IDLE_W",
    "RPI_AUTOPILOT_W",
    "RPI_SLAM_PEAK_W",
    "USB_METER_RATE_HZ",
    "PowerPhase",
    "PowerTrace",
    "figure16a_trace",
    "figure16b_trace",
    "rpi_power_phases",
    "synthesize_phased_trace",
    "DroneModel",
    "EnsembleFlightSimulator",
    "FlightSimulator",
    "FlightVehicle",
    "LaneSim",
    "SimSample",
    "hover_gust_monte_carlo",
    "TelemetryLog",
    "TelemetryRecord",
]
