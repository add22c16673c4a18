"""repro — reproduction of "Quantifying the Design-Space Tradeoffs in
Autonomous Drones" (Hadidi et al., ASPLOS 2021).

Subpackages
-----------
core
    The paper's contribution: Equations 1-7, design-point evaluation,
    design-space sweeps, fit re-derivation, validation, and the Figure 12
    wizard.
components
    Synthetic commercial-component census (batteries, ESCs, frames, motors,
    propellers, boards, sensors) and the commercial-drone database.
physics
    Propulsion/airframe physics: momentum-theory propellers, BLDC motors,
    LiPo packs, 6-DOF rigid body, environment.
control
    Inner-/outer-loop control stack: PIDs, hierarchical cascade with
    time-scale separation, EKF state estimation, motor mixer.
sensors
    On-board sensor models at Table 2 data rates (IMU, barometer, GPS,
    magnetometer).
sim
    Multirate flight simulator, missions, power tracing, telemetry.
slam
    Feature-based SLAM pipeline (tracking + local/global bundle adjustment)
    on synthetic EuRoC-like sequences.
platforms
    Trace-driven microarchitecture simulation (caches, TLB, branch
    predictor, in-order core) and accelerator/power models of RPi4, Jetson
    TX2, FPGA, and ASIC platforms.
autopilot
    ArduCopter-like autopilot, DroneKit-like API, MAVLink-like transport.
reference
    The paper's open-source reference drone build (Figure 14).
"""

__version__ = "1.0.0"

PAPER_TITLE = "Quantifying the Design-Space Tradeoffs in Autonomous Drones"
PAPER_VENUE = "ASPLOS 2021"
PAPER_DOI = "10.1145/3445814.3446721"

