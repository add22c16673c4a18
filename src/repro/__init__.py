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


def clear_all_caches() -> None:
    """Drop every module-level memo cache in the library.

    One hook for test isolation and long-lived processes: the per-wheelbase
    propeller constants, the generated component catalog, the catalog
    regression fits, and the synthetic SLAM sequences.  Imports are
    deferred so calling this never pulls in subpackages the process has not
    already paid for.
    """
    from repro.components.catalog import clear_catalog_cache
    from repro.core.batch import _WHEELBASE_CONSTANTS_CACHE
    from repro.core.tradeoffs import clear_fit_cache
    from repro.slam.dataset import clear_sequence_cache

    _WHEELBASE_CONSTANTS_CACHE.clear()
    clear_catalog_cache()
    clear_fit_cache()
    clear_sequence_cache()
