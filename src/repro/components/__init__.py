"""Synthetic commercial-component substrate.

Batteries, ESCs, frames, motors, propellers, flight controllers, external
sensors, and a commercial-drone reference database — everything the paper's
component census (Section 3.1, Table 4) provides.
"""

from repro.components.base import (
    Component,
    LinearFit,
    linear_fit,
    manufacturer_names,
)
from repro.components.battery import (
    FIG7_WEIGHT_FITS,
    BatterySpec,
    battery_weight_g,
    make_battery,
)
from repro.components.catalog import (
    ComponentCatalog,
    generate_batteries,
    generate_catalog,
    generate_escs,
    generate_frames,
    generate_motors,
)
from repro.components.commercial import (
    COMMERCIAL_DRONES,
    FIGURE11_DRONES,
    CommercialDrone,
    drones_for_wheelbase,
)
from repro.components.compute import (
    ADVANCED_CHIP_POWER_W,
    BASIC_CHIP_POWER_W,
    BoardClass,
    ComputeBoard,
    boards_by_class,
    find_board,
    table4_flight_controllers,
)
from repro.components.esc import (
    FIG8A_WEIGHT_FITS,
    EscClass,
    EscSpec,
    esc_set_weight_g,
    esc_unit_weight_g,
    make_esc,
)
from repro.components.frame import (
    FIG8B_LARGE_FIT,
    FIG8B_SMALL_FIT,
    PAPER_WHEELBASES_MM,
    FrameSpec,
    frame_weight_g,
    make_frame,
)
from repro.components.motor import MotorSpec, design_motor_product
from repro.components.propeller import propeller_set_weight_g
from repro.components.sensors import (
    SensorKind,
    SensorProduct,
    find_sensor,
    table4_external_sensors,
)

__all__ = [
    "Component",
    "LinearFit",
    "linear_fit",
    "manufacturer_names",
    "FIG7_WEIGHT_FITS",
    "BatterySpec",
    "battery_weight_g",
    "make_battery",
    "ComponentCatalog",
    "generate_batteries",
    "generate_catalog",
    "generate_escs",
    "generate_frames",
    "generate_motors",
    "COMMERCIAL_DRONES",
    "FIGURE11_DRONES",
    "CommercialDrone",
    "drones_for_wheelbase",
    "ADVANCED_CHIP_POWER_W",
    "BASIC_CHIP_POWER_W",
    "BoardClass",
    "ComputeBoard",
    "boards_by_class",
    "find_board",
    "table4_flight_controllers",
    "FIG8A_WEIGHT_FITS",
    "EscClass",
    "EscSpec",
    "esc_set_weight_g",
    "esc_unit_weight_g",
    "make_esc",
    "FIG8B_LARGE_FIT",
    "FIG8B_SMALL_FIT",
    "PAPER_WHEELBASES_MM",
    "FrameSpec",
    "frame_weight_g",
    "make_frame",
    "MotorSpec",
    "design_motor_product",
    "propeller_set_weight_g",
    "SensorKind",
    "SensorProduct",
    "find_sensor",
    "table4_external_sensors",
]
