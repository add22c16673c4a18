"""The paper's open-source reference drone (Section 4, Figure 14).

A $500, 450 mm quadcopter: Navio2 + Raspberry Pi on a Crazepony F450-class
frame, able to carry 200 g of extra payload.  Figure 14's weight breakdown
is reproduced verbatim; helpers compare it against the Section 3.1 catalog
trends and instantiate a matching simulator model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.sim.simulator import DroneModel

#: Figure 14: part -> weight (g).  Sums to 1071 g.
FIGURE14_WEIGHTS_G: Dict[str, float] = {
    "frame": 272.0,
    "battery": 248.0,
    "motors": 220.0,
    "esc": 112.0,
    "rpi": 50.0,
    "propellers": 40.0,
    "gps": 30.0,
    "navio2": 23.0,
    "misc": 20.0,
    "rc_receiver": 17.0,
    "telemetry": 15.0,
    "power_module": 15.0,
    "ppm_encoder": 9.0,
}

TOTAL_COST_USD = 500.0
EXTRA_PAYLOAD_CAPACITY_G = 200.0
WHEELBASE_MM = 450.0
BATTERY_CELLS = 3
BATTERY_CAPACITY_MAH = 3000.0


@dataclass(frozen=True)
class BuildPart:
    """One bill-of-materials line."""

    name: str
    weight_g: float
    share: float


def total_weight_g() -> float:
    """The reference drone's all-up weight (g)."""
    return sum(FIGURE14_WEIGHTS_G.values())


def weight_breakdown() -> List[BuildPart]:
    """Figure 14 as parts with weight shares, heaviest first."""
    total = total_weight_g()
    parts = [
        BuildPart(name=name, weight_g=weight, share=weight / total)
        for name, weight in FIGURE14_WEIGHTS_G.items()
    ]
    return sorted(parts, key=lambda p: p.weight_g, reverse=True)


def simulator_model(
    compute_power_w: float = 4.56, sensors_power_w: float = 1.0
) -> DroneModel:
    """A :class:`DroneModel` of the reference drone.

    Default compute power is the measured RPi running autopilot + active
    SLAM (Section 5.1).
    """
    return DroneModel(
        mass_kg=total_weight_g() / 1000.0,
        wheelbase_mm=WHEELBASE_MM,
        battery_cells=BATTERY_CELLS,
        battery_capacity_mah=BATTERY_CAPACITY_MAH,
        compute_power_w=compute_power_w,
        sensors_power_w=sensors_power_w,
    )


def avionics_weight_g() -> float:
    """Everything that is neither propulsion, frame, battery, nor compute —
    the 'avionics' lump the design-space equations carry (~80 g here)."""
    avionics = ("gps", "rc_receiver", "telemetry", "power_module",
                "ppm_encoder")
    return sum(FIGURE14_WEIGHTS_G[name] for name in avionics)


def catalog_consistency() -> Dict[str, float]:
    """Reference weights vs the Section 3.1 catalog fits (ratios near 1).

    Returns model/actual ratios for the frame, battery, and ESC set —
    the check that Figure 14 'shows similar trends as shown in Section 3.1'.
    """
    from repro.components.battery import battery_weight_g
    from repro.components.esc import esc_set_weight_g
    from repro.components.frame import frame_weight_g

    frame_ratio = frame_weight_g(WHEELBASE_MM) / FIGURE14_WEIGHTS_G["frame"]
    battery_ratio = (
        battery_weight_g(BATTERY_CELLS, BATTERY_CAPACITY_MAH)
        / FIGURE14_WEIGHTS_G["battery"]
    )
    # The build sheet specifies 4 x 30 A ESCs.
    esc_ratio = esc_set_weight_g(30.0) / FIGURE14_WEIGHTS_G["esc"]
    return {
        "frame": frame_ratio,
        "battery": battery_ratio,
        "esc_set": esc_ratio,
    }
