"""Analytic accelerator models: the FPGA bundle-adjustment engine and the
Navion-class ASIC (paper Section 5.2).

The paper's FPGA implementation "extensively accelerates the local and
global bundle adjustments ... by using simple modules of dense fixed-size
matrix algebra in a pipeline" plus an eSLAM-style feature-extraction front
end, clocked at 100 MHz on a ZYNQ XC7Z020.  We model the microarchitecture
analytically: pipelined MAC arrays whose throughput is lanes x clock, plus
a utilization report in the spirit of Vivado's post-implementation numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

FPGA_CLOCK_HZ = 100e6  # the paper sets the HLS clock to 100 MHz


@dataclass(frozen=True)
class AcceleratorBlock:
    """One pipelined functional block of the accelerator."""

    name: str
    lanes: int                 # parallel MAC/compare lanes
    clock_hz: float
    efficiency: float          # pipeline fill/stall efficiency in (0, 1]
    dsp_slices: int
    bram_kb: int

    def __post_init__(self) -> None:
        if self.lanes <= 0 or self.clock_hz <= 0:
            raise ValueError("lanes and clock must be positive")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"efficiency must be in (0, 1]: {self.efficiency}")
        if self.dsp_slices < 0 or self.bram_kb < 0:
            raise ValueError("resource counts cannot be negative")

    @property
    def throughput_ops_s(self) -> float:
        """Sustained operations per second."""
        return self.lanes * self.clock_hz * self.efficiency


@dataclass(frozen=True)
class AcceleratorDesign:
    """A full accelerator: named blocks plus a power envelope."""

    name: str
    blocks: Dict[str, AcceleratorBlock]
    static_power_w: float
    dynamic_power_w: float

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("accelerator needs at least one block")
        if self.static_power_w < 0 or self.dynamic_power_w < 0:
            raise ValueError("power cannot be negative")

    @property
    def total_power_w(self) -> float:
        return self.static_power_w + self.dynamic_power_w


def zynq_ba_accelerator() -> AcceleratorDesign:
    """The paper's ZYNQ XC7Z020 design: BA matrix pipeline + eSLAM front end.

    The XC7Z020 has 220 DSP slices and 630 KB of BRAM; the design fits
    comfortably (the paper reports post-implementation utilization from
    Vivado).  Power: 417 mW total.
    """
    blocks = {
        # Dense fixed-size matrix algebra for BA: 64 MAC lanes, deep pipeline.
        "ba_matrix_engine": AcceleratorBlock(
            name="ba_matrix_engine", lanes=96, clock_hz=FPGA_CLOCK_HZ,
            efficiency=0.85, dsp_slices=128, bram_kb=288,
        ),
        # eSLAM-style feature extraction: FAST + rBRIEF systolic pipeline.
        # "lanes" is fused operations per cycle: the pixel pipeline performs
        # the 16-pixel FAST test, orientation, and BRIEF comparisons of one
        # pixel position every cycle.
        "feature_front_end": AcceleratorBlock(
            name="feature_front_end", lanes=460, clock_hz=FPGA_CLOCK_HZ,
            efficiency=0.90, dsp_slices=36, bram_kb=144,
        ),
        # Pose-refinement (tracking) solver shares the matrix engine style.
        "tracking_solver": AcceleratorBlock(
            name="tracking_solver", lanes=32, clock_hz=FPGA_CLOCK_HZ,
            efficiency=0.80, dsp_slices=24, bram_kb=36,
        ),
    }
    return AcceleratorDesign(
        name="ZYNQ-XC7Z020-BA",
        blocks=blocks,
        static_power_w=0.12,
        dynamic_power_w=0.297,
    )


def navion_asic() -> AcceleratorDesign:
    """A Navion-class 65 nm ASIC (Suleiman et al.): 24 mW max, 20 FPS VIO.

    Lower clock and narrower datapaths than the FPGA, but an order of
    magnitude better energy efficiency; throughput lands slightly below the
    FPGA design, matching Table 5 (23.53x vs 30.70x over the RPi).
    """
    blocks = {
        "ba_matrix_engine": AcceleratorBlock(
            name="ba_matrix_engine", lanes=104, clock_hz=62.5e6,
            efficiency=0.92, dsp_slices=0, bram_kb=864,
        ),
        "feature_front_end": AcceleratorBlock(
            name="feature_front_end", lanes=660, clock_hz=62.5e6,
            efficiency=0.92, dsp_slices=0, bram_kb=256,
        ),
        "tracking_solver": AcceleratorBlock(
            name="tracking_solver", lanes=24, clock_hz=62.5e6,
            efficiency=0.85, dsp_slices=0, bram_kb=96,
        ),
    }
    return AcceleratorDesign(
        name="Navion-65nm",
        blocks=blocks,
        static_power_w=0.004,
        dynamic_power_w=0.020,
    )
