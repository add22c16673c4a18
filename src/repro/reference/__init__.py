"""The paper's open-source reference drone build (Section 4, Figure 14)."""

from repro.reference.build import (
    EXTRA_PAYLOAD_CAPACITY_G,
    FIGURE14_WEIGHTS_G,
    TOTAL_COST_USD,
    BuildPart,
    avionics_weight_g,
    catalog_consistency,
    simulator_model,
    total_weight_g,
    weight_breakdown,
)

__all__ = [
    "EXTRA_PAYLOAD_CAPACITY_G",
    "FIGURE14_WEIGHTS_G",
    "TOTAL_COST_USD",
    "BuildPart",
    "avionics_weight_g",
    "catalog_consistency",
    "simulator_model",
    "total_weight_g",
    "weight_breakdown",
]
