"""Branch predictor simulator (gshare with 2-bit counters).

Figure 15's third counter: co-running SLAM raises the autopilot's
branch-prediction miss rate because the shared global history and pattern
tables get polluted by SLAM's data-dependent branches.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class BranchStats:
    branches: int = 0
    mispredictions: int = 0

    @property
    def miss_rate(self) -> float:
        if self.branches == 0:
            raise ValueError("no branches recorded; miss rate undefined")
        return self.mispredictions / self.branches

    def reset(self) -> None:
        self.branches = 0
        self.mispredictions = 0


class GsharePredictor:
    """Gshare: PC xor global-history indexed table of 2-bit counters.

    ``table`` holds the counters and ``history`` the last ``history_bits``
    outcomes, newest in the LSB; the trace engine updates both in place.
    """

    def __init__(self, table_bits: int = 12, history_bits: int = 12):
        if not 4 <= table_bits <= 24:
            raise ValueError(f"table bits out of range: {table_bits}")
        if not 0 <= history_bits <= table_bits:
            raise ValueError(f"history bits out of range: {history_bits}")
        self.table_bits = table_bits
        self.history_bits = history_bits
        self.table = [2] * (1 << table_bits)  # weakly taken
        self.history = 0
        self.stats = BranchStats()

    def flush_history(self) -> None:
        """Clear the global history (context-switch pollution model)."""
        self.history = 0
