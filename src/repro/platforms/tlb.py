"""TLB simulator.

The paper's headline interference number: running SLAM beside the autopilot
causes 4.5x as many TLB misses as the autopilot alone.  A small
fully-associative LRU TLB over 4 KiB pages reproduces the effect — SLAM's
large, scattered working set evicts the autopilot's few hot pages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class TlbStats:
    accesses: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            raise ValueError("no accesses recorded; miss rate undefined")
        return self.misses / self.accesses

    def reset(self) -> None:
        self.accesses = 0
        self.misses = 0


class Tlb:
    """Fully associative LRU TLB.

    ``pages`` holds the resident page numbers in LRU -> MRU insertion
    order, which the trace engine walks in place; like a cache set it is
    always full, starting as negative sentinels that are evicted first.
    """

    def __init__(self, entries: int = 64, page_bytes: int = 4096, name: str = "TLB"):
        if entries <= 0:
            raise ValueError(f"entry count must be positive, got {entries}")
        if page_bytes <= 0 or page_bytes & (page_bytes - 1) != 0:
            raise ValueError(f"page size must be a positive power of two: {page_bytes}")
        self.name = name
        self.entries = entries
        self.page_bytes = page_bytes
        self.stats = TlbStats()
        self.flush()

    def flush(self) -> None:
        """Invalidate all translations (what a context switch does on A53)."""
        self.pages: Dict[int, bool] = dict.fromkeys(
            range(-1, -self.entries - 1, -1), True
        )
