"""Set-associative cache simulator (LRU) for the Figure 15 interference study.

The paper measures, with Linux perf on the RPi, how running SLAM beside the
autopilot degrades LLC and branch behaviour.  We reproduce the mechanism
with a trace-driven cache hierarchy: private L1s per workload context and a
shared LLC whose capacity contention is what the co-run experiment exposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union


@dataclass
class CacheStats:
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


class SetAssociativeCache:
    """A set-associative LRU cache over 64-bit addresses.

    ``sets`` holds, per set, the resident line numbers
    (``address // line_bytes``) in LRU -> MRU order; the trace engine
    (:mod:`repro.platforms.trace_engine`) walks and updates them in place.
    Every set is always full: it starts as unique negative sentinels, which
    no line can match and which sit oldest, so an eviction needs no length
    check and empty ways fill before any resident line is evicted.  A cache
    with a next level (the L1) keeps each set as a list, since a scan of a
    few ways is the cheapest hit test; a last-level cache keeps each as an
    insertion-ordered dict, since its wide sets want a hashed lookup.
    """

    def __init__(
        self,
        size_bytes: int,
        line_bytes: int = 64,
        associativity: int = 4,
        next_level: Optional["SetAssociativeCache"] = None,
        name: str = "cache",
        prefetch_next_line: bool = False,
    ):
        if size_bytes <= 0 or line_bytes <= 0 or associativity <= 0:
            raise ValueError("cache geometry must be positive")
        if size_bytes % (line_bytes * associativity) != 0:
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by "
                f"line*associativity {line_bytes * associativity}"
            )
        self.name = name
        self.line_bytes = line_bytes
        self.associativity = associativity
        self.set_count = size_bytes // (line_bytes * associativity)
        self.next_level = next_level
        self.prefetch_next_line = prefetch_next_line
        self.stats = CacheStats()
        self.flush()

    def flush(self) -> None:
        """Invalidate all lines (context-switch cost modeling)."""
        sentinels = range(-1, -self.associativity - 1, -1)
        self.sets: Union[List[List[int]], List[Dict[int, bool]]]
        if self.next_level is None:
            self.sets = [
                dict.fromkeys(sentinels, True) for _ in range(self.set_count)
            ]
        else:
            self.sets = [list(sentinels) for _ in range(self.set_count)]


def rpi_cache_hierarchy() -> tuple:
    """(L1D, LLC) roughly shaped like a Raspberry Pi Cortex-A core.

    32 KiB 4-way L1D over a shared 1 MiB 16-way LLC.  Returns the L1 (front
    door) and the LLC (shared level) so co-run experiments can share the LLC
    across contexts.
    """
    llc = SetAssociativeCache(
        size_bytes=1024 * 1024, line_bytes=64, associativity=16, name="LLC"
    )
    l1 = SetAssociativeCache(
        size_bytes=32 * 1024, line_bytes=64, associativity=4,
        next_level=llc, name="L1D", prefetch_next_line=True,
    )
    return l1, llc
