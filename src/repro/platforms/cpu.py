"""Trace-driven in-order core model.

Executes :class:`repro.platforms.workload.Trace` streams against a cache
hierarchy, TLB, and branch predictor, charging standard in-order penalties.
Per-context performance counters come out the other end — the simulator-side
equivalent of ``perf stat`` in the paper's Section 5.1 experiment.  The
batch trace engine (:mod:`repro.platforms.trace_engine`) is the one
execution path; :func:`repro.oracles.run_segments` is its per-access
reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.platforms import trace_engine
from repro.platforms.branch import GsharePredictor
from repro.platforms.cache import SetAssociativeCache, rpi_cache_hierarchy
from repro.platforms.tlb import Tlb
from repro.platforms.workload import Trace


@dataclass
class CorePenalties:
    """Cycle penalties of an in-order Cortex-A-class core."""

    base_cpi: float = 1.0
    l1_miss_llc_hit: int = 12
    llc_miss_dram: int = 60
    tlb_miss: int = 28
    branch_mispredict: int = 13

    def __post_init__(self) -> None:
        if self.base_cpi <= 0:
            raise ValueError("base CPI must be positive")
        if min(
            self.l1_miss_llc_hit,
            self.llc_miss_dram,
            self.tlb_miss,
            self.branch_mispredict,
        ) < 0:
            raise ValueError("penalties cannot be negative")


@dataclass
class PerfCounters:
    """perf-stat style counters for one execution context."""

    instructions: int = 0
    cycles: float = 0.0
    llc_accesses: int = 0
    llc_misses: int = 0
    branches: int = 0
    branch_misses: int = 0
    tlb_accesses: int = 0
    tlb_misses: int = 0

    @property
    def ipc(self) -> float:
        if self.cycles <= 0:
            raise ValueError("no cycles recorded; IPC undefined")
        return self.instructions / self.cycles

    @property
    def llc_miss_rate(self) -> float:
        if self.llc_accesses == 0:
            raise ValueError("no LLC accesses recorded")
        return self.llc_misses / self.llc_accesses

    @property
    def branch_miss_rate(self) -> float:
        if self.branches == 0:
            raise ValueError("no branches recorded")
        return self.branch_misses / self.branches

    @property
    def tlb_miss_rate(self) -> float:
        if self.tlb_accesses == 0:
            raise ValueError("no TLB accesses recorded")
        return self.tlb_misses / self.tlb_accesses


def _is_pow2(value: int) -> bool:
    return value > 0 and value & (value - 1) == 0


class InOrderCore:
    """Single-issue in-order core with shared or private memory structures.

    The trace engine's kernels assume the RPi-shaped topology: an L1
    (optionally with next-line prefetch) in front of a last-level cache
    with no further level and no prefetcher, equal power-of-two line sizes,
    and power-of-two set counts (set selection by bitmask).  The
    constructor refuses anything else; :class:`Tlb` already refuses a page
    size that is not a power of two.
    """

    def __init__(
        self,
        penalties: Optional[CorePenalties] = None,
        l1: Optional[SetAssociativeCache] = None,
        llc: Optional[SetAssociativeCache] = None,
        tlb: Optional[Tlb] = None,
        predictor: Optional[GsharePredictor] = None,
        flush_on_context_switch: bool = True,
    ):
        if (l1 is None) != (llc is None):
            raise ValueError("provide both l1 and llc, or neither")
        if l1 is None:
            l1, llc = rpi_cache_hierarchy()
        for unsupported, message in (
            (l1.next_level is not llc, "the L1's next level must be the LLC"),
            (llc.next_level is not None, "the LLC cannot have a next level"),
            (llc.prefetch_next_line, "the LLC cannot prefetch"),
            (l1.line_bytes != llc.line_bytes,
             "the L1 and LLC line sizes must match"),
            (not _is_pow2(l1.line_bytes),
             f"line size {l1.line_bytes} is not a power of two"),
            (not _is_pow2(l1.set_count),
             f"L1 set count {l1.set_count} is not a power of two"),
            (not _is_pow2(llc.set_count),
             f"LLC set count {llc.set_count} is not a power of two"),
        ):
            if unsupported:
                raise ValueError(f"unsupported core geometry: {message}")
        self.penalties = penalties or CorePenalties()
        self.l1 = l1
        self.llc = llc
        self.tlb = tlb or Tlb(entries=64)
        self.predictor = predictor or GsharePredictor()
        self.flush_on_context_switch = flush_on_context_switch
        self.counters: Dict[str, PerfCounters] = {}
        self._current_context: Optional[str] = None

    def _switch_to(self, context: str) -> None:
        if context == self._current_context:
            return
        if self._current_context is not None and self.flush_on_context_switch:
            # Cortex-A53 flushes TLB on ASID pressure; branch history is
            # effectively clobbered by the other workload's branches.
            self.tlb.flush()
            self.predictor.flush_history()
        self._current_context = context
        self.counters.setdefault(context, PerfCounters())

    def reset_counters(self) -> None:
        """Zero all performance counters while keeping microarchitectural
        state (cache/TLB/predictor contents) — the warmup-exclusion pattern
        perf measurements use."""
        self.counters = {}
        self.l1.stats.reset()
        self.llc.stats.reset()
        self.tlb.stats.reset()
        self.predictor.stats.reset()

    def run_trace(self, context: str, trace: Trace) -> PerfCounters:
        """Execute a whole trace under one context; returns its counters."""
        return self.run_segments([(context, trace)])[context]

    def run_segments(
        self, segments: List[Tuple[str, Trace]]
    ) -> Dict[str, PerfCounters]:
        """Execute scheduled segments (from :func:`workload.interleave`)
        with :func:`trace_engine.run_segments_batch`."""
        if not segments:
            raise ValueError("no segments to execute")
        return trace_engine.run_segments_batch(self, segments)
