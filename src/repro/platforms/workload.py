"""Synthetic instruction/memory trace generators for the perf studies.

Figure 15 measures the autopilot and ORB-SLAM with Linux perf on the RPi.
We regenerate the mechanism with workload models whose memory and branch
behaviour match each program's character:

* **autopilot** — a hard-real-time control loop: hot state that fits in L1,
  a warm table region that lives in the LLC, a slow sensor-log ring buffer
  that touches fresh pages at a steady trickle (the TLB-miss baseline), and
  highly regular loop branches.
* **slam** — ORB-SLAM: streaming image/descriptor scans, a hot map region,
  cold pointer-chasing over a multi-megabyte map, and weakly biased
  data-dependent branches.

Traces are deterministic (seeded) numpy arrays consumed by
:mod:`repro.platforms.cpu`.  The order, size and dtype of every ``rng``
call are part of a seed's meaning.  Each draw is one full-length call,
never chunked: ``integers`` fills int64 output from buffered 32-bit
halves, so two half-length draws are a different stream.  To keep peak
memory near the trace's own size, each draw is reduced at once to bool
masks or worked on in place in the array it ends up in.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class OpKind(enum.IntEnum):
    ALU = 0
    LOAD = 1
    STORE = 2
    BRANCH = 3


@dataclass(frozen=True)
class Trace:
    """A decoded instruction trace.

    Construction refuses what the core model cannot execute: arrays of
    unequal length, a kind outside :class:`OpKind`, non-integer kinds,
    addresses or PCs, a negative address on a LOAD/STORE and a negative PC
    on a BRANCH.  The error names the field and the first bad index.
    """

    name: str
    kinds: np.ndarray      # (N,) uint8 of OpKind
    addresses: np.ndarray  # (N,) int64 — valid for LOAD/STORE
    pcs: np.ndarray        # (N,) int64 — valid for BRANCH
    taken: np.ndarray      # (N,) bool — valid for BRANCH

    def __post_init__(self) -> None:
        n = self.kinds.shape[0]
        if not (
            self.addresses.shape[0] == n
            and self.pcs.shape[0] == n
            and self.taken.shape[0] == n
        ):
            raise ValueError("trace arrays must have equal length")
        for field in ("kinds", "addresses", "pcs"):
            dtype = getattr(self, field).dtype
            if dtype.kind not in "iu":
                raise ValueError(
                    f"trace {field} must be integers, not {dtype} "
                    "(bad from index 0)"
                )
        if n == 0:
            return
        kinds = self.kinds
        last = max(OpKind)
        # Each whole-array min/max is one pass with no temporary; the mask
        # that finds the first bad index is built only when one exists.
        if kinds.min() < 0 or kinds.max() > last:
            _refuse(self, "kinds", (kinds < 0) | (kinds > last),
                    "is not an OpKind")
        if self.addresses.min() < 0:
            _refuse(self, "addresses", (self.addresses < 0)
                    & ((kinds == OpKind.LOAD) | (kinds == OpKind.STORE)),
                    "is a negative memory address")
        if self.pcs.min() < 0:
            _refuse(self, "pcs", (self.pcs < 0) & (kinds == OpKind.BRANCH),
                    "is a negative branch PC")

    @property
    def length(self) -> int:
        return int(self.kinds.shape[0])

    def slice(self, start: int, stop: int) -> "Trace":
        return Trace(
            name=self.name,
            kinds=self.kinds[start:stop],
            addresses=self.addresses[start:stop],
            pcs=self.pcs[start:stop],
            taken=self.taken[start:stop],
        )


def _refuse(trace: Trace, field: str, bad: np.ndarray, what: str) -> None:
    """Raise naming ``field``'s first index where ``bad`` holds, if any."""
    if bad.any():
        index = int(bad.argmax())
        value = getattr(trace, field)[index]
        raise ValueError(f"trace {field}[{index}] = {value} {what}")


def _branch_outcomes(
    rng: np.random.Generator, length: int, pc_count: int,
    bias_strong: float, bias_weak: float, weak_fraction: float,
) -> tuple:
    """Per-PC biased branch outcomes: most branches are predictable loops,
    a fraction are data-dependent."""
    pcs = rng.integers(0, pc_count, size=length)
    weak = (rng.random(pc_count) < weak_fraction)[pcs]
    pcs *= 4
    pcs += 0x10000
    u = rng.random(length)
    return pcs, np.where(weak, u < bias_weak, u < bias_strong)


def _kinds(
    rng: np.random.Generator, length: int, mem_fraction: float,
    branch_fraction: float,
) -> np.ndarray:
    kinds = np.full(length, OpKind.ALU, dtype=np.uint8)
    lanes = rng.random(length)
    kinds[lanes < mem_fraction] = OpKind.LOAD
    kinds[lanes < mem_fraction * 0.3] = OpKind.STORE
    kinds[lanes > 1.0 - branch_fraction] = OpKind.BRANCH
    return kinds


def _scatter(
    addresses: np.ndarray, where: np.ndarray, slots: np.ndarray, stride: int,
    base: int,
) -> None:
    """Write ``base + slots * stride`` into ``addresses`` where ``where``
    holds; ``slots`` is a fresh draw and becomes the scratch."""
    slots *= stride
    slots += base
    np.copyto(addresses, slots, where=where)


def autopilot_trace(
    length: int = 200_000,
    seed: int = 21,
    base_address: int = 0x1000_0000,
) -> Trace:
    """The flight-control loop trace.

    Memory mix: 90% hot state (24 KiB — lives in L1), ~9% warm gain/filter
    tables (48 KiB — lives in the LLC), ~1% sensor-log ring buffer hopping
    across fresh pages (the steady TLB-miss trickle).
    """
    if length <= 0:
        raise ValueError(f"length must be positive, got {length}")
    rng = np.random.default_rng(seed)
    regime = rng.random(length)
    hot = regime < 0.90
    warm = regime < 0.988
    warm ^= hot
    del regime
    # Sensor/log ring: one touch per page (page-hop logging) across a span
    # larger than the TLB reach — the steady TLB-miss trickle of the
    # autopilot running alone.
    addresses = np.arange(4096, 4096 * (length + 1), 4096, dtype=np.int64)
    addresses %= 8 * 1024 * 1024
    addresses += base_address + 0x0100_0000
    _scatter(addresses, hot, rng.integers(0, 24 * 1024 // 8, size=length),
             8, base_address)
    _scatter(addresses, warm, rng.integers(0, 48 * 1024 // 64, size=length),
             64, base_address + 0x0010_0000)
    del hot, warm
    pcs, taken = _branch_outcomes(
        rng, length, pc_count=300, bias_strong=0.97, bias_weak=0.60,
        weak_fraction=0.10,
    )
    return Trace(
        name="autopilot",
        kinds=_kinds(rng, length, mem_fraction=0.30, branch_fraction=0.12),
        addresses=addresses,
        pcs=pcs,
        taken=taken,
    )


def slam_trace(
    length: int = 200_000,
    working_set_bytes: int = 12 * 1024 * 1024,
    seed: int = 22,
    base_address: int = 0x4000_0000,
) -> Trace:
    """The ORB-SLAM trace.

    Memory mix: 57% streaming scans over a one-image (360 KiB) buffer,
    35% hot map core (256 KiB), 8% cold pointer-chasing across the full
    ``working_set_bytes`` map.
    """
    if length <= 0:
        raise ValueError(f"length must be positive, got {length}")
    if working_set_bytes < 64:
        raise ValueError(
            "working set must hold at least one 64-byte line, got "
            f"{working_set_bytes} bytes"
        )
    rng = np.random.default_rng(seed)
    regime = rng.random(length)
    hot_map = regime < 0.92
    cold = ~hot_map
    hot_map ^= regime < 0.57
    del regime
    addresses = rng.integers(16, 96, size=length)
    np.cumsum(addresses, out=addresses)
    addresses %= 360 * 1024  # one VGA image
    addresses += base_address
    _scatter(addresses, hot_map, rng.integers(0, 256 * 1024 // 64, size=length),
             64, base_address + 0x0400_0000)
    _scatter(addresses, cold, rng.integers(0, working_set_bytes // 64, size=length),
             64, base_address + 0x0800_0000)
    del hot_map, cold
    pcs, taken = _branch_outcomes(
        rng, length, pc_count=5000, bias_strong=0.92, bias_weak=0.68,
        weak_fraction=0.28,
    )
    return Trace(
        name="slam",
        kinds=_kinds(rng, length, mem_fraction=0.38, branch_fraction=0.16),
        addresses=addresses,
        pcs=pcs,
        taken=taken,
    )


def interleave(
    a: Trace, b: Trace, timeslice: int = 5_000, timeslice_b: int = None
) -> list:
    """Round-robin co-schedule two traces into (context, Trace) segments.

    Models the RPi running the autopilot and SLAM on the same core.  The
    quanta may be asymmetric (``timeslice_b``): the autopilot wakes for a
    short burst at each control period while SLAM grinds through long
    slices — which is exactly why SLAM wrecks the autopilot's cache and TLB
    state between autopilot wakeups.
    """
    if timeslice <= 0:
        raise ValueError(f"timeslice must be positive, got {timeslice}")
    if timeslice_b is None:
        timeslice_b = timeslice
    if timeslice_b <= 0:
        raise ValueError(f"timeslice_b must be positive, got {timeslice_b}")
    segments = []
    pos_a = pos_b = 0
    while pos_a < a.length or pos_b < b.length:
        if pos_a < a.length:
            end = min(pos_a + timeslice, a.length)
            segments.append((a.name, a.slice(pos_a, end)))
            pos_a = end
        if pos_b < b.length:
            end = min(pos_b + timeslice_b, b.length)
            segments.append((b.name, b.slice(pos_b, end)))
            pos_b = end
    return segments
