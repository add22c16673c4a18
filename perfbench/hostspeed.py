"""Host-speed sampling, so that drift of a shared host cancels out of rates.

On a host shared with other machines the same code runs at a speed that
drifts by 20% or more within seconds, and by as much again between runs
a minute apart.  :class:`HostSpeed` measures that drift while a workload
runs: a real-time interval timer interrupts the workload every
``period_s`` and times one pass of a fixed reference kernel (small NumPy
vectors and Python floats, and a pointer chase over a few MB of Python
objects, the mix the simulator's per-tick code is made of).  The kernel
never touches library code, so a change to the library moves the
workload's time and not the kernel's.

:func:`slowdown` is the median kernel time of a window over
:data:`REFERENCE_KERNEL_S`.  A rate times the slowdown, or a time divided
by it, reads as the rate or time on a host that runs the kernel in
:data:`REFERENCE_KERNEL_S`.  The time spent in the handler is returned by
:meth:`HostSpeed.window` and is left out of the workload's time.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from typing import List, Tuple

import numpy as np

#: Kernel time of the reference host (an idle 2-vCPU x86-64 VM, CPython
#: 3.11): a normalized rate is the rate on that host.
REFERENCE_KERNEL_S = 1.6e-3

_CHASE_NODES = 30_000
_CHASE_STEPS = 600
_VECTOR_STEPS = 120


class _Node:
    __slots__ = ("x", "next")

    def __init__(self, x: float):
        self.x = x
        self.next: "_Node | None" = None


def _chase_ring() -> _Node:
    """A ring of nodes linked in a fixed random order."""
    nodes = [_Node(float(i)) for i in range(_CHASE_NODES)]
    order = np.random.default_rng(0).permutation(_CHASE_NODES)
    for a, b in zip(order, np.roll(order, -1)):
        nodes[a].next = nodes[b]
    return nodes[int(order[0])]


def reference_kernel(ring: _Node) -> float:
    """One pass of the fixed reference work; returns a checksum."""
    state = 12345
    q = np.array([1.0, 0.0, 0.0, 0.0])
    v = np.zeros(3)
    m = np.eye(3)
    acc = 0.0
    for _ in range(_VECTOR_STEPS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        x = state / 2147483648.0
        v = m @ v + np.array([x, 1.0 - x, 0.5])
        q = q + 0.001 * np.array([0.0, v[0], v[1], v[2]])
        q = q / np.linalg.norm(q)
        acc += math.sin(x) * math.cos(acc * 1e-3) + float(v[0]) * 1e-6
    node = ring
    for _ in range(_CHASE_STEPS):
        acc += node.x * 1e-9
        node = node.next
    return acc


class HostSpeed:
    """Samples the reference kernel every ``period_s`` while active.

    Use as a context manager around the timed part of a run; call
    :meth:`window` before and after each timed sample.
    """

    def __init__(self, period_s: float = 0.1):
        self.period_s = period_s
        self.ring = _chase_ring()
        self.kernel_s: List[float] = []
        self.handler_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_kernel(self.ring)
        t1 = time.perf_counter()
        self.kernel_s.append(t1 - t0)
        self.handler_s += time.perf_counter() - t0

    def __enter__(self) -> "HostSpeed":
        reference_kernel(self.ring)  # warm-up
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> Tuple[int, float]:
        """A point to measure a window from."""
        return len(self.kernel_s), self.handler_s

    def window(self, start: Tuple[int, float]) -> Tuple[List[float], float]:
        """(kernel times, handler seconds) since ``start``."""
        return self.kernel_s[start[0]:], self.handler_s - start[1]


def slowdown(kernel_s: List[float]) -> float:
    """How much slower than the reference host the kernel ran (1.0 when
    the window holds no sample)."""
    if not kernel_s:
        return 1.0
    return statistics.median(kernel_s) / REFERENCE_KERNEL_S
