"""Parallel runner for simulator-backed sweep workloads.

The vectorized engine (:mod:`repro.core.batch`) makes the closed-form
Equation 1-7 sweeps cheap enough that process parallelism would only add
overhead.  Simulator-backed studies are different: each design point costs
a full :class:`repro.sim.simulator.FlightSimulator` run, so fanning points
out across worker processes wins near-linearly.

There is one execution path: :meth:`ParallelSweepRunner.map` always runs
through :class:`repro.exec.supervised.SupervisedPool`; only the policy
differs.  Without a ``policy`` or ``journal`` the map fails fast
(:data:`FAIL_FAST`): the first failing item, in chunk order, aborts it
with its own exception carrying ``sweep_item_index``, and a worker death
raises :class:`repro.exec.errors.WorkerCrashError`.  With either, it is
supervised — retries, hang detection, quarantine, degradation, and
checkpoint/resume — and ``runner.last_report`` holds the
:class:`repro.exec.report.ExecutionReport`.  Chunks are contiguous and
depend only on input order, results come back in input order, and
``parallel=False`` (or one worker) runs inline, as hermetic tests do.

The numeric fast paths under the sweeps and studies have one path too: no
public signature takes an ``engine=`` switch.  Their scalar oracles live
in the private :mod:`repro.oracles`, and one harness
(``tests/equivalence.py``) holds each fast path to its DESIGN.md
§Performance tier: ``bitwise``, ``counter-exact`` (integers exact), or
``allclose`` (integer decisions still exact).

The mapped callable runs in worker processes, so it (and its arguments)
must be picklable — define it at module level, not as a lambda or closure.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, TypeVar, Union

from repro.exec.policy import ExecutionPolicy
from repro.exec.supervised import SupervisedPool, chunk_items  # chunk_items re-exported

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")

#: The policy of an unsupervised map: the first failing item aborts it.
FAIL_FAST = ExecutionPolicy(max_attempts=1, quarantine=False)


@dataclass(frozen=True)
class SweepRunnerConfig:
    """Worker-pool controls for :class:`ParallelSweepRunner`."""

    max_workers: Optional[int] = None
    chunk_size: int = 4
    parallel: bool = True
    #: Supervision knobs (retries, quarantine, degradation); ``None`` fails
    #: fast unless a journal is attached, which supervises with defaults.
    policy: Optional[ExecutionPolicy] = None

    def __post_init__(self) -> None:
        if self.max_workers is not None and self.max_workers <= 0:
            raise ValueError(
                f"max_workers must be positive, got {self.max_workers}"
            )
        if self.chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {self.chunk_size}")

    @property
    def resolved_workers(self) -> int:
        """Worker count after applying the ``os.cpu_count()`` default."""
        if self.max_workers is not None:
            return self.max_workers
        return max(1, os.cpu_count() or 1)


class ParallelSweepRunner:
    """Map a picklable callable over design points across worker processes."""

    def __init__(self, config: Optional[SweepRunnerConfig] = None):
        self.config = config if config is not None else SweepRunnerConfig()
        #: :class:`repro.exec.report.ExecutionReport` of the most recent
        #: supervised :meth:`map` call, else ``None``.
        self.last_report: Optional[Any] = None

    def map(
        self,
        fn: Callable[[_ItemT], _ResultT],
        items: Iterable[_ItemT],
        *,
        journal: Optional[Union[str, "os.PathLike[str]", Any]] = None,
    ) -> List[_ResultT]:
        """``[fn(item) for item in items]`` — possibly across processes.

        Results are returned in input order.  Without a policy or journal
        an exception raised by ``fn`` aborts the map and propagates with
        ``sweep_item_index`` attached, matching the serial loop; callables
        that must survive infeasible points should catch and encode their
        own errors — or run supervised (``config.policy`` or ``journal=``),
        where poison items are quarantined as
        :class:`repro.exec.supervised.QuarantinedItem` failure codes
        instead of aborting the sweep.
        """
        self.last_report = None
        materialized = list(items)
        if not materialized:
            return []
        supervised = self.config.policy is not None or journal is not None
        pool = SupervisedPool(
            workers=min(self.config.resolved_workers, len(materialized)),
            chunk_size=self.config.chunk_size,
            policy=self.config.policy if supervised else FAIL_FAST,
            journal=journal,
            parallel=self.config.parallel,
        )
        outcome = pool.map(fn, materialized)
        if supervised:
            self.last_report = outcome.report
        return outcome.results
