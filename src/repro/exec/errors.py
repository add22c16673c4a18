"""Structured errors for the supervised execution layer.

The bare ``concurrent.futures`` surface reports every worker pathology as
an opaque ``BrokenProcessPool`` with no attribution.  These exceptions
carry the triage payload the supervisor (and a human reading a CI log)
actually needs: which chunk was in flight, how many workers the pool had,
and which attempt this was.  All of them are picklable — some cross the
process boundary inside a worker's raised exception.
"""

from __future__ import annotations

from typing import Optional


class WorkerCrashError(RuntimeError):
    """A worker process died (``BrokenProcessPool``) with attribution.

    Raised instead of the opaque ``BrokenProcessPool`` wherever a worker
    death can surface: the supervised pool's retry loop, and through it
    :class:`repro.core.parallel.ParallelSweepRunner` and the chaos
    campaign runner.
    """

    def __init__(
        self,
        chunk_id: int,
        workers: int,
        attempt: int,
        message: Optional[str] = None,
    ) -> None:
        detail = message or (
            f"worker process died while chunk {chunk_id} was in flight "
            f"(pool of {workers} worker(s), attempt {attempt})"
        )
        super().__init__(detail)
        self.chunk_id = chunk_id
        self.workers = workers
        self.attempt = attempt

    def __reduce__(self):
        return (
            type(self),
            (self.chunk_id, self.workers, self.attempt, str(self)),
        )


class ChunkTimeoutError(RuntimeError):
    """A chunk blew its wall-clock budget or its heartbeat went stale."""

    def __init__(
        self,
        chunk_id: int,
        attempt: int,
        reason: str,
        budget_s: Optional[float],
        message: Optional[str] = None,
    ) -> None:
        budget = "unbounded" if budget_s is None else f"{budget_s:.3g} s"
        detail = message or (
            f"chunk {chunk_id} declared hung ({reason}, budget {budget}, "
            f"attempt {attempt}); its worker was killed"
        )
        super().__init__(detail)
        self.chunk_id = chunk_id
        self.attempt = attempt
        self.reason = reason
        self.budget_s = budget_s

    def __reduce__(self):
        return (
            type(self),
            (self.chunk_id, self.attempt, self.reason, self.budget_s, str(self)),
        )


class ChunkExecutionError(Exception):
    """Picklable wrapper: ``fn`` raised for one item inside a worker chunk.

    Raised *in the worker* around the original exception so the supervisor
    learns the global index of the failing item — the
    attribution the serial loop gets for free from its stack trace.
    """

    def __init__(self, item_index: int, original: BaseException) -> None:
        # Default Exception pickling round-trips ``args``, so storing both
        # fields there keeps the wrapper picklable without a __reduce__.
        super().__init__(item_index, original)
        self.item_index = item_index
        self.original = original

    def __str__(self) -> str:
        return (
            f"item {self.item_index} raised "
            f"{type(self.original).__name__}: {self.original}"
        )


class JournalMismatchError(RuntimeError):
    """A checkpoint journal does not belong to the run trying to resume it."""
