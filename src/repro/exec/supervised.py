"""Supervised worker pool: retries, hang kills, quarantine, checkpointing.

This is the fault-tolerant execution layer under every sweep and chaos
campaign.  It keeps the determinism contract of
:class:`repro.core.parallel.ParallelSweepRunner` — contiguous chunks,
input-order results, bit-for-bit agreement with the serial loop — while
surviving the worker pathologies that abort a bare
``ProcessPoolExecutor`` run:

* **Worker death** (``BrokenProcessPool``): the pool is respawned and the
  affected chunks retried in ascending chunk order with capped
  exponential backoff.  Chunks that never started (no heartbeat) are
  re-queued without being charged an attempt.
* **Hangs**: each chunk submission writes a heartbeat file before every
  item; a stale heartbeat or a blown wall-clock budget gets the pool
  killed (workers terminated, not waited on) and the hung chunk charged.
* **Poison items**: a chunk that exhausts its attempts is bisected in
  sacrificial single-worker pools until the offending item is isolated,
  recorded as a :class:`~repro.exec.report.QuarantineRecord`, and
  replaced in the results by a :class:`QuarantinedItem` failure code —
  the sweep completes instead of aborting.
* **Graceful degradation**: repeated pool disruptions halve the worker
  count toward one and finally fall back to inline execution in the
  supervisor process, recorded in the
  :class:`~repro.exec.report.ExecutionReport` state machine
  ``RUNNING -> RETRYING -> DEGRADED -> INLINE``.
* **Checkpoint/resume**: with a :class:`~repro.exec.journal
  .CheckpointJournal` attached, every completed chunk is durably
  journaled; a killed run resumes from the last completed chunk and
  produces output bit-for-bit identical to an uninterrupted run.

Determinism argument: results live in slots indexed by chunk id; a retry
recomputes ``fn(item)`` for the same items in the same order, so for a
deterministic ``fn`` every slot converges to the serial loop's value
regardless of which workers died along the way.  Scheduling chooses *how
often* work is redone, never *what* a slot contains.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    TimeoutError as FuturesTimeoutError,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.markers import hot_path_safe
from repro.exec.errors import (
    ChunkExecutionError,
    ChunkTimeoutError,
    WorkerCrashError,
)
from repro.exec.journal import (
    JOURNAL_KIND,
    JOURNAL_VERSION,
    CheckpointJournal,
    JournalEntry,
    fingerprint_value,
    run_fingerprint,
)
from repro.exec.policy import ExecutionPolicy
from repro.exec.report import ExecState, ExecutionReport, QuarantineRecord


@dataclass(frozen=True)
class QuarantinedItem:
    """Structured failure code standing in for a poison item's result."""

    item_index: int
    attempts: int
    error_type: str
    error_message: str

    @classmethod
    def of(cls, record: QuarantineRecord) -> "QuarantinedItem":
        """The failure code standing in for ``record``'s item."""
        return cls(record.item_index, record.attempts, record.error_type,
                   record.error_message)


@dataclass
class ExecutionOutcome:
    """Input-order results plus the supervision accounting."""

    results: List[Any]
    report: ExecutionReport


@hot_path_safe
def _write_heartbeat(path: str) -> None:
    """Supervisor bookkeeping: one tiny write per item, deliberately I/O."""
    try:
        with open(path, "w", encoding="ascii") as handle:
            handle.write(str(os.getpid()))
    except OSError:
        pass  # a lost heartbeat only risks a spurious (survivable) kill


def _run_span(
    fn: Callable[[Any], Any],
    chunk: Sequence[Any],
    base_index: int,
    heartbeat_path: Optional[str] = None,
) -> List[Any]:
    """Worker entry point: evaluate one chunk, heartbeat before each item."""
    results: List[Any] = []
    for offset, item in enumerate(chunk):
        if heartbeat_path is not None:
            _write_heartbeat(heartbeat_path)
        try:
            results.append(fn(item))
        except Exception as exc:
            raise ChunkExecutionError(base_index + offset, exc) from None
    return results


def chunk_items(items: Sequence[Any], chunk_size: int) -> List[Sequence[Any]]:
    """Split ``items`` into contiguous chunks of at most ``chunk_size``."""
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    return [
        items[start : start + chunk_size]
        for start in range(0, len(items), chunk_size)
    ]


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Forcibly stop a pool whose workers may be hung or dead."""
    processes = dict(getattr(pool, "_processes", None) or {})
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in processes.values():
        try:
            if proc.is_alive():
                proc.terminate()
        except (OSError, ValueError):
            pass
    # Host-clock reads are the supervisor's job — worker timeouts are
    # wall-clock concepts, never simulation time.
    deadline = time.monotonic() + 2.0  # lint: ignore[det-wallclock]
    for proc in processes.values():
        try:
            proc.join(max(0.0, deadline - time.monotonic()))  # lint: ignore[det-wallclock]
            if proc.is_alive():
                proc.kill()
        except (OSError, ValueError):
            pass


class SupervisedPool:
    """Map a picklable callable over items with supervised execution."""

    def __init__(
        self,
        workers: int = 1,
        chunk_size: int = 4,
        policy: Optional[ExecutionPolicy] = None,
        journal: Optional[Union[CheckpointJournal, str, "os.PathLike[str]"]] = None,
        parallel: bool = True,
    ) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive: {workers}")
        self.workers = workers
        self.chunk_size = chunk_size
        self.policy = policy if policy is not None else ExecutionPolicy()
        if journal is None or isinstance(journal, CheckpointJournal):
            self.journal = journal
        else:
            self.journal = CheckpointJournal(journal)
        self.parallel = parallel

    # -- public API -------------------------------------------------------

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> ExecutionOutcome:
        materialized = list(items)
        chunks = chunk_items(materialized, self.chunk_size)
        report = ExecutionReport(
            chunks_total=len(chunks), final_workers=self.workers
        )
        report.record(ExecState.RUNNING, f"{len(chunks)} chunk(s) submitted")
        if not materialized:
            return ExecutionOutcome([], report)

        results: Dict[int, List[Any]] = {}
        fingerprints: List[str] = []  # only a journal binds chunks to inputs
        if self.journal is not None:
            fingerprints = [fingerprint_value(list(chunk)) for chunk in chunks]
            entries = self.journal.start(self._header(fn, chunks, fingerprints))
            for chunk_id, entry in entries.items():
                if (
                    0 <= chunk_id < len(chunks)
                    and entry.fingerprint == fingerprints[chunk_id]
                ):
                    results[chunk_id] = entry.results
                    report.quarantined.extend(entry.quarantined)
                    report.chunks_resumed += 1
            if report.chunks_resumed:
                report.record(
                    ExecState.RUNNING,
                    f"resumed {report.chunks_resumed} chunk(s) from journal",
                )

        pending = [cid for cid in range(len(chunks)) if cid not in results]
        workers = max(1, min(self.workers, max(len(pending), 1)))
        if pending:
            if not self.parallel or workers == 1:
                self._run_inline(
                    fn, chunks, fingerprints, pending, results, report,
                    reason="configured inline",
                )
            else:
                self._run_supervised(
                    fn, chunks, fingerprints, pending, results, report, workers
                )

        ordered: List[Any] = []
        for chunk_id in range(len(chunks)):
            ordered.extend(results[chunk_id])
        return ExecutionOutcome(ordered, report)

    # -- journal ----------------------------------------------------------

    def _header(
        self,
        fn: Callable[[Any], Any],
        chunks: Sequence[Sequence[Any]],
        fingerprints: Sequence[str],
    ) -> Dict[str, Any]:
        target = "{}:{}".format(
            getattr(fn, "__module__", type(fn).__module__),
            getattr(fn, "__qualname__", type(fn).__name__),
        )
        return {
            "version": JOURNAL_VERSION,
            "kind": JOURNAL_KIND,
            "target": target,
            "items": sum(len(chunk) for chunk in chunks),
            "chunks": len(chunks),
            "chunk_size": self.chunk_size,
            "run_fingerprint": run_fingerprint(
                target, fingerprints, self.chunk_size
            ),
        }

    def _complete(
        self,
        chunk_id: int,
        values: List[Any],
        records: Sequence[QuarantineRecord],
        fingerprints: Sequence[str],
        results: Dict[int, List[Any]],
        report: ExecutionReport,
    ) -> None:
        results[chunk_id] = values
        report.chunks_completed += 1
        report.quarantined.extend(records)
        if self.journal is not None:
            self.journal.append(
                JournalEntry(
                    chunk_id=chunk_id,
                    fingerprint=fingerprints[chunk_id],
                    results=values,
                    quarantined=tuple(records),
                )
            )

    # -- supervised (process) execution -----------------------------------

    def _run_supervised(
        self,
        fn: Callable[[Any], Any],
        chunks: Sequence[Sequence[Any]],
        fingerprints: Sequence[str],
        pending: List[int],
        results: Dict[int, List[Any]],
        report: ExecutionReport,
        workers: int,
    ) -> None:
        policy = self.policy
        attempts: Dict[int, int] = {cid: 0 for cid in pending}
        disruptions = 0
        heartbeat_dir = tempfile.mkdtemp(prefix="repro-exec-hb-")
        pool: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(
            max_workers=workers
        )
        try:
            while pending:
                wave = sorted(pending)
                pending = []
                for cid in wave:
                    attempts[cid] += 1
                assert pool is not None
                futures: Dict[Future, int] = {}
                hb_paths: Dict[int, str] = {}
                for cid in wave:
                    hb_paths[cid] = os.path.join(
                        heartbeat_dir, f"chunk_{cid}_try_{attempts[cid]}.hb"
                    )
                    futures[
                        pool.submit(
                            _run_span,
                            fn,
                            chunks[cid],
                            cid * self.chunk_size,
                            hb_paths[cid],
                        )
                    ] = cid
                failures, pool_broken = self._drain(
                    pool, futures, hb_paths, attempts, workers,
                    chunks, fingerprints, results, report,
                )

                retry: List[int] = []
                poisoned: List[Tuple[int, BaseException]] = []
                for cid, exc in failures:
                    if exc is not None and attempts[cid] >= policy.max_attempts:
                        poisoned.append((cid, exc))
                    else:
                        retry.append(cid)
                # Ascending chunk order: without quarantine the first
                # poisoned chunk's failure is raised, whatever finished first.
                poisoned.sort(key=lambda failure: failure[0])
                for cid, exc in poisoned:
                    self._resolve_poison(
                        fn, chunks, fingerprints, cid, attempts[cid], exc,
                        results, report,
                    )
                if retry:
                    charged = [cid for cid in retry if attempts[cid] > 0]
                    if charged:
                        report.retries += len(charged)
                        report.record(
                            ExecState.RETRYING,
                            f"retrying chunk(s) {sorted(charged)}",
                        )
                        time.sleep(
                            policy.backoff_s(
                                max(attempts[cid] for cid in charged)
                            )
                        )
                pending = sorted(retry)

                if pool_broken:
                    disruptions += 1
                    _kill_pool(pool)
                    pool = None
                    if not pending:
                        break
                    if disruptions >= policy.inline_after:
                        report.inline_fallback = True
                        report.final_workers = 0
                        self._run_inline(
                            fn, chunks, fingerprints, pending, results, report,
                            reason=(
                                f"{disruptions} pool disruption(s): giving up "
                                "on worker processes"
                            ),
                        )
                        pending = []
                        break
                    if disruptions >= policy.degrade_after and workers > 1:
                        shrunk = max(1, workers // 2)
                        report.degradations.append((workers, shrunk))
                        report.record(
                            ExecState.DEGRADED,
                            f"pool disruption #{disruptions}: shrinking "
                            f"{workers} -> {shrunk} worker(s)",
                        )
                        workers = shrunk
                        report.final_workers = workers
                    pool = ProcessPoolExecutor(max_workers=workers)
        finally:
            if pool is not None:
                _kill_pool(pool)
            shutil.rmtree(heartbeat_dir, ignore_errors=True)

    def _drain(
        self,
        pool: ProcessPoolExecutor,
        futures: Dict[Future, int],
        hb_paths: Dict[int, str],
        attempts: Dict[int, int],
        workers: int,
        chunks: Sequence[Sequence[Any]],
        fingerprints: Sequence[str],
        results: Dict[int, List[Any]],
        report: ExecutionReport,
    ) -> Tuple[List[Tuple[int, Optional[BaseException]]], bool]:
        """Resolve one wave of futures.

        Returns ``(failures, pool_broken)`` where each failure is
        ``(chunk_id, exception-or-None)`` — ``None`` marks an innocent
        chunk re-queued without charge (its attempt is refunded).
        """
        policy = self.policy
        unresolved: Dict[Future, int] = dict(futures)
        failures: List[Tuple[int, Optional[BaseException]]] = []
        started_at: Dict[int, float] = {}
        pool_broken = False

        def refund(cid: int) -> None:
            attempts[cid] -= 1
            failures.append((cid, None))

        while unresolved:
            done, _ = wait(
                list(unresolved),
                timeout=policy.poll_interval_s,
                return_when=FIRST_COMPLETED,
            )
            for future in done:
                cid = unresolved.pop(future)
                try:
                    values = future.result()
                except BrokenProcessPool:
                    pool_broken = True
                    failures.append(
                        (cid, WorkerCrashError(cid, workers, attempts[cid]))
                    )
                except ChunkExecutionError as exc:
                    failures.append((cid, exc))
                except Exception as exc:  # unpicklable payloads etc.
                    failures.append((cid, exc))
                else:
                    self._complete(
                        cid, values, (), fingerprints, results, report
                    )
            if pool_broken:
                report.worker_deaths += 1
                for future, cid in unresolved.items():
                    if os.path.exists(hb_paths[cid]):
                        failures.append(
                            (cid, WorkerCrashError(cid, workers, attempts[cid]))
                        )
                    else:
                        refund(cid)  # queued, never started: not charged
                unresolved.clear()
                break
            if not policy.quarantine and unresolved:
                fatal = [cid for cid, exc in failures
                         if exc is not None and attempts[cid] >= policy.max_attempts]
                if fatal and min(fatal) < min(unresolved.values()):
                    break  # fail fast: no chunk still running can fail first

            # Hang detection is inherently a host-clock judgment: monotonic
            # for elapsed budgets, wall time to compare heartbeat mtimes.
            now = time.monotonic()  # lint: ignore[det-wallclock]
            wall_now = time.time()  # lint: ignore[det-wallclock]
            hung: List[Tuple[int, str]] = []
            for future, cid in unresolved.items():
                try:
                    heartbeat_mtime = os.stat(hb_paths[cid]).st_mtime
                except OSError:
                    continue  # not started yet
                started_at.setdefault(cid, now)
                if (
                    policy.heartbeat_timeout_s is not None
                    and wall_now - heartbeat_mtime > policy.heartbeat_timeout_s
                ):
                    hung.append((cid, "heartbeat stall"))
                elif (
                    policy.chunk_timeout_s is not None
                    and now - started_at[cid] > policy.chunk_timeout_s
                ):
                    hung.append((cid, "wall-clock timeout"))
            if hung:
                pool_broken = True
                report.hang_kills += len(hung)
                hung_ids = {cid for cid, _ in hung}
                for cid, reason in hung:
                    failures.append(
                        (
                            cid,
                            ChunkTimeoutError(
                                cid,
                                attempts[cid],
                                reason,
                                policy.chunk_timeout_s
                                if reason == "wall-clock timeout"
                                else policy.heartbeat_timeout_s,
                            ),
                        )
                    )
                for future, cid in unresolved.items():
                    if cid not in hung_ids:
                        refund(cid)  # innocent bystander on a killed pool
                unresolved.clear()
                _kill_pool(pool)
                break
        return failures, pool_broken

    # -- poison isolation --------------------------------------------------

    def _resolve_poison(
        self,
        fn: Callable[[Any], Any],
        chunks: Sequence[Sequence[Any]],
        fingerprints: Sequence[str],
        chunk_id: int,
        chunk_attempts: int,
        exc: BaseException,
        results: Dict[int, List[Any]],
        report: ExecutionReport,
    ) -> None:
        if not self.policy.quarantine:
            if isinstance(exc, ChunkExecutionError):  # the item's own error
                setattr(exc.original, "sweep_item_index", exc.item_index)
                exc = exc.original
            raise exc from None
        report.record(
            ExecState.RETRYING,
            f"chunk {chunk_id} exhausted {chunk_attempts} attempt(s): "
            "bisecting for the poison item",
        )
        values, records = self._bisect(
            fn,
            list(chunks[chunk_id]),
            chunk_id * self.chunk_size,
            chunk_id,
            chunk_attempts,
            report,
        )
        self._complete(
            chunk_id, values, records, fingerprints, results, report
        )

    def _bisect(
        self,
        fn: Callable[[Any], Any],
        span: List[Any],
        base_index: int,
        chunk_id: int,
        chunk_attempts: int,
        report: ExecutionReport,
    ) -> Tuple[List[Any], List[QuarantineRecord]]:
        """Recursively isolate poison items inside ``span``."""
        ok, payload = self._probe(fn, span, base_index, report)
        if ok:
            assert isinstance(payload, list)
            return payload, []
        if len(span) == 1:
            record = self._quarantine_record(
                base_index, chunk_id, chunk_attempts + 1, payload
            )
            return [QuarantinedItem.of(record)], [record]
        mid = len(span) // 2
        left_values, left_records = self._bisect(
            fn, span[:mid], base_index, chunk_id, chunk_attempts, report
        )
        right_values, right_records = self._bisect(
            fn, span[mid:], base_index + mid, chunk_id, chunk_attempts, report
        )
        return left_values + right_values, left_records + right_records

    def _probe(
        self,
        fn: Callable[[Any], Any],
        span: Sequence[Any],
        base_index: int,
        report: ExecutionReport,
    ) -> Tuple[bool, Any]:
        """Run ``span`` in a sacrificial single-worker pool.

        A probe failure is poison *evidence*, not a pool disruption — it
        never feeds the degradation counter, so bisection keeps isolating
        even while the main pool is degrading.
        """
        policy = self.policy
        timeout = policy.chunk_timeout_s
        if timeout is None and policy.heartbeat_timeout_s is not None:
            timeout = policy.heartbeat_timeout_s * max(1, len(span))
        pool = ProcessPoolExecutor(max_workers=1)
        try:
            future = pool.submit(_run_span, fn, span, base_index, None)
            try:
                return True, future.result(timeout=timeout)
            except FuturesTimeoutError:
                return False, ChunkTimeoutError(
                    -1, 1, "probe timeout", timeout
                )
            except BrokenProcessPool:
                report.probe_crashes += 1
                return False, WorkerCrashError(-1, 1, 1, "probe worker died")
            except ChunkExecutionError as exc:
                return False, exc
            except Exception as exc:
                return False, exc
        finally:
            _kill_pool(pool)

    @staticmethod
    def _quarantine_record(
        item_index: int,
        chunk_id: int,
        attempts: int,
        failure: Any,
    ) -> QuarantineRecord:
        if isinstance(failure, ChunkExecutionError):
            error: BaseException = failure.original
        elif isinstance(failure, BaseException):
            error = failure
        else:
            error = RuntimeError(repr(failure))
        return QuarantineRecord(
            item_index=item_index,
            chunk_id=chunk_id,
            attempts=attempts,
            error_type=type(error).__name__,
            error_message=str(error),
        )

    # -- inline execution --------------------------------------------------

    def _run_inline(
        self,
        fn: Callable[[Any], Any],
        chunks: Sequence[Sequence[Any]],
        fingerprints: Sequence[str],
        pending: Sequence[int],
        results: Dict[int, List[Any]],
        report: ExecutionReport,
        reason: str,
    ) -> None:
        """Terminal fallback: finish the sweep in the supervisor process.

        Retries and quarantine still apply per item; hang protection does
        not — an inline hang would stall the supervisor itself, which is
        why inline is the *last* rung of the ladder, after bisection has
        already quarantined process-killing poison.
        """
        policy = self.policy
        report.record(ExecState.INLINE, reason)
        for chunk_id in sorted(pending):
            base_index = chunk_id * self.chunk_size
            values: List[Any] = []
            records: List[QuarantineRecord] = []
            for offset, item in enumerate(chunks[chunk_id]):
                try:
                    values.append(fn(item))
                    continue  # the fault-free case pays for one try only
                except Exception as exc:
                    failure: Optional[BaseException] = exc
                for attempt in range(2, policy.max_attempts + 1):
                    report.retries += 1
                    time.sleep(policy.backoff_s(attempt - 1))
                    try:
                        values.append(fn(item))
                        failure = None
                        break
                    except Exception as exc:
                        failure = exc
                if failure is not None:
                    if not policy.quarantine:
                        setattr(failure, "sweep_item_index", base_index + offset)
                        raise failure
                    record = self._quarantine_record(
                        base_index + offset,
                        chunk_id,
                        policy.max_attempts,
                        failure,
                    )
                    records.append(record)
                    values.append(QuarantinedItem.of(record))
            self._complete(
                chunk_id, values, records, fingerprints, results, report
            )
