"""Tests for the fault-tolerant execution layer (:mod:`repro.exec`).

The supervised pool's contract is the serial loop's contract plus
survival: for a deterministic callable, ``SupervisedPool.map`` returns
exactly ``[fn(item) for item in items]`` no matter which workers crash,
hang, or dawdle along the way — with poison items quarantined as
structured failure codes rather than aborting, and with checkpoint/resume
reproducing an uninterrupted run bit-for-bit.

Faults are injected with the package's own self-chaos harness
(:mod:`repro.exec.faultsim`), so every scenario here exercises real
worker processes (or the real inline fallback), not mocks.  The
``TestInline*`` classes are the hermetic tier-1 subset: ``parallel=False``
plus simulated faults, no subprocesses.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.parallel import ParallelSweepRunner, SweepRunnerConfig
from repro.exec.errors import (
    ChunkExecutionError,
    JournalMismatchError,
    WorkerCrashError,
)
from repro.exec.faultsim import (
    DIE_EXIT_CODE,
    FAULT_CRASH,
    FAULT_DIE,
    FAULT_FLAKY,
    FAULT_HANG,
    FAULT_SLOW,
    FaultyCallable,
    WorkerFault,
    WorkerFaultSpec,
    stable_item_key,
)
from repro.exec.journal import CheckpointJournal, fingerprint_value
from repro.exec.policy import ExecutionPolicy
from repro.exec.report import ExecState
from repro.exec.supervised import (
    ExecutionOutcome,
    QuarantinedItem,
    SupervisedPool,
)

# -- module-level callables (workers must be able to unpickle them) --------


def _times_ten(value: int) -> int:
    return value * 10


def _slow_times_ten(value: int) -> int:
    time.sleep(0.25)
    return value * 10


def _die_hard(value: int) -> int:
    os._exit(3)


ITEMS = list(range(10))
SERIAL = [_times_ten(item) for item in ITEMS]

#: Fast-retry policy so fault scenarios stay inside the test budget.
FAST = dict(backoff_base_s=0.01, backoff_cap_s=0.05, poll_interval_s=0.02)


def _pool(tmp_path, **kwargs) -> SupervisedPool:
    kwargs.setdefault("policy", ExecutionPolicy(**FAST))
    return SupervisedPool(**kwargs)


# -- hermetic tier-1 subset: inline execution + simulated faults -----------


class TestInlineSupervision:
    def test_matches_serial_loop(self, tmp_path):
        outcome = SupervisedPool(parallel=False, chunk_size=3).map(
            _times_ten, ITEMS
        )
        assert outcome.results == SERIAL
        assert outcome.report.chunks_total == 4
        assert outcome.report.chunks_completed == 4
        assert outcome.report.state == ExecState.INLINE.value

    def test_empty_items(self):
        outcome = SupervisedPool(parallel=False).map(_times_ten, [])
        assert outcome.results == []
        assert outcome.report.chunks_total == 0

    def test_flaky_item_retried_to_serial_equality(self, tmp_path):
        faulty = FaultyCallable(
            _times_ten,
            {6: WorkerFaultSpec(FAULT_CRASH, until_attempt=1)},
            tmp_path,
        )
        outcome = _pool(tmp_path, parallel=False).map(faulty, ITEMS)
        assert outcome.results == SERIAL
        assert outcome.report.retries >= 1
        assert not outcome.report.quarantined

    def test_poison_item_quarantined_not_aborted(self, tmp_path):
        faulty = FaultyCallable(
            _times_ten, {4: WorkerFaultSpec(FAULT_CRASH)}, tmp_path
        )
        policy = ExecutionPolicy(max_attempts=2, **FAST)
        outcome = SupervisedPool(parallel=False, chunk_size=4, policy=policy).map(
            faulty, ITEMS
        )
        # Survivors are bit-for-bit the serial loop's values...
        for index, value in enumerate(outcome.results):
            if index == 4:
                continue
            assert value == SERIAL[index]
        # ...and the poison slot is a structured failure code.
        sentinel = outcome.results[4]
        assert isinstance(sentinel, QuarantinedItem)
        assert sentinel.item_index == 4
        assert sentinel.error_type == "WorkerFault"
        report = outcome.report.quarantine_report()
        assert report.item_indices == (4,)
        assert report.records[0].attempts == policy.max_attempts

    def test_quarantine_disabled_reraises(self, tmp_path):
        faulty = FaultyCallable(
            _times_ten, {4: WorkerFaultSpec(FAULT_CRASH)}, tmp_path
        )
        policy = ExecutionPolicy(max_attempts=1, quarantine=False, **FAST)
        with pytest.raises(WorkerFault):
            SupervisedPool(parallel=False, policy=policy).map(faulty, ITEMS)

    @pytest.mark.parametrize("parallel", [False, True])
    def test_quarantine_disabled_raises_item_exception_in_both_modes(
        self, parallel
    ):
        """Without quarantine, inline and process execution both raise the
        item's own exception with its global index attached."""
        policy = ExecutionPolicy(max_attempts=1, quarantine=False, **FAST)
        pool = SupervisedPool(
            workers=2, chunk_size=2, policy=policy, parallel=parallel
        )
        with pytest.raises(ValueError, match="three") as excinfo:
            pool.map(_raise_on_three, [1, 2, 3, 4, 5])
        assert excinfo.value.sweep_item_index == 2

    def test_seeded_flaky_fault_is_reproducible(self, tmp_path):
        spec = WorkerFaultSpec(FAULT_FLAKY, probability=0.5)
        first_dir = tmp_path / "a"
        second_dir = tmp_path / "b"
        first_dir.mkdir()
        second_dir.mkdir()
        outcomes = []
        for state_dir in (first_dir, second_dir):
            faulty = FaultyCallable(
                _times_ten, {3: spec}, state_dir, seed=2021
            )
            pattern = []
            for _ in range(6):
                try:
                    faulty(3)
                    pattern.append("ok")
                except WorkerFault:
                    pattern.append("fault")
            outcomes.append(pattern)
        assert outcomes[0] == outcomes[1]
        assert "ok" in outcomes[0] and "fault" in outcomes[0]


class TestInlineJournal:
    def test_resume_is_bit_for_bit(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        uninterrupted = SupervisedPool(parallel=False, chunk_size=4).map(
            _times_ten, ITEMS
        )
        full = SupervisedPool(
            parallel=False, chunk_size=4, journal=journal_path
        ).map(_times_ten, ITEMS)
        assert full.results == uninterrupted.results

        # Simulate a mid-run kill: keep the header and the first completed
        # chunk, drop the rest (exactly what a SIGKILL after the first
        # fsync'd append leaves behind).
        lines = journal_path.read_text().splitlines(keepends=True)
        journal_path.write_text("".join(lines[:2]))
        resumed = SupervisedPool(
            parallel=False, chunk_size=4, journal=journal_path
        ).map(_times_ten, ITEMS)
        assert resumed.results == uninterrupted.results
        assert resumed.report.chunks_resumed == 1
        assert resumed.report.chunks_completed == 2

    def test_resumed_chunks_do_not_rerun(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        clean = FaultyCallable(_times_ten, {}, tmp_path)
        SupervisedPool(parallel=False, chunk_size=5, journal=journal_path).map(
            clean, ITEMS
        )
        # Same wrapper type and items -> same run fingerprint, but now
        # every item is poison.  A resume that re-ran anything would
        # quarantine it; the journal makes the faults unreachable.
        poisoned = FaultyCallable(
            _times_ten,
            {item: WorkerFaultSpec(FAULT_CRASH) for item in ITEMS},
            tmp_path,
        )
        outcome = SupervisedPool(
            parallel=False, chunk_size=5, journal=journal_path
        ).map(poisoned, ITEMS)
        assert outcome.results == SERIAL
        assert outcome.report.chunks_resumed == 2
        assert not outcome.report.quarantined

    def test_truncated_final_line_tolerated(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        SupervisedPool(parallel=False, chunk_size=4, journal=journal_path).map(
            _times_ten, ITEMS
        )
        with open(journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"chunk_id": 99, "fingerprint": "dead')  # no newline
        resumed = SupervisedPool(
            parallel=False, chunk_size=4, journal=journal_path
        ).map(_times_ten, ITEMS)
        assert resumed.results == SERIAL
        assert resumed.report.chunks_resumed == 3

    def test_foreign_journal_rejected(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        SupervisedPool(parallel=False, chunk_size=4, journal=journal_path).map(
            _times_ten, ITEMS
        )
        with pytest.raises(JournalMismatchError):
            # Different chunking -> different run fingerprint.
            SupervisedPool(
                parallel=False, chunk_size=3, journal=journal_path
            ).map(_times_ten, ITEMS)

    def test_quarantine_survives_resume(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        faulty = FaultyCallable(
            _times_ten, {4: WorkerFaultSpec(FAULT_CRASH)}, tmp_path
        )
        policy = ExecutionPolicy(max_attempts=1, **FAST)
        first = SupervisedPool(
            parallel=False, chunk_size=4, policy=policy, journal=journal_path
        ).map(faulty, ITEMS)
        assert first.report.quarantine_report().item_indices == (4,)
        resumed = SupervisedPool(
            parallel=False, chunk_size=4, policy=policy, journal=journal_path
        ).map(faulty, ITEMS)
        assert resumed.results == first.results
        assert resumed.report.chunks_resumed == 3
        assert resumed.report.quarantine_report().item_indices == (4,)


# -- real worker processes -------------------------------------------------


class TestSupervisedProcesses:
    def test_matches_serial_loop(self, tmp_path):
        outcome = _pool(tmp_path, workers=2, chunk_size=3).map(
            _times_ten, ITEMS
        )
        assert outcome.results == SERIAL
        assert outcome.report.worker_deaths == 0

    def test_worker_death_retried(self, tmp_path):
        faulty = FaultyCallable(
            _times_ten,
            {7: WorkerFaultSpec(FAULT_DIE, until_attempt=1)},
            tmp_path,
        )
        outcome = _pool(tmp_path, workers=2, chunk_size=2).map(faulty, ITEMS)
        assert outcome.results == SERIAL
        assert outcome.report.worker_deaths >= 1
        assert outcome.report.retries >= 1
        assert not outcome.report.quarantined

    def test_poison_worker_killer_quarantined_by_bisection(self, tmp_path):
        faulty = FaultyCallable(
            _times_ten, {5: WorkerFaultSpec(FAULT_DIE)}, tmp_path
        )
        policy = ExecutionPolicy(max_attempts=2, inline_after=20, **FAST)
        outcome = SupervisedPool(workers=2, chunk_size=4, policy=policy).map(
            faulty, ITEMS
        )
        report = outcome.report.quarantine_report()
        assert report.item_indices == (5,)
        assert outcome.report.probe_crashes >= 1
        assert isinstance(outcome.results[5], QuarantinedItem)
        for index, value in enumerate(outcome.results):
            if index != 5:
                assert value == SERIAL[index]

    def test_hang_killed_and_retried(self, tmp_path):
        faulty = FaultyCallable(
            _times_ten,
            {3: WorkerFaultSpec(FAULT_HANG, until_attempt=1, delay_s=60.0)},
            tmp_path,
        )
        policy = ExecutionPolicy(chunk_timeout_s=1.0, **FAST)
        outcome = SupervisedPool(workers=2, chunk_size=2, policy=policy).map(
            faulty, ITEMS
        )
        assert outcome.results == SERIAL
        assert outcome.report.hang_kills >= 1

    def test_slow_items_just_finish(self, tmp_path):
        faulty = FaultyCallable(
            _times_ten,
            {2: WorkerFaultSpec(FAULT_SLOW, delay_s=0.3)},
            tmp_path,
        )
        policy = ExecutionPolicy(chunk_timeout_s=30.0, **FAST)
        outcome = SupervisedPool(workers=2, chunk_size=2, policy=policy).map(
            faulty, ITEMS
        )
        assert outcome.results == SERIAL
        assert outcome.report.hang_kills == 0

    def test_degrades_to_inline_after_repeated_deaths(self, tmp_path):
        faulty = FaultyCallable(
            _times_ten,
            {item: WorkerFaultSpec(FAULT_DIE) for item in ITEMS},
            tmp_path,
        )
        policy = ExecutionPolicy(
            max_attempts=6, degrade_after=1, inline_after=2, **FAST
        )
        outcome = SupervisedPool(workers=4, chunk_size=3, policy=policy).map(
            faulty, ITEMS
        )
        # FAULT_DIE only fires in worker processes, so the inline fallback
        # completes the sweep — degradation instead of failure.
        assert outcome.results == SERIAL
        assert outcome.report.inline_fallback
        assert outcome.report.degradations, "expected a pool-shrink step"
        assert outcome.report.state == ExecState.INLINE.value
        states = [t.state for t in outcome.report.transitions]
        assert states.index(ExecState.DEGRADED.value) < states.index(
            ExecState.INLINE.value
        )


class TestSigkillResume:
    def test_process_sigkill_then_resume(self, tmp_path):
        """SIGKILL the whole supervisor mid-run; resume must be bit-for-bit."""
        journal_path = tmp_path / "journal.jsonl"
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(repo_root, "src"), repo_root]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        driver = (
            "import sys\n"
            "from repro.exec.supervised import SupervisedPool\n"
            "from tests.test_exec_supervised import _slow_times_ten, ITEMS\n"
            "pool = SupervisedPool(workers=2, chunk_size=1,"
            " journal=sys.argv[1])\n"
            "pool.map(_slow_times_ten, ITEMS)\n"
        )
        # Its own session, so the kill takes the driver's pool workers
        # with it instead of leaving them orphaned.
        proc = subprocess.Popen(
            [sys.executable, "-c", driver, str(journal_path)],
            cwd=repo_root,
            env=env,
            start_new_session=True,
        )
        try:
            # Wait until at least one chunk is durably journaled, then kill.
            deadline = time.time() + 30.0
            while time.time() < deadline:
                _, entries = CheckpointJournal(journal_path).load()
                if entries or proc.poll() is not None:
                    break
                time.sleep(0.05)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:  # the driver finished and was reaped
                pass
            proc.wait(timeout=30)
        deadline = time.time() + 10.0
        while True:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            assert time.time() < deadline, "driver's process group outlived it"
            time.sleep(0.05)
        _, entries = CheckpointJournal(journal_path).load()
        assert entries, "driver was killed before journaling any chunk"

        resumed = SupervisedPool(
            workers=2, chunk_size=1, journal=journal_path
        ).map(_slow_times_ten, ITEMS)
        assert resumed.results == SERIAL
        assert resumed.report.chunks_resumed >= 1


# -- chaos campaign checkpoint/resume --------------------------------------


class TestChaosCampaignResume:
    def test_killed_campaign_resumes_bit_for_bit(self, tmp_path):
        from repro.chaos.campaign import CampaignConfig
        from repro.chaos.runner import run_campaign, run_campaign_supervised

        config = CampaignConfig(campaign_seed=404, trials=3, duration_s=8.0)
        runner_config = SweepRunnerConfig(parallel=False, chunk_size=1)
        expected = run_campaign(config, runner_config)

        # One-lane groups: each trial is its own journal entry.
        journal_path = tmp_path / "campaign.jsonl"
        full = run_campaign_supervised(
            config, runner_config, journal_path=journal_path, ensemble_width=1
        )
        assert len(full.results) == len(expected)

        # Kill the run after its first journaled chunk and resume.
        lines = journal_path.read_text().splitlines(keepends=True)
        assert len(lines) == 1 + config.trials  # header + one entry per trial
        journal_path.write_text("".join(lines[:2]))
        resumed = run_campaign_supervised(
            config, runner_config, journal_path=journal_path, ensemble_width=1
        )
        assert resumed.execution is not None
        assert resumed.execution.chunks_resumed == 1
        assert not resumed.quarantined
        for got, want in zip(resumed.results, expected):
            assert got.spec == want.spec
            assert got.verdict == want.verdict
            assert got.metrics() == want.metrics()
            if want.trace is not None:
                assert got.trace is not None
                assert got.trace.fingerprint() == want.trace.fingerprint()

    def test_journal_of_another_trace_format_is_refused(
        self, tmp_path, monkeypatch
    ):
        """A journal pickles its traces in the layout of its trace format,
        so a resume under another format refuses it instead of unpickling
        traces this code cannot read."""
        from repro.chaos import runner
        from repro.chaos.campaign import CampaignConfig

        config = CampaignConfig(campaign_seed=404, trials=1, duration_s=8.0)
        journal_path = tmp_path / "campaign.jsonl"
        monkeypatch.setattr(runner, "TRACE_FORMAT", runner.TRACE_FORMAT - 1)
        runner.run_campaign_supervised(config, journal_path=journal_path)
        monkeypatch.undo()
        with pytest.raises(JournalMismatchError, match="different run"):
            runner.run_campaign_supervised(config, journal_path=journal_path)

    def test_each_ensemble_group_is_one_journal_entry(self, tmp_path):
        """Groups are chunks whatever ``chunk_size`` says: 5 trials in
        groups of 2 journal a header plus 3 entries."""
        from repro.chaos.campaign import CampaignConfig
        from repro.chaos.runner import run_campaign_supervised

        journal_path = tmp_path / "campaign.jsonl"
        run = run_campaign_supervised(
            CampaignConfig(trials=5, duration_s=8.0),
            SweepRunnerConfig(parallel=False, chunk_size=4),
            journal_path=journal_path,
            ensemble_width=2,
        )
        assert len(run.results) == 5
        assert run.execution is not None
        assert run.execution.chunks_total == 3
        assert len(journal_path.read_text().splitlines()) == 1 + 3


# -- bare runner semantics (satellites) ------------------------------------


def _raise_on_three(value: int) -> int:
    if value == 3:
        raise ValueError("three is right out")
    return value


def _fail_zero_sleep_rest(value: int) -> int:
    if value == 0:
        raise ValueError("zero fails at once")
    time.sleep(3.0)
    return value


class TestBareRunnerAttribution:
    def test_serial_failure_carries_item_index(self):
        runner = ParallelSweepRunner(SweepRunnerConfig(parallel=False))
        with pytest.raises(ValueError, match="three") as excinfo:
            runner.map(_raise_on_three, [1, 2, 3, 4])
        assert excinfo.value.sweep_item_index == 2

    def test_parallel_failure_carries_item_index(self):
        runner = ParallelSweepRunner(
            SweepRunnerConfig(max_workers=2, chunk_size=2)
        )
        with pytest.raises(ValueError, match="three") as excinfo:
            runner.map(_raise_on_three, [1, 2, 3, 4])
        assert excinfo.value.sweep_item_index == 2

    def test_parallel_failure_does_not_wait_for_later_chunks(self):
        runner = ParallelSweepRunner(
            SweepRunnerConfig(max_workers=2, chunk_size=1)
        )
        started = time.monotonic()
        with pytest.raises(ValueError, match="zero") as excinfo:
            runner.map(_fail_zero_sleep_rest, [0, 1])
        assert time.monotonic() - started < 2.0
        assert excinfo.value.sweep_item_index == 0

    def test_worker_death_wrapped_in_worker_crash_error(self):
        runner = ParallelSweepRunner(
            SweepRunnerConfig(max_workers=2, chunk_size=2)
        )
        with pytest.raises(WorkerCrashError) as excinfo:
            runner.map(_die_hard, [1, 2, 3, 4])
        assert excinfo.value.workers == 2
        assert excinfo.value.attempt == 1
        assert excinfo.value.chunk_id >= 0

    def test_supervised_config_routes_through_pool(self):
        runner = ParallelSweepRunner(
            SweepRunnerConfig(
                parallel=False, policy=ExecutionPolicy(), chunk_size=4
            )
        )
        assert runner.map(_times_ten, ITEMS) == SERIAL
        assert runner.last_report is not None
        assert runner.last_report.chunks_total == 3

    def test_chunk_execution_error_pickles(self):
        import pickle

        exc = ChunkExecutionError(7, ValueError("boom"))
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.item_index == 7
        assert isinstance(clone.original, ValueError)


# -- faultsim unit behavior ------------------------------------------------


class TestFaultSim:
    def test_attempt_ledger_counts_across_instances(self, tmp_path):
        faulty = FaultyCallable(
            _times_ten, {1: WorkerFaultSpec(FAULT_CRASH, until_attempt=2)}, tmp_path
        )
        assert faulty.attempts(1) == 0
        with pytest.raises(WorkerFault):
            faulty(1)
        # A fresh instance (as after a worker respawn) sees the ledger.
        clone = FaultyCallable(
            _times_ten, {1: WorkerFaultSpec(FAULT_CRASH, until_attempt=2)}, tmp_path
        )
        assert clone.attempts(1) == 1
        with pytest.raises(WorkerFault):
            clone(1)
        assert clone(1) == 10  # attempt 3 > until_attempt

    def test_unlisted_items_pass_through(self, tmp_path):
        faulty = FaultyCallable(
            _times_ten, {1: WorkerFaultSpec(FAULT_CRASH)}, tmp_path
        )
        assert faulty(2) == 20
        assert faulty.attempts(2) == 0

    def test_die_is_inert_inline(self, tmp_path):
        faulty = FaultyCallable(
            _times_ten, {1: WorkerFaultSpec(FAULT_DIE)}, tmp_path
        )
        # We *are* the supervisor process: the fault must not kill us.
        assert faulty(1) == 10

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="kind"):
            WorkerFaultSpec("meteor")
        with pytest.raises(ValueError, match="probability"):
            WorkerFaultSpec(FAULT_FLAKY, probability=1.5)
        with pytest.raises(ValueError, match="until_attempt"):
            WorkerFaultSpec(FAULT_CRASH, until_attempt=0)

    def test_stable_item_key_is_process_stable(self):
        assert stable_item_key("abc") == stable_item_key("abc")
        assert stable_item_key((1, 2)) != stable_item_key((2, 1))

    def test_die_exit_code_documented(self):
        assert DIE_EXIT_CODE == 77


# -- policy / report plumbing ----------------------------------------------


class TestPolicyAndReport:
    def test_backoff_is_capped_exponential(self):
        policy = ExecutionPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_cap_s=0.5
        )
        assert policy.backoff_s(1) == pytest.approx(0.1)
        assert policy.backoff_s(2) == pytest.approx(0.2)
        assert policy.backoff_s(5) == pytest.approx(0.5)

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            ExecutionPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="inline_after"):
            ExecutionPolicy(degrade_after=3, inline_after=2)

    def test_report_round_trips_to_json(self, tmp_path):
        faulty = FaultyCallable(
            _times_ten, {4: WorkerFaultSpec(FAULT_CRASH)}, tmp_path
        )
        policy = ExecutionPolicy(max_attempts=1, **FAST)
        outcome = SupervisedPool(parallel=False, policy=policy).map(
            faulty, ITEMS
        )
        data = json.loads(outcome.report.to_json())
        assert data["chunks_total"] == outcome.report.chunks_total
        assert data["quarantined"][0]["item_index"] == 4
        assert data["state"] == ExecState.INLINE.value

    def test_fingerprint_value_is_stable(self):
        assert fingerprint_value([1, 2, 3]) == fingerprint_value([1, 2, 3])
        assert fingerprint_value([1, 2, 3]) != fingerprint_value([1, 2, 4])

    def test_outcome_type(self):
        outcome = SupervisedPool(parallel=False).map(_times_ten, [1])
        assert isinstance(outcome, ExecutionOutcome)
