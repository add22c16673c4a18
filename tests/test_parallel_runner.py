"""Tests for the parallel sweep runner and the keyed caches.

The runner's contract is determinism: chunking depends only on input order
and config, results come back in input order, and the inline mode matches
a plain serial loop.  The parallel path is forced with ``max_workers=2`` so
the tests exercise real worker processes even on single-CPU runners.
"""

import pytest

from repro.components.catalog import (
    cached_catalog,
    clear_catalog_cache,
)
from repro.core.parallel import (
    ParallelSweepRunner,
    SweepRunnerConfig,
    chunk_items,
)
from repro.core.tradeoffs import catalog_fits, clear_fit_cache
from repro.exec.policy import ExecutionPolicy
from repro.exec.supervised import QuarantinedItem


def _square(value: int) -> int:
    """Module-level so worker processes can unpickle it."""
    return value * value


def _raise_on_three(value: int) -> int:
    if value == 3:
        raise ValueError("three is right out")
    return value


class TestChunking:
    def test_contiguous_fixed_size_chunks(self):
        assert chunk_items([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]

    def test_single_chunk_when_oversized(self):
        assert chunk_items([1, 2], 10) == [[1, 2]]

    def test_rejects_nonpositive_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            chunk_items([1], 0)


class TestConfig:
    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError, match="max_workers"):
            SweepRunnerConfig(max_workers=0)

    def test_resolved_workers_defaults_to_cpu_count(self):
        assert SweepRunnerConfig().resolved_workers >= 1

    def test_explicit_worker_count_respected(self):
        assert SweepRunnerConfig(max_workers=3).resolved_workers == 3

    def test_supervision_off_by_default(self):
        config = SweepRunnerConfig()
        assert config.policy is None


class TestRunnerInline:
    def test_serial_when_parallel_disabled(self):
        runner = ParallelSweepRunner(SweepRunnerConfig(parallel=False))
        assert runner.map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_serial_when_single_worker(self):
        runner = ParallelSweepRunner(SweepRunnerConfig(max_workers=1))
        assert runner.map(_square, range(4)) == [0, 1, 4, 9]

    def test_empty_items(self):
        assert ParallelSweepRunner().map(_square, []) == []

    def test_exception_propagates(self):
        runner = ParallelSweepRunner(SweepRunnerConfig(parallel=False))
        with pytest.raises(ValueError, match="three"):
            runner.map(_raise_on_three, [1, 2, 3])

    def test_exception_names_failing_item(self):
        runner = ParallelSweepRunner(SweepRunnerConfig(parallel=False))
        with pytest.raises(ValueError) as excinfo:
            runner.map(_raise_on_three, [9, 3, 1])
        assert excinfo.value.sweep_item_index == 1


class TestRunnerParallel:
    """Force two real worker processes regardless of host CPU count."""

    def test_results_in_input_order(self):
        runner = ParallelSweepRunner(
            SweepRunnerConfig(max_workers=2, chunk_size=3)
        )
        values = list(range(10))
        assert runner.map(_square, values) == [v * v for v in values]

    def test_chunk_size_one(self):
        runner = ParallelSweepRunner(
            SweepRunnerConfig(max_workers=2, chunk_size=1)
        )
        assert runner.map(_square, [5, 6, 7]) == [25, 36, 49]

    def test_worker_exception_propagates(self):
        runner = ParallelSweepRunner(
            SweepRunnerConfig(max_workers=2, chunk_size=2)
        )
        with pytest.raises(ValueError, match="three"):
            runner.map(_raise_on_three, [1, 2, 3, 4])

    def test_worker_exception_names_failing_item(self):
        runner = ParallelSweepRunner(
            SweepRunnerConfig(max_workers=2, chunk_size=2)
        )
        with pytest.raises(ValueError, match="three") as excinfo:
            runner.map(_raise_on_three, [1, 2, 3, 4])
        assert excinfo.value.sweep_item_index == 2


class TestRunnerSupervised:
    """A ``policy`` turns on retries, quarantine, and the report."""

    def test_results_match_serial(self):
        runner = ParallelSweepRunner(
            SweepRunnerConfig(
                parallel=False, policy=ExecutionPolicy(), chunk_size=2
            )
        )
        values = list(range(7))
        assert runner.map(_square, values) == [v * v for v in values]
        assert runner.last_report is not None
        assert runner.last_report.chunks_completed == 4

    def test_policy_quarantines_poison_item(self):
        policy = ExecutionPolicy(max_attempts=1, backoff_base_s=0.0)
        runner = ParallelSweepRunner(
            SweepRunnerConfig(parallel=False, policy=policy, chunk_size=2)
        )
        results = runner.map(_raise_on_three, [1, 2, 3, 4])
        assert results[:2] == [1, 2] and results[3] == 4
        assert isinstance(results[2], QuarantinedItem)
        assert results[2].item_index == 2
        assert [record.item_index for record in runner.last_report.quarantined] == [2]

    def test_last_report_reset_between_maps(self):
        runner = ParallelSweepRunner(SweepRunnerConfig(parallel=False))
        runner.last_report = object()
        runner.map(_square, [1])
        assert runner.last_report is None


class TestKeyedCaches:
    def test_cached_catalog_returns_same_object(self):
        clear_catalog_cache()
        first = cached_catalog()
        second = cached_catalog()
        assert first is second
        clear_catalog_cache()
        assert cached_catalog() is not first

    def test_cached_catalog_keyed_by_seed(self):
        clear_catalog_cache()
        assert cached_catalog(seed=1) is not cached_catalog(seed=2)
        assert cached_catalog(seed=1) is cached_catalog(seed=1)

    def test_catalog_fits_memoized_and_keyed(self):
        clear_fit_cache()
        first = catalog_fits()
        assert catalog_fits() is first
        assert catalog_fits(seed=123) is not first
        clear_fit_cache()
        assert catalog_fits() is not first

    def test_catalog_fits_carries_all_fit_families(self):
        fits = catalog_fits()
        assert fits.battery, "expected per-cell-count battery fits"
        assert fits.esc, "expected per-class ESC fits"
        assert fits.frame.slope != 0.0
