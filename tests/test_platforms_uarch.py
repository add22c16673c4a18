"""Unit tests: cache, TLB, branch predictor, and the trace-driven core.

The per-access LRU, prefetch and gshare semantics are checked on the
oracle's models (:class:`repro.oracles.ScalarCache` and its siblings),
which the trace engine matches counter for counter
(``tests/test_platforms_batch.py``); the structures' own state is checked
through :meth:`InOrderCore.run_trace`.  The workload generators' four
arrays are pinned bit for bit, by dtype, length and sha256, under
``tests/fixtures/platforms/``.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.oracles import ScalarCache, ScalarGshare, ScalarTlb
from repro.platforms.branch import GsharePredictor
from repro.platforms.cache import SetAssociativeCache, rpi_cache_hierarchy
from repro.platforms.cpu import CorePenalties, InOrderCore
from repro.platforms.tlb import Tlb
from repro.platforms.workload import (
    OpKind,
    Trace,
    autopilot_trace,
    interleave,
    slam_trace,
)
from tests.equivalence import golden

TRACE_FIELDS = ("kinds", "addresses", "pcs", "taken")


class TestCache:
    def make(self, **kwargs) -> ScalarCache:
        defaults = dict(size_bytes=1024, line_bytes=64, associativity=2)
        defaults.update(kwargs)
        return ScalarCache(SetAssociativeCache(**defaults))

    def test_cold_miss_then_hit(self):
        cache = self.make()
        assert not cache.access(0x1000)
        assert cache.access(0x1000)
        assert cache.access(0x1010)  # same line

    def test_lru_eviction(self):
        cache = self.make()  # 8 sets, 2 ways
        set_stride = 8 * 64  # same set index
        cache.access(0x0)
        cache.access(set_stride)
        cache.access(0x0)  # touch to make it MRU
        cache.access(2 * set_stride)  # evicts set_stride (LRU)
        assert cache.access(0x0)
        assert not cache.access(set_stride)

    def test_capacity_thrash(self):
        cache = self.make(size_bytes=1024)
        for address in range(0, 4096, 64):
            cache.access(address)
        for address in range(0, 4096, 64):
            cache.access(address)
        assert cache.stats.miss_rate > 0.9  # streaming over 4x capacity

    def test_miss_propagates_to_next_level(self):
        llc = SetAssociativeCache(size_bytes=4096, associativity=4)
        l1 = self.make(next_level=llc)
        l1.access(0x5000)
        assert llc.stats.accesses == 1

    def test_prefetch_next_line(self):
        l1 = self.make(size_bytes=2048, prefetch_next_line=True)
        assert not l1.access(0x0)
        assert l1.access(0x40)  # prefetched

    def test_flush(self):
        # A flushed hierarchy replays a trace's cold misses exactly.
        trace = slam_trace(length=5_000, seed=4)
        core = InOrderCore()
        cold = core.run_trace("a", trace).llc_accesses
        core.l1.flush()
        core.llc.flush()
        assert core.run_trace("a", trace).llc_accesses == 2 * cold

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(size_bytes=1000, line_bytes=64, associativity=3)
        with pytest.raises(ValueError):
            SetAssociativeCache(size_bytes=0)

    def test_rpi_hierarchy_shape(self):
        l1, llc = rpi_cache_hierarchy()
        assert l1.set_count * l1.associativity * l1.line_bytes == 32 * 1024
        assert llc.set_count * llc.associativity * llc.line_bytes == 1024 * 1024
        assert l1.next_level is llc


class TestTlb:
    def test_hit_after_fill(self):
        tlb = ScalarTlb(Tlb(entries=4))
        assert not tlb.access(0x1000)
        assert tlb.access(0x1fff)  # same page

    def test_lru_capacity(self):
        tlb = ScalarTlb(Tlb(entries=2))
        tlb.access(0x0000)
        tlb.access(0x1000)
        tlb.access(0x0000)  # MRU
        tlb.access(0x2000)  # evicts 0x1000
        assert tlb.access(0x0000)
        assert not tlb.access(0x1000)

    def test_flush(self):
        tlb = ScalarTlb(Tlb())
        tlb.access(0x4000)
        tlb.flush()
        assert not tlb.access(0x4000)
        assert len(tlb._pages) == 1
        core_tlb = Tlb(entries=4)
        core_tlb.pages[0x4] = True
        core_tlb.flush()
        assert list(core_tlb.pages) == [-1, -2, -3, -4]

    def test_validation(self):
        with pytest.raises(ValueError):
            Tlb(entries=0)
        with pytest.raises(ValueError):
            Tlb(page_bytes=3000)


class TestBranchPredictor:
    def test_learns_biased_branch(self):
        predictor = ScalarGshare(GsharePredictor())
        for _ in range(200):
            predictor.predict_and_update(0x400, True)
        assert predictor.stats.miss_rate < 0.05

    def test_alternating_pattern_learned_via_history(self):
        predictor = ScalarGshare(GsharePredictor())
        for index in range(2000):
            predictor.predict_and_update(0x400, index % 2 == 0)
        # With history, an alternating branch becomes predictable.
        assert predictor.stats.miss_rate < 0.30

    def test_random_branches_near_half(self):
        predictor = ScalarGshare(GsharePredictor())
        rng = np.random.default_rng(0)
        for _ in range(3000):
            predictor.predict_and_update(0x400, bool(rng.random() < 0.5))
        assert 0.35 < predictor.stats.miss_rate < 0.65

    def test_validation(self):
        with pytest.raises(ValueError):
            GsharePredictor(table_bits=2)


class TestWorkloads:
    def test_trace_lengths(self):
        trace = autopilot_trace(length=5000)
        assert trace.length == 5000

    def test_deterministic(self):
        a = slam_trace(length=1000, seed=3)
        b = slam_trace(length=1000, seed=3)
        assert np.array_equal(a.addresses, b.addresses)

    def test_kind_mix(self):
        trace = autopilot_trace(length=50_000)
        mem = np.sum((trace.kinds == OpKind.LOAD) | (trace.kinds == OpKind.STORE))
        branches = np.sum(trace.kinds == OpKind.BRANCH)
        assert 0.2 < mem / trace.length < 0.4
        assert 0.08 < branches / trace.length < 0.16

    def test_slam_has_bigger_footprint(self):
        autopilot = autopilot_trace(length=20_000)
        slam = slam_trace(length=20_000)
        footprint = lambda t: len(set(t.addresses // 4096))
        assert footprint(slam) > 3 * footprint(autopilot)

    def test_interleave_preserves_instructions(self):
        a = autopilot_trace(length=10_000)
        b = slam_trace(length=25_000)
        segments = interleave(a, b, timeslice=3000, timeslice_b=7000)
        totals = {"autopilot": 0, "slam": 0}
        for context, segment in segments:
            totals[context] += segment.length
        assert totals == {"autopilot": 10_000, "slam": 25_000}

    def test_interleave_alternates(self):
        a = autopilot_trace(length=6000)
        b = slam_trace(length=6000)
        segments = interleave(a, b, timeslice=2000)
        contexts = [context for context, _ in segments]
        assert contexts[:4] == ["autopilot", "slam", "autopilot", "slam"]

    def test_validation(self):
        with pytest.raises(ValueError):
            autopilot_trace(length=0)
        with pytest.raises(ValueError):
            interleave(autopilot_trace(100), slam_trace(100), timeslice=0)

    @pytest.mark.parametrize("working_set_bytes", [-64, 0, 1, 63])
    def test_working_set_below_one_line(self, working_set_bytes):
        with pytest.raises(ValueError, match="one 64-byte line"):
            slam_trace(100, working_set_bytes=working_set_bytes)

    def test_working_set_of_one_line(self):
        trace = slam_trace(100, working_set_bytes=64)
        cold = trace.addresses >= 0x4000_0000 + 0x0800_0000
        assert cold.any() and np.all(trace.addresses[cold] == 0x4800_0000)


def _trace_digest(trace):
    """Each array's dtype, length and the sha256 of its little-endian bytes."""
    digest = {}
    for field in TRACE_FIELDS:
        array = getattr(trace, field)
        little = np.ascontiguousarray(array, dtype=array.dtype.newbyteorder("<"))
        digest[field] = {
            "dtype": array.dtype.str,
            "length": array.shape[0],
            "sha256": hashlib.sha256(little.tobytes()).hexdigest(),
        }
    return digest


class TestGoldenTraces:
    """Integer draws, comparisons and integer arithmetic only: no BLAS or
    libm, so every case is checked on every host."""

    @pytest.mark.parametrize("case, generator, kwargs", [
        ("autopilot_default", autopilot_trace, {}),
        ("slam_default", slam_trace, {}),
        # The Figure 15 study's own traces at perfbench seed 1.
        ("autopilot_study_seed1", autopilot_trace,
         {"length": 200_000, "seed": 2}),
        ("slam_study_seed1", slam_trace, {"length": 2_000_000, "seed": 3}),
        ("autopilot_length_1", autopilot_trace, {"length": 1}),
        ("slam_length_1", slam_trace, {"length": 1}),
        ("autopilot_length_777", autopilot_trace, {"length": 777, "seed": 5}),
        ("slam_length_777", slam_trace, {"length": 777, "seed": 5}),
        ("slam_working_set_4k", slam_trace,
         {"length": 1_234, "working_set_bytes": 4096, "seed": 9}),
        ("slam_working_set_one_line", slam_trace,
         {"length": 1_234, "working_set_bytes": 64, "seed": 9}),
    ])
    def test_trace_bits(self, case, generator, kwargs):
        golden(f"platforms/traces/{case}",
               lambda: _trace_digest(generator(**kwargs)))


class TestTraceMemory:
    """Every full-length draw lands in the array it ends up in or is reduced
    at once to a bool mask, so a generator's peak allocation stays within
    twice the trace it returns.  NumPy reports its buffers to tracemalloc."""

    @pytest.mark.parametrize("generator", [autopilot_trace, slam_trace])
    def test_peak_allocation_within_twice_the_trace(self, generator):
        generator(length=16)  # keep first-call lazy imports out of the peak
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            baseline = tracemalloc.get_traced_memory()[0]
            trace = generator(length=200_000)
            peak = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            if started:
                tracemalloc.stop()
        nbytes = sum(getattr(trace, field).nbytes for field in TRACE_FIELDS)
        assert peak <= 2 * nbytes, f"peak {peak / nbytes:.2f}x the trace"


class TestInOrderCore:
    def test_alu_only_trace_ipc_is_base(self):
        length = 1000
        trace = Trace(
            name="alu",
            kinds=np.zeros(length, dtype=np.uint8),
            addresses=np.zeros(length, dtype=np.int64),
            pcs=np.zeros(length, dtype=np.int64),
            taken=np.zeros(length, dtype=bool),
        )
        core = InOrderCore()
        counters = core.run_trace("alu", trace)
        assert counters.ipc == pytest.approx(1.0)

    def test_memory_penalties_lower_ipc(self):
        core = InOrderCore()
        counters = core.run_trace("slam", slam_trace(length=20_000))
        assert counters.ipc < 0.6

    def test_counters_accumulate_across_runs(self):
        core = InOrderCore()
        core.run_trace("a", autopilot_trace(length=5000))
        core.run_trace("a", autopilot_trace(length=5000, seed=99))
        assert core.counters["a"].instructions == 10_000

    def test_reset_counters_keeps_state(self):
        core = InOrderCore()
        core.run_trace("warm", autopilot_trace(length=5000))
        pages = list(core.tlb.pages)
        sets = [list(ways) for ways in core.l1.sets + core.llc.sets]
        history = core.predictor.history
        table = list(core.predictor.table)
        core.reset_counters()
        assert list(core.tlb.pages) == pages
        assert [list(ways) for ways in core.l1.sets + core.llc.sets] == sets
        assert core.predictor.history == history
        assert core.predictor.table == table
        assert core.counters == {}
        assert core.l1.stats.accesses == core.tlb.stats.misses == 0

    def test_empty_segments_rejected(self):
        with pytest.raises(ValueError):
            InOrderCore().run_segments([])

    def test_penalty_validation(self):
        with pytest.raises(ValueError):
            CorePenalties(base_cpi=0.0)
        with pytest.raises(ValueError):
            CorePenalties(llc_miss_dram=-5)
