"""Fast path <-> scalar oracle equivalence for the trace-engine core model.

The batch engine (:mod:`repro.platforms.trace_engine`) must be
*counter-exact* (the tier :mod:`tests.equivalence` checks): every integer
perf counter and structure statistic agrees bit-for-bit with the
per-access scalar oracle, and cycles agree bit-for-bit whenever
``base_cpi`` is integral (integer-valued float sums below 2**53 are exact
in any accumulation order).  Microarchitectural state written back after
a batch run must be indistinguishable to any subsequent scalar run.
"""

import numpy as np
import pytest

from repro import oracles
from repro.platforms import trace_engine
from repro.platforms.branch import GsharePredictor
from repro.platforms.cache import SetAssociativeCache
from repro.platforms.cpu import CorePenalties, InOrderCore
from repro.platforms.tlb import Tlb
from repro.platforms.workload import (
    OpKind,
    Trace,
    autopilot_trace,
    interleave,
    slam_trace,
)
from tests.equivalence import RUN_SEGMENTS, RUN_TRACE, structure_stats


def random_trace(rng, length, name="rand", address_span=1 << 22,
                 page_span=None):
    """A seeded random trace mixing all op kinds over a bounded footprint."""
    kinds = rng.integers(0, 4, size=length).astype(np.uint8)
    addresses = rng.integers(0, address_span, size=length, dtype=np.int64)
    pcs = (rng.integers(0, 4096, size=length, dtype=np.int64) << 2)
    taken = rng.random(length) < 0.6
    return Trace(name=name, kinds=kinds, addresses=addresses, pcs=pcs,
                 taken=taken)


def make_core(l1_kib=4, llc_kib=64, l1_assoc=2, llc_assoc=4, prefetch=True,
              tlb_entries=16, table_bits=8, history_bits=6,
              base_cpi=1.0, flush=True):
    llc = SetAssociativeCache(size_bytes=llc_kib * 1024, line_bytes=64,
                              associativity=llc_assoc, name="LLC")
    l1 = SetAssociativeCache(size_bytes=l1_kib * 1024, line_bytes=64,
                             associativity=l1_assoc, next_level=llc,
                             name="L1D", prefetch_next_line=prefetch)
    return InOrderCore(
        penalties=CorePenalties(base_cpi=base_cpi),
        l1=l1,
        llc=llc,
        tlb=Tlb(entries=tlb_entries),
        predictor=GsharePredictor(table_bits=table_bits,
                                  history_bits=history_bits),
        flush_on_context_switch=flush,
    )


def run_both(make, segments):
    """Run identical segments through the fast path and the oracle."""
    RUN_SEGMENTS.check(make(), list(segments))


class TestCoRunEquivalence:
    def test_interleaved_co_run_exact(self):
        auto = autopilot_trace(12_000, seed=6)
        slam = slam_trace(48_000, seed=7)
        segments = interleave(auto, slam, 1_500, 6_000)
        run_both(make_core, segments)

    def test_single_context_exact(self):
        trace = slam_trace(30_000, seed=3)
        RUN_TRACE.check(make_core(), "slam", trace)

    def test_fractional_base_cpi_close(self):
        # Non-integral base CPI accumulates in a different order in the
        # batch path, so cycles are isclose rather than bit-equal (the
        # counter-exact tier's rule for non-integral floats).
        auto = autopilot_trace(8_000, seed=5)
        slam = slam_trace(16_000, seed=8)
        segments = interleave(auto, slam, 1_000, 2_000)
        run_both(lambda: make_core(base_cpi=1.3), segments)


class TestRandomizedConfigs:
    @pytest.mark.parametrize("config", [
        dict(),                                   # baseline small core
        dict(l1_assoc=1),                         # direct-mapped L1
        dict(l1_kib=1, llc_kib=8, tlb_entries=4), # tiny, thrashing
        dict(prefetch=False),                     # no next-line prefetch
        dict(history_bits=0),                     # PC-indexed predictor
        dict(flush=False),                        # no context-switch flush
    ])
    def test_random_traces_exact(self, config):
        rng = np.random.default_rng(11)
        a = random_trace(rng, 6_000, name="A")
        b = random_trace(rng, 9_000, name="B", address_span=1 << 18)
        segments = interleave(a, b, 700, 1_300)
        run_both(lambda: make_core(**config), segments)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seed_sweep_exact(self, seed):
        rng = np.random.default_rng(seed)
        a = random_trace(rng, 4_000, name="A", address_span=1 << 16)
        b = random_trace(rng, 4_000, name="B")
        run_both(make_core, interleave(a, b, 500, 900))


def then_probe(context, probe):
    """Lift a side to: warm the core with it, then probe with the oracle."""

    def lift(run_warm):
        def run(core, *warm_args):
            run_warm(core, *warm_args)
            counters = oracles.run_segments(core, [(context, probe)])
            return {"counters": counters[context],
                    "structures": structure_stats(core)}

        return run

    return lift


class TestStateWriteback:
    def test_batch_then_scalar_continuation(self):
        """State written back after a batch run must be bit-equivalent:
        a further scalar run lands on identical counters either way."""
        rng = np.random.default_rng(23)
        warm = random_trace(rng, 10_000, name="warm")
        probe = random_trace(rng, 5_000, name="probe")
        RUN_TRACE.lift(then_probe("ctx", probe)).check(make_core(), "ctx", warm)

    def test_context_switch_flush_continuation(self):
        rng = np.random.default_rng(29)
        a = random_trace(rng, 3_000, name="A")
        b = random_trace(rng, 3_000, name="B")
        # Switching back to "A" after the batch run must flush identically.
        probe = random_trace(rng, 2_000, name="probe")
        RUN_SEGMENTS.lift(then_probe("A", probe)).check(
            make_core(), interleave(a, b, 400, 600))


class TestDispatchAndFallbacks:
    def test_unknown_engine_rejected(self):
        core = make_core()
        with pytest.raises(TypeError, match="engine"):
            core.run_trace("x", autopilot_trace(100, seed=1), engine="scalar")

    def test_empty_segments_rejected(self):
        with pytest.raises(ValueError, match="no segments"):
            make_core().run_segments([])

    def test_non_pow2_geometry_falls_back_scalar(self):
        """set_count=3 is unsupported by the batch kernels; the dispatch
        must run scalar transparently and stay exact."""
        def make():
            llc = SetAssociativeCache(size_bytes=3 * 4 * 64, line_bytes=64,
                                      associativity=4, name="LLC")
            l1 = SetAssociativeCache(size_bytes=3 * 2 * 64, line_bytes=64,
                                     associativity=2, next_level=llc,
                                     name="L1D")
            return InOrderCore(l1=l1, llc=llc, tlb=Tlb(entries=8),
                               predictor=GsharePredictor(table_bits=6,
                                                         history_bits=4))
        assert not trace_engine.supports_batch(make())
        rng = np.random.default_rng(31)
        trace = random_trace(rng, 4_000, address_span=1 << 14)
        run_both(make, [("ctx", trace)])

    def test_negative_address_raises_both_engines(self):
        kinds = np.array([OpKind.LOAD, OpKind.LOAD], dtype=np.uint8)
        addresses = np.array([64, -8], dtype=np.int64)
        zeros = np.zeros(2, dtype=np.int64)
        trace = Trace(name="bad", kinds=kinds, addresses=addresses,
                      pcs=zeros, taken=np.zeros(2, dtype=bool))
        with pytest.raises(ValueError, match="negative"):
            RUN_TRACE.check(make_core(), "ctx", trace)

    def test_supports_batch_default_core(self):
        assert trace_engine.supports_batch(InOrderCore())
        assert trace_engine.supports_batch(make_core())
