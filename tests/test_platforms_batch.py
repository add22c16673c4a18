"""Fast path <-> scalar oracle equivalence for the trace-engine core model.

The batch engine (:mod:`repro.platforms.trace_engine`) must be
*counter-exact* (the tier :mod:`tests.equivalence` checks): every integer
perf counter and structure statistic agrees bit-for-bit with the
per-access scalar oracle, and cycles agree bit-for-bit whenever
``base_cpi`` is integral (integer-valued float sums below 2**53 are exact
in any accumulation order).  Each side keeps its own state on the core —
the engine the structures' recency order, the oracle its stamp-dict
models — so a second call on one core must continue exactly where the
first left off, on each side.  What the engine cannot run is refused up
front: a geometry by :class:`InOrderCore`, a malformed trace by
:class:`Trace`.
"""

import numpy as np
import pytest

from repro import oracles
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


def then_probe(*probe_args):
    """Lift a side to two calls on one core: the warm-up, then the probe."""

    def lift(side):
        def run(core, *warm_args):
            side(core, *warm_args)
            return side(core, *probe_args)

        return run

    return lift


class TestStateWriteback:
    """The state a call leaves on the core is the state the next one
    starts from."""

    def test_second_call_continues(self):
        # A 64 KiB footprint fits the TLB's reach and the LLC, so the probe
        # hits in whatever the warm-up left in every structure.
        rng = np.random.default_rng(23)
        warm = random_trace(rng, 10_000, name="warm", address_span=1 << 16)
        probe = random_trace(rng, 5_000, name="probe", address_span=1 << 16)
        RUN_TRACE.lift(then_probe("ctx", probe)).check(make_core(), "ctx", warm)

    def test_context_switch_flush_continuation(self):
        rng = np.random.default_rng(29)
        a = random_trace(rng, 3_000, name="A")
        b = random_trace(rng, 3_000, name="B")
        # Switching back to "A" after the first call must flush identically.
        probe = random_trace(rng, 2_000, name="probe")
        RUN_SEGMENTS.lift(then_probe([("A", probe)])).check(
            make_core(), interleave(a, b, 400, 600))


def tiny_core(l1_sets=2, llc_sets=4, l1_line=64, llc_line=64,
              l1_next="llc", llc_next=None, llc_prefetch=False):
    """A core over hand-set cache geometry (2-way L1, 4-way LLC)."""
    llc = SetAssociativeCache(size_bytes=llc_sets * 4 * llc_line,
                              line_bytes=llc_line, associativity=4,
                              next_level=llc_next, name="LLC",
                              prefetch_next_line=llc_prefetch)
    next_level = {"llc": llc, "none": None, "other": make_core().llc}[l1_next]
    l1 = SetAssociativeCache(size_bytes=l1_sets * 2 * l1_line,
                             line_bytes=l1_line, associativity=2,
                             next_level=next_level, name="L1D")
    return InOrderCore(l1=l1, llc=llc)


def two_op_trace(**arrays):
    """A LOAD then a BRANCH, with a negative address on the branch and a
    negative PC on the load (neither is read), or arrays replaced."""
    fields = dict(kinds=np.array([OpKind.LOAD, OpKind.BRANCH], dtype=np.uint8),
                  addresses=np.array([64, -8], dtype=np.int64),
                  pcs=np.array([-4, 16], dtype=np.int64),
                  taken=np.zeros(2, dtype=bool))
    fields.update(arrays)
    return Trace(name="two-op", **fields)


class TestDispatchAndFallbacks:
    """``run_segments`` has one path and no fallback: what the kernels
    cannot run is refused before any state changes."""

    def test_unknown_engine_rejected(self):
        core = make_core()
        with pytest.raises(TypeError, match="engine"):
            core.run_trace("x", autopilot_trace(100, seed=1), engine="scalar")

    def test_empty_segments_rejected(self):
        with pytest.raises(ValueError, match="no segments"):
            make_core().run_segments([])

    def test_oracle_refuses_a_core_the_engine_ran(self):
        core = make_core()
        core.run_trace("ctx", autopilot_trace(100, seed=1))
        with pytest.raises(ValueError, match="has not run yet"):
            oracles.run_segments(core, [("ctx", autopilot_trace(100, seed=2))])

    @pytest.mark.parametrize("geometry, message", [
        (dict(l1_next="none"), "L1's next level must be the LLC"),
        (dict(l1_next="other"), "L1's next level must be the LLC"),
        (dict(llc_next=SetAssociativeCache(size_bytes=4096)),
         "LLC cannot have a next level"),
        (dict(llc_prefetch=True), "LLC cannot prefetch"),
        (dict(l1_line=32), "line sizes must match"),
        (dict(l1_line=48, llc_line=48), "line size 48 is not a power of two"),
        (dict(l1_sets=3), "L1 set count 3 is not a power of two"),
        (dict(llc_sets=6), "LLC set count 6 is not a power of two"),
    ])
    def test_unsupported_geometry_refused(self, geometry, message):
        with pytest.raises(ValueError, match=message):
            tiny_core(**geometry)

    def test_supported_geometries_accepted(self):
        InOrderCore()
        tiny_core()
        tiny_core(l1_sets=1, llc_sets=1, l1_line=32, llc_line=32)

    def test_page_size_refused_by_the_tlb(self):
        with pytest.raises(ValueError, match="power of two"):
            Tlb(page_bytes=3000)

    @pytest.mark.parametrize("arrays, message", [
        (dict(kinds=np.array([1, 5], dtype=np.uint8)),
         r"kinds\[1\] = 5 is not an OpKind"),
        (dict(kinds=np.array([-1, 1], dtype=np.int64)),
         r"kinds\[0\] = -1 is not an OpKind"),
        (dict(addresses=np.array([64.0, 8.0])),
         "addresses must be integers, not float64"),
        (dict(pcs=np.array([0.0, 16.0])), "pcs must be integers, not float64"),
        (dict(kinds=np.array([OpKind.ALU, OpKind.STORE], dtype=np.uint8)),
         r"addresses\[1\] = -8 is a negative memory address"),
        (dict(kinds=np.array([OpKind.BRANCH, OpKind.ALU], dtype=np.uint8)),
         r"pcs\[0\] = -4 is a negative branch PC"),
    ])
    def test_malformed_trace_refused(self, arrays, message):
        with pytest.raises(ValueError, match=message):
            two_op_trace(**arrays)

    def test_negative_values_outside_their_ops_accepted(self):
        RUN_TRACE.check(make_core(), "ctx", two_op_trace())
