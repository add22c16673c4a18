"""Batch trace engine: vectorized decode + in-place LRU kernels.

:class:`repro.platforms.cpu.InOrderCore` runs every segment through this
engine in two stages:

1. **Vectorized decode (NumPy).**  Per segment: kind masks via a lookup
   table, line/page extraction via shifts, and *exact run compression* —
   consecutive accesses to the same cache line are guaranteed L1 hits at MRU
   position (the next-line prefetch of line ``t`` lands in set ``t+1 mod S``,
   never ``t``'s own set, for S > 1), so their LRU refreshes are no-ops and
   they can be dropped from the sequential stream.  Same-page runs are
   dropped from the TLB stream for the same reason.  Gshare indices are
   precomputed for a whole segment at once: the global history before branch
   ``i`` is a windowed dot product of earlier taken bits, i.e. one
   ``np.convolve`` with weights ``2^0..2^(H-1)``.

2. **LRU kernels over the core's own state (tight Python loops).**  Each
   L1 set is a list of lines (a membership scan of a few ways), each LLC
   set and the TLB an insertion-ordered dict, all in *recency order* (LRU
   first) and always full of lines or negative sentinels, so a hit refresh
   and an evict-insert are O(1) list/dict operations with no ``min()``
   scan and no length check.  The kernels walk
   :class:`SetAssociativeCache`'s ``sets``, :class:`Tlb`'s ``pages`` and
   :class:`GsharePredictor`'s ``table`` and ``history`` in place: there is
   no second copy to build or write back, and a later call continues from
   the state the last one left.

Every counter — instructions, LLC accesses/misses, branches/mispredictions,
TLB accesses/misses — is integer-exact against the per-access oracle
:func:`repro.oracles.run_segments`, and cycles are bit-equal whenever
``base_cpi`` is integral (penalty sums are exact integer adds onto a float;
a fractional ``base_cpi`` makes the oracle's event-ordered float adds round
differently, so cycles are then allclose).  The core's constructor refuses
a geometry the kernels cannot run, and :class:`Trace` refuses kinds outside
:class:`OpKind`, non-integer addresses or PCs, and negative memory
addresses or branch PCs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from repro.analysis.markers import hot_path
from repro.platforms.workload import OpKind, Trace

if TYPE_CHECKING:
    from repro.platforms.cpu import InOrderCore, PerfCounters

#: kind -> "touches memory" lookup; indexing with the uint8 kinds array
#: replaces two equality scans.
_MEM_LUT = np.zeros(4, dtype=bool)
_MEM_LUT[int(OpKind.LOAD)] = True
_MEM_LUT[int(OpKind.STORE)] = True

_BRANCH_KIND = int(OpKind.BRANCH)

#: Dict-miss sentinel for ``pop`` (never a valid line or page, which are
#: >= 0).
_MISSING = object()


@hot_path
def _cache_kernel(
    line_list: List[int],
    l1_sets: List[List[int]],
    llc_sets: List[Dict[int, bool]],
    l1_mask: int,
    llc_mask: int,
    prefetch: bool,
) -> Tuple[int, int, int, int]:
    """Sequential L1+LLC walk over one segment's compressed line stream.

    Returns (l1_misses, demand_llc_misses, prefetch_llc_misses,
    prefetch_installs).
    """
    missing = _MISSING
    l1_miss = 0
    llc_demand_miss = 0
    llc_prefetch_miss = 0
    prefetch_installs = 0
    for line in line_list:
        ways = l1_sets[line & l1_mask]
        if line in ways:
            # Refreshing the MRU way is a no-op; hot loops hammer one line
            # per set, so this check pays for itself many times over.
            if ways[-1] != line:
                ways.remove(line)
                ways.append(line)
            continue
        l1_miss += 1
        llc_ways = llc_sets[line & llc_mask]
        if llc_ways.pop(line, missing) is missing:
            llc_demand_miss += 1
            del llc_ways[next(iter(llc_ways))]
        llc_ways[line] = True
        del ways[0]
        ways.append(line)
        if prefetch:
            next_line = line + 1
            next_ways = l1_sets[next_line & l1_mask]
            if next_line not in next_ways:
                prefetch_installs += 1
                next_llc = llc_sets[next_line & llc_mask]
                if next_llc.pop(next_line, missing) is missing:
                    llc_prefetch_miss += 1
                    del next_llc[next(iter(next_llc))]
                next_llc[next_line] = True
                del next_ways[0]
                next_ways.append(next_line)
    return l1_miss, llc_demand_miss, llc_prefetch_miss, prefetch_installs


@hot_path
def _tlb_kernel(page_list: List[int], tlb_pages: Dict[int, bool]) -> int:
    """Fully-associative LRU walk over one segment's compressed page stream."""
    missing = _MISSING
    misses = 0
    for page in page_list:
        if tlb_pages.pop(page, missing) is missing:
            misses += 1
            del tlb_pages[next(iter(tlb_pages))]
        tlb_pages[page] = True
    return misses


@hot_path
def _branch_kernel(
    index_list: List[int], taken_list: List[bool], table: List[int]
) -> int:
    """2-bit saturating-counter updates over precomputed gshare indices."""
    misses = 0
    for index, taken in zip(index_list, taken_list):
        counter = table[index]
        if taken:
            if counter < 2:
                misses += 1
            if counter < 3:
                table[index] = counter + 1
        else:
            if counter >= 2:
                misses += 1
            if counter > 0:
                table[index] = counter - 1
    return misses


def _without_repeats(values: np.ndarray) -> List[int]:
    """``values`` as a list with each run of equal neighbours kept once."""
    if values.shape[0] < 2:
        return values.tolist()
    keep = np.empty(values.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep].tolist()


def _gshare_indices(
    pcs: np.ndarray, taken: np.ndarray, history: int, table_bits: int, history_bits: int
) -> np.ndarray:
    """Gshare table index of every branch, given the entry global history.

    The history before branch ``i`` is the last ``history_bits`` taken bits,
    newest in the LSB — a windowed dot product with weights ``2^(j-1)`` over
    the ``j``-back bit, computed for all ``i`` at once with one convolve.
    The entry history contributes ``(h << i) & mask`` to the first
    ``history_bits`` branches before its bits shift out of the window.
    """
    count = pcs.shape[0]
    table_mask = (1 << table_bits) - 1
    if history_bits == 0:
        return (pcs >> 2) & table_mask
    history_mask = (1 << history_bits) - 1
    weights = (np.int64(1) << np.arange(history_bits, dtype=np.int64))
    convolved = np.convolve(taken.astype(np.int64), weights)
    windowed = np.empty(count, dtype=np.int64)
    windowed[0] = 0
    windowed[1:] = convolved[: count - 1]
    if history:
        carry = min(count, history_bits)
        shifts = np.arange(carry, dtype=np.int64)
        windowed[:carry] |= (np.int64(history) << shifts) & history_mask
    return ((pcs >> 2) ^ (windowed & history_mask)) & table_mask


def _fold_history(taken_list: List[bool], history: int, history_bits: int) -> int:
    """The predictor's global history after a segment's branches."""
    if history_bits == 0:
        return 0
    mask = (1 << history_bits) - 1
    for taken in taken_list[-history_bits:]:
        history = ((history << 1) | taken) & mask
    return history


def run_segments_batch(
    core: InOrderCore, segments: List[Tuple[str, Trace]]
) -> Dict[str, PerfCounters]:
    """Execute scheduled segments on ``core``, walking its caches, TLB and
    predictor in place; returns the core's per-context counters."""
    penalties = core.penalties
    l1, llc, tlb, predictor = core.l1, core.llc, core.tlb, core.predictor
    line_shift = l1.line_bytes.bit_length() - 1
    page_shift = tlb.page_bytes.bit_length() - 1
    l1_mask = l1.set_count - 1
    llc_mask = llc.set_count - 1
    prefetch = l1.prefetch_next_line
    # Run compression drops repeat-line accesses as guaranteed MRU hits; with
    # a single L1 set the prefetch of line t lands in t's own set and the
    # repeat access's refresh is no longer a no-op, so compression is only
    # exact for multi-set L1s (or with the prefetcher off).
    compress_lines = l1.set_count > 1 or not prefetch

    for context, trace in segments:
        core._switch_to(context)
        counter = core.counters[context]

        addresses = trace.addresses[_MEM_LUT[trace.kinds]]
        mem_count = addresses.shape[0]
        lines = addresses >> line_shift
        line_list = _without_repeats(lines) if compress_lines else lines.tolist()
        page_list = _without_repeats(addresses >> page_shift)

        tlb_misses = _tlb_kernel(page_list, tlb.pages)
        l1_misses, llc_demand_misses, llc_prefetch_misses, installs = (
            _cache_kernel(
                line_list, l1.sets, llc.sets, l1_mask, llc_mask, prefetch
            )
        )

        branch_mask = trace.kinds == _BRANCH_KIND
        branch_pcs = trace.pcs[branch_mask]
        branch_count = branch_pcs.shape[0]
        if branch_count:
            branch_taken = trace.taken[branch_mask]
            indices = _gshare_indices(
                branch_pcs,
                branch_taken,
                predictor.history,
                predictor.table_bits,
                predictor.history_bits,
            )
            taken_list = branch_taken.tolist()
            branch_misses = _branch_kernel(
                indices.tolist(), taken_list, predictor.table
            )
            predictor.history = _fold_history(
                taken_list, predictor.history, predictor.history_bits
            )
        else:
            branch_misses = 0

        llc_accesses = l1_misses + installs
        llc_misses = llc_demand_misses + llc_prefetch_misses
        counter.instructions += trace.length
        counter.cycles += trace.length * penalties.base_cpi + (
            tlb_misses * penalties.tlb_miss
            + l1_misses * penalties.l1_miss_llc_hit
            + llc_demand_misses * penalties.llc_miss_dram
            + branch_misses * penalties.branch_mispredict
        )
        counter.llc_accesses += llc_accesses
        counter.llc_misses += llc_misses
        counter.branches += branch_count
        counter.branch_misses += branch_misses
        counter.tlb_accesses += mem_count
        counter.tlb_misses += tlb_misses

        l1.stats.accesses += mem_count
        l1.stats.misses += l1_misses
        llc.stats.accesses += llc_accesses
        llc.stats.misses += llc_misses
        tlb.stats.accesses += mem_count
        tlb.stats.misses += tlb_misses
        predictor.stats.branches += branch_count
        predictor.stats.mispredictions += branch_misses
    return core.counters
