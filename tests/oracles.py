"""Scalar reference oracles for the chunked playback kernels.

Every playback layer in ``src/`` runs one kernel over the chunk protocol
(``trace.chunks()``) and carries its state across chunk boundaries.  The
functions here are the event-at-a-time forms those kernels replaced: they
take a scalar :class:`~repro.trace.Trace` (a list of events) and share no
code with the kernels beyond the energy models.  The kernels must agree
with them *exactly* — equal integers, ``==`` floats, equal dict and rank
order — on every input type and chunk size; the ``check_*`` helpers below
assert that for one trace over a list of engine inputs, and
:func:`engine_inputs` builds those inputs.
"""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path

from repro.batch.flows import trace_to_application
from repro.memory import (
    BankSleepReport,
    PartitionedMemory,
    SleepPolicy,
    SRAMEnergyModel,
    simulate_bank_sleep,
)
from repro.memory.partitioned import MemoryEnergyReport
from repro.reconfig import Application, DataSet, Kernel
from repro.reconfig.scheduler import EnergyAwareScheduler
from repro.spm import SPMAllocator
from repro.trace import (
    AccessProfile,
    BlockStats,
    Trace,
    address_entropy,
    open_store,
    region_transition_matrix,
    save_store,
    stride_histogram,
)


def chunk_sizes(trace: Trace) -> tuple[int, ...]:
    """Chunk sizes every streamed input is replayed at: one event per chunk,
    a small prime (chunk boundaries at irregular offsets), the trace length
    and one past it."""
    return (1, 7, max(len(trace), 1), len(trace) + 1)


def streamed_views(path: Path, sizes) -> list:
    """``(label, input)`` pairs: the store at ``path`` reopened per chunk size."""
    return [(f"streamed[{size}]", open_store(path, chunk_size=size)) for size in sizes]


def engine_inputs(trace: Trace, store_root: Path | None = None) -> list:
    """``(label, input)`` pairs carrying the events of ``trace``.

    Always a fresh :class:`Trace` (so its columnar cache starts cold) and
    the :class:`ColumnarTrace`; with ``store_root``, also the trace packed
    into a store there and reopened at every :func:`chunk_sizes` size.
    """
    inputs = [
        ("Trace", Trace(list(trace), name=trace.name)),
        ("ColumnarTrace", trace.columnar()),
    ]
    if store_root is not None:
        path = save_store(trace, store_root / "case.tstore")
        inputs += streamed_views(path, chunk_sizes(trace))
    return inputs


# -- oracles ------------------------------------------------------------------------


def play(
    memory: PartitionedMemory, trace: Trace, include_leakage: bool = False
) -> MemoryEnergyReport:
    """Play ``trace`` one event at a time: binary-search bank, count, price."""
    memory.reset_counters()
    for event in trace:
        bank = memory.bank_for(event.address)
        if event.is_write:
            bank.writes += 1
        else:
            bank.reads += 1
    duration_cycles = 0
    if len(trace):
        duration_cycles = trace.events[-1].time - trace.events[0].time + 1
    bank_pj = sum(bank.dynamic_energy for bank in memory.banks)
    decoder_pj = len(trace) * memory.decoder_model.access_energy(memory.num_banks)
    leakage_pj = 0.0
    if include_leakage and len(trace):
        leakage_pj = sum(bank.leakage_energy(duration_cycles) for bank in memory.banks)
    return MemoryEnergyReport(
        bank_energy=bank_pj,
        decoder_energy=decoder_pj,
        leakage_energy=leakage_pj,
        accesses=len(trace),
    )


def bank_sleep(
    bank_sizes: list[int],
    bank_bases: list[int],
    trace: Trace,
    policy: SleepPolicy,
    sram_model: SRAMEnergyModel | None = None,
    cycle_time_ns: float = 10.0,
) -> BankSleepReport:
    """Drowsy-mode leakage, one event and one idle gap at a time."""
    if sram_model is None:
        sram_model = SRAMEnergyModel()
    if not len(trace):
        return BankSleepReport(0.0, 0.0, 0, 0.0, 0.0)
    start_cycles = trace.events[0].time
    end_cycles = trace.events[-1].time
    access_times: list[list[int]] = [[] for _ in bank_sizes]
    for event in trace:
        for index, (base, size) in enumerate(zip(bank_bases, bank_sizes)):
            if base <= event.address < base + size:
                access_times[index].append(event.time)
                break
        else:
            raise ValueError(f"address {event.address:#x} outside every bank")

    duration_cycles = end_cycles - start_cycles + 1
    always_on_pj = sum(
        sram_model.leakage_energy(size, duration_cycles, cycle_time_ns)
        for size in bank_sizes
    )
    managed_pj = 0.0
    wakes = 0
    asleep_bank_cycles = 0
    for size, times in zip(bank_sizes, access_times):
        leak_pj_per_cycle = sram_model.leakage_energy(size, 1, cycle_time_ns)
        if not times:
            managed_pj += duration_cycles * leak_pj_per_cycle * policy.sleep_factor
            asleep_bank_cycles += duration_cycles
            continue
        awake_cycles = 0
        asleep_cycles = times[0] - start_cycles  # starts asleep
        if asleep_cycles > 0:
            wakes += 1
        for previous, current in zip(times, times[1:]):
            gap_cycles = current - previous
            if gap_cycles > policy.timeout_cycles:
                awake_cycles += policy.timeout_cycles
                asleep_cycles += gap_cycles - policy.timeout_cycles
                wakes += 1
            else:
                awake_cycles += gap_cycles
        tail_cycles = end_cycles - times[-1] + 1
        awake_cycles += min(tail_cycles, policy.timeout_cycles)
        asleep_cycles += max(0, tail_cycles - policy.timeout_cycles)
        managed_pj += (
            awake_cycles * leak_pj_per_cycle
            + asleep_cycles * leak_pj_per_cycle * policy.sleep_factor
        )
        asleep_bank_cycles += asleep_cycles
    total_bank_cycles = duration_cycles * len(bank_sizes)
    return BankSleepReport(
        always_on_leakage=always_on_pj,
        managed_leakage=managed_pj,
        wake_events=wakes,
        wake_energy=wakes * policy.wake_energy,
        sleep_fraction=asleep_bank_cycles / total_bank_cycles if total_bank_cycles else 0.0,
    )


def profile(trace: Trace, block_size: int) -> tuple[list[int], dict[int, BlockStats]]:
    """Block sequence and per-block stats, in first-encounter dict order."""
    sequence: list[int] = []
    stats: dict[int, BlockStats] = {}
    for event in trace:
        block = event.block(block_size)
        sequence.append(block)
        entry = stats.get(block)
        if entry is None:
            entry = BlockStats(block=block, first_time=event.time, last_time=event.time)
            stats[block] = entry
        if event.is_read:
            entry.reads += 1
        else:
            entry.writes += 1
        entry.last_time = event.time
    return sequence, stats


def affinity(sequence: list[int], window: int) -> dict[tuple[int, int], int]:
    """Sliding-window pair counts, in first-encounter order."""
    counts: dict[tuple[int, int], int] = {}
    recent: list[int] = []
    for block in sequence:
        for other in recent:
            if other == block:
                continue
            key = (block, other) if block < other else (other, block)
            counts[key] = counts.get(key, 0) + 1
        recent.append(block)
        if len(recent) > window - 1:
            recent.pop(0)
    return counts


def stride_ranking(trace: Trace, top: int | None = None) -> list[tuple[int, int]]:
    """Consecutive address deltas, ``Counter.most_common`` order."""
    counts: Counter = Counter()
    previous = None
    for event in trace:
        if previous is not None:
            counts[event.address - previous] += 1
        previous = event.address
    return counts.most_common(top)


def entropy(trace: Trace, block_size: int) -> float:
    """Shannon entropy of the block distribution, summed in encounter order."""
    counts: Counter = Counter(event.block(block_size) for event in trace)
    total = sum(counts.values())
    bits = 0.0
    for count in counts.values():
        probability = count / total
        bits -= probability * math.log2(probability)
    return bits


def region_transitions(trace: Trace, region_size: int) -> dict[tuple[int, int], int]:
    """Consecutive region-pair counts, in first-encounter order."""
    matrix: dict[tuple[int, int], int] = {}
    previous = None
    for event in trace:
        region = event.address // region_size
        if previous is not None:
            matrix[(previous, region)] = matrix.get((previous, region), 0) + 1
        previous = region
    return matrix


def spm_top_k(allocator: SPMAllocator, counts: dict[int, int], block_size: int):
    """``(chosen blocks, predicted benefit)``: hottest first, lower block on ties."""
    saving_pj = allocator.cache_path_energy - allocator.config.access_energy()
    capacity_blocks = allocator.config.size // block_size
    if saving_pj <= 0 or capacity_blocks == 0:
        return frozenset(), 0.0
    ranked = sorted(counts, key=lambda block: (-counts[block], block))
    chosen = ranked[:capacity_blocks]
    return frozenset(chosen), saving_pj * sum(counts[block] for block in chosen)


def knapsack(items: list[tuple[str, int, float]], capacity: int) -> frozenset:
    """0/1 knapsack DP: descending in-place room update, eager chosen lists."""
    if not items:
        return frozenset()
    grain = 16
    slots = capacity // grain
    best = [0.0] * (slots + 1)
    chosen: list[list[str]] = [[] for _ in range(slots + 1)]
    for name, size, value in sorted(items, key=lambda item: item[0]):
        weight = (size + grain - 1) // grain
        for room in range(slots, weight - 1, -1):
            candidate = best[room - weight] + value
            if candidate > best[room]:
                best[room] = candidate
                chosen[room] = chosen[room - weight] + [name]
    top = max(range(slots + 1), key=lambda room: best[room])
    return frozenset(chosen[top])


def application(
    trace: Trace, window_events: int, region_bytes: int, num_contexts: int
) -> Application:
    """Reconfig application: one kernel per window of data accesses."""
    data = trace.data_accesses()
    kernels = []
    for start in range(0, len(data), window_events):
        regions: dict[int, tuple[int, int]] = {}
        for event in data[start : start + window_events]:
            region = event.address // region_bytes
            reads, writes = regions.get(region, (0, 0))
            if event.is_write:
                writes += 1
            else:
                reads += 1
            regions[region] = (reads, writes)
        data_sets = tuple(
            DataSet(name=f"region_{region:#x}", size=region_bytes, reads=reads, writes=writes)
            for region, (reads, writes) in sorted(regions.items())
        )
        dominant = max(sorted(regions), key=lambda region: sum(regions[region]))
        kernels.append(
            Kernel(
                name=f"window_{start // window_events}",
                context=dominant % num_contexts,
                data_sets=data_sets,
            )
        )
    if not kernels:
        raise ValueError(f"trace {trace.name!r} has no data accesses")
    return Application(name=trace.name, kernels=tuple(kernels))


def translate(exact_edges: list[int], physical_bases: list[int], address: int) -> int:
    """Exact-extent → physical address: binary search, clamp to the last bank."""
    low, high = 0, len(exact_edges) - 2
    while low < high:
        mid = (low + high) // 2
        if address < exact_edges[mid + 1]:
            high = mid
        else:
            low = mid + 1
    return physical_bases[low] + (address - exact_edges[low])


# -- oracle-vs-engine checks --------------------------------------------------------


def check_play(bank_sizes: list[int], trace: Trace, inputs: list) -> None:
    """``PartitionedMemory.play`` == :func:`play`, reports and bank counters."""
    reference = PartitionedMemory(bank_sizes)
    want = play(reference, trace, include_leakage=True)
    want_banks = [(bank.reads, bank.writes) for bank in reference.banks]
    for label, engine_input in inputs:
        memory = PartitionedMemory(bank_sizes)
        got = memory.play(engine_input, include_leakage=True)
        assert got == want, label
        assert got.total == want.total, label
        assert [(bank.reads, bank.writes) for bank in memory.banks] == want_banks, label


def check_sleep(
    bank_sizes: list[int], trace: Trace, policy: SleepPolicy, inputs: list
) -> None:
    """``simulate_bank_sleep`` == :func:`bank_sleep`."""
    bank_bases = [sum(bank_sizes[:index]) for index in range(len(bank_sizes))]
    want = bank_sleep(bank_sizes, bank_bases, trace, policy)
    for label, engine_input in inputs:
        got = simulate_bank_sleep(bank_sizes, bank_bases, engine_input, policy)
        assert got == want, label
        assert got.leakage_saving == want.leakage_saving, label


def check_profile(trace: Trace, inputs: list, windows=(2, 3, 8, 16, 200)) -> None:
    """``AccessProfile`` stats, dict order and affinity items == the oracles."""
    sequence, stats = profile(trace, 32)
    want_stats = [
        (block, entry.reads, entry.writes, entry.first_time, entry.last_time)
        for block, entry in stats.items()
    ]
    want_affinity = {window: list(affinity(sequence, window).items()) for window in windows}
    for label, engine_input in inputs:
        got = AccessProfile(engine_input, block_size=32)
        assert got.block_sequence == sequence, label
        # Dict order is part of the contract: clustering breaks ties on it.
        assert [
            (block, entry.reads, entry.writes, entry.first_time, entry.last_time)
            for block, entry in got._stats.items()
        ] == want_stats, label
        for window, items in want_affinity.items():
            assert list(got.affinity_matrix(window).items()) == items, (label, window)


def check_stats(trace: Trace, inputs: list) -> None:
    """``repro.trace.stats`` == the oracles, ranks and dict order included."""
    for label, engine_input in inputs:
        assert stride_histogram(engine_input) == stride_ranking(trace), label
        assert stride_histogram(engine_input, top=2) == stride_ranking(trace, 2), label
        assert address_entropy(engine_input, 32) == entropy(trace, 32), label
        for region_size in (64, 256):
            assert list(region_transition_matrix(engine_input, region_size).items()) == list(
                region_transitions(trace, region_size).items()
            ), (label, region_size)


def check_spm(trace: Trace, allocator: SPMAllocator, inputs: list) -> None:
    """``SPMAllocator.allocate`` == :func:`spm_top_k` over the oracle profile."""
    _sequence, stats = profile(trace, 32)
    counts = {block: entry.total for block, entry in stats.items()}
    want_blocks, want_benefit = spm_top_k(allocator, counts, 32)
    for label, engine_input in inputs:
        got = allocator.allocate(AccessProfile(engine_input, block_size=32))
        assert got.blocks == want_blocks, label
        assert got.predicted_benefit == want_benefit, label


def check_application(trace: Trace, inputs: list, window_events: int) -> None:
    """``trace_to_application`` == :func:`application` (or both raise)."""
    arguments = dict(window_events=window_events, region_bytes=128, num_contexts=3)
    if not len(trace.data_accesses()):
        for label, engine_input in inputs:
            try:
                trace_to_application(engine_input, **arguments)
            except ValueError:
                continue
            raise AssertionError(f"{label}: accepted a trace with no data accesses")
        return
    want = application(trace, **arguments)
    for label, engine_input in inputs:
        got = trace_to_application(engine_input, **arguments)
        assert got.kernels == want.kernels, label


def check_knapsack(items: list[tuple[str, int, float]], capacity: int) -> None:
    """``EnergyAwareScheduler._knapsack`` == :func:`knapsack`."""
    assert EnergyAwareScheduler._knapsack(items, capacity) == knapsack(items, capacity)
