"""Property-based equivalence: scalar oracles vs the chunked kernels, in memory.

Every playback layer runs one kernel over the chunk protocol; the scalar
forms it replaced live in :mod:`tests.oracles`.  The contract is *exact*
agreement — bit-identical energy totals, identical per-bank counts,
identical sleep accounting, identical dict and rank order — on any trace,
including empty traces and single-bank memories, whether the kernel is
handed a :class:`Trace` or a :class:`ColumnarTrace`.  Streamed store
inputs are covered by ``tests/test_properties_store.py``.  Hypothesis
searches for counterexamples.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import AccessOutsideMemoryError, PartitionedMemory, SleepPolicy
from repro.partition import PartitionSpec
from repro.partition.evaluate import build_memory, simulate_partition
from repro.spm import SPMAllocator, SPMConfig
from repro.trace import AccessKind, MemoryAccess, Trace
from repro.trace.profile import AccessProfile

from . import oracles

BANK_BYTES = 256

# One event: (offset within the memory, is_write, timestamp gap to previous).
event_strategy = st.tuples(
    st.integers(min_value=0, max_value=4 * BANK_BYTES - 4),
    st.booleans(),
    st.integers(min_value=0, max_value=500),
)

trace_strategy = st.tuples(
    st.integers(min_value=1, max_value=4),  # number of banks
    st.lists(event_strategy, min_size=0, max_size=120),
)


def build_case(case) -> tuple[list[int], Trace]:
    """Materialize a generated case as (bank_sizes, in-range trace)."""
    num_banks, raw_events = case
    total_bytes = num_banks * BANK_BYTES
    events = []
    time = 0
    for offset, is_write, gap in raw_events:
        time += gap
        events.append(
            MemoryAccess(
                time=time,
                address=offset % total_bytes,
                kind=AccessKind.WRITE if is_write else AccessKind.READ,
            )
        )
    return [BANK_BYTES] * num_banks, Trace(events, name="prop")


@settings(max_examples=200, deadline=None)
@given(trace_strategy)
def test_play_scalar_and_vectorized_agree_exactly(case):
    bank_sizes, trace = build_case(case)
    oracles.check_play(bank_sizes, trace, oracles.engine_inputs(trace))


@settings(max_examples=100, deadline=None)
@given(trace_strategy, st.data())
def test_play_rejects_an_outside_address_and_leaves_counters_reset(case, data):
    bank_sizes, trace = build_case(case)
    position = data.draw(st.integers(min_value=0, max_value=len(trace)))
    outside = sum(bank_sizes) + data.draw(st.integers(min_value=0, max_value=64))
    events = list(trace)
    time = events[position - 1].time if position else 0
    events.insert(position, MemoryAccess(time=time, address=outside))
    bad = Trace(events, name="outside")
    with pytest.raises(AccessOutsideMemoryError) as expected:
        oracles.play(PartitionedMemory(bank_sizes), bad)
    for label, engine_input in oracles.engine_inputs(bad):
        memory = PartitionedMemory(bank_sizes)
        memory.play(trace)  # leave counters from an earlier, valid play
        with pytest.raises(AccessOutsideMemoryError) as raised:
            memory.play(engine_input)
        assert str(raised.value) == str(expected.value), label
        assert memory.bank_access_counts() == [0] * len(bank_sizes), label
        assert memory.decoder_energy == 0.0, label


@settings(max_examples=200, deadline=None)
@given(trace_strategy, st.integers(min_value=0, max_value=300))
def test_bank_sleep_scalar_and_columnar_agree_exactly(case, timeout_cycles):
    bank_sizes, trace = build_case(case)
    policy = SleepPolicy(timeout_cycles=timeout_cycles)
    oracles.check_sleep(bank_sizes, trace, policy, oracles.engine_inputs(trace))


@settings(max_examples=150, deadline=None)
@given(trace_strategy)
def test_profile_scalar_and_columnar_agree_exactly(case):
    _bank_sizes, trace = build_case(case)
    oracles.check_profile(trace, oracles.engine_inputs(trace))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=12), min_size=2, max_size=150),
    st.sampled_from([2, 3, 8, 16]),
)
def test_affinity_vectorized_matches_scalar_on_dense_reuse(blocks, window):
    # Few distinct blocks: pairs recur across many offsets, which exercises
    # the merge of counts and first-encounter ranks between offsets.
    trace = Trace(
        [MemoryAccess(time=index, address=block * 32) for index, block in enumerate(blocks)],
        name="dense",
    )
    profile = AccessProfile(trace, block_size=32)
    assert list(profile.affinity_matrix(window).items()) == list(
        oracles.affinity(profile.block_sequence, window).items()
    )


def test_affinity_of_a_single_block_sequence_is_empty():
    trace = Trace([MemoryAccess(time=index, address=64) for index in range(50)], name="one")
    assert AccessProfile(trace, block_size=32).affinity_matrix(8) == {}


@settings(max_examples=150, deadline=None)
@given(trace_strategy)
def test_stats_match_the_oracles(case):
    _bank_sizes, trace = build_case(case)
    oracles.check_stats(trace, oracles.engine_inputs(trace))


@settings(max_examples=100, deadline=None)
@given(
    trace_strategy,
    st.sampled_from([32, 96, 256, 2048]),
    st.sampled_from([5.0, 12.0, 50.0]),
)
def test_spm_top_k_matches_the_oracle(case, spm_bytes, cache_path_energy):
    _bank_sizes, trace = build_case(case)
    allocator = SPMAllocator(SPMConfig(size=spm_bytes), cache_path_energy=cache_path_energy)
    oracles.check_spm(trace, allocator, oracles.engine_inputs(trace))


@settings(max_examples=100, deadline=None)
@given(trace_strategy, st.sampled_from([1, 5, 16, 500]))
def test_trace_to_application_matches_the_oracle(case, window_events):
    _bank_sizes, trace = build_case(case)
    oracles.check_application(trace, oracles.engine_inputs(trace), window_events)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=600),  # size in bytes
            st.floats(min_value=0.5, max_value=1000.0, allow_nan=False),
        ),
        max_size=8,
    ),
    st.sampled_from([0, 16, 100, 256, 1024]),
)
def test_knapsack_matches_the_oracle(raw_items, capacity):
    items = [(f"ds{index}", size, value) for index, (size, value) in enumerate(raw_items)]
    oracles.check_knapsack(items, capacity)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
    # (block, byte within it): block starts land on bank edges often.
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=100), st.sampled_from([0, 4, 28])),
        max_size=60,
    ),
)
def test_rounded_partition_translation_matches_the_oracle(bank_blocks, accesses):
    spec = PartitionSpec(block_size=32, bank_blocks=tuple(bank_blocks), round_pow2=True)
    exact_edges = [0]
    for blocks in spec.bank_blocks:
        exact_edges.append(exact_edges[-1] + blocks * spec.block_size)
    physical_bases = [bank.base for bank in build_memory(spec).banks]
    total_blocks = sum(spec.bank_blocks)
    trace = Trace(
        [
            MemoryAccess(time=index, address=(block % total_blocks) * 32 + byte)
            for index, (block, byte) in enumerate(accesses)
        ],
        name="layout",
    )
    translated = trace.remap(
        lambda address: oracles.translate(exact_edges, physical_bases, address)
    )
    reference = build_memory(spec)
    want = oracles.play(reference, translated, include_leakage=True)
    for label, engine_input in oracles.engine_inputs(trace):
        got = simulate_partition(spec, engine_input, include_leakage=True)
        assert got.bank_access_counts == tuple(reference.bank_access_counts()), label
        assert (got.bank_energy, got.decoder_energy, got.leakage_energy) == (
            want.bank_energy,
            want.decoder_energy,
            want.leakage_energy,
        ), label
