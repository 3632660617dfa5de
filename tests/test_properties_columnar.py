"""Property-based equivalence: scalar reference vs vectorized columnar engine.

The columnar engine's contract is *exact* agreement with the scalar
reference — bit-identical energy totals, identical per-bank access counts,
identical sleep accounting — on any trace, including empty traces and
single-bank memories.  Hypothesis searches for counterexamples.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import (
    PartitionedMemory,
    SleepPolicy,
    simulate_bank_sleep_columnar,
    simulate_bank_sleep_scalar,
)
from repro.trace import AccessKind, MemoryAccess, Trace
from repro.trace.profile import AccessProfile

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
    memory_scalar = PartitionedMemory(bank_sizes)
    memory_vector = PartitionedMemory(bank_sizes)
    report_scalar = memory_scalar.play_scalar(trace, include_leakage=True)
    report_vector = memory_vector.play_vectorized(trace.columnar(), include_leakage=True)
    assert report_scalar.total == report_vector.total
    assert report_scalar.bank_energy == report_vector.bank_energy
    assert report_scalar.decoder_energy == report_vector.decoder_energy
    assert report_scalar.leakage_energy == report_vector.leakage_energy
    assert memory_scalar.bank_access_counts() == memory_vector.bank_access_counts()
    assert [(b.reads, b.writes) for b in memory_scalar.banks] == [
        (b.reads, b.writes) for b in memory_vector.banks
    ]


@settings(max_examples=200, deadline=None)
@given(trace_strategy, st.integers(min_value=0, max_value=300))
def test_bank_sleep_scalar_and_columnar_agree_exactly(case, timeout_cycles):
    bank_sizes, trace = build_case(case)
    bank_bases = [i * BANK_BYTES for i in range(len(bank_sizes))]
    policy = SleepPolicy(timeout_cycles=timeout_cycles)
    report_scalar = simulate_bank_sleep_scalar(bank_sizes, bank_bases, trace, policy)
    report_columnar = simulate_bank_sleep_columnar(
        bank_sizes, bank_bases, trace.columnar(), policy
    )
    assert report_scalar == report_columnar
    assert report_scalar.leakage_saving == report_columnar.leakage_saving


@settings(max_examples=150, deadline=None)
@given(trace_strategy)
def test_profile_scalar_and_columnar_agree_exactly(case):
    _bank_sizes, trace = build_case(case)
    scalar = AccessProfile.__new__(AccessProfile)
    scalar.block_size = 32
    scalar.trace = trace
    scalar._stats = {}
    scalar._sequence = []
    scalar._build()
    vectorized = AccessProfile(trace.columnar(), block_size=32)
    assert scalar._sequence == vectorized._sequence
    # Dict order is part of the contract: clustering breaks ties on it.
    assert list(scalar._stats) == list(vectorized._stats)
    for block, stats in scalar._stats.items():
        other = vectorized._stats[block]
        assert (stats.reads, stats.writes, stats.first_time, stats.last_time) == (
            other.reads,
            other.writes,
            other.first_time,
            other.last_time,
        )
    if len(trace) >= 2:
        # Dict order is checked too: clustering breaks affinity ties on it.
        # The last window is longer than any generated sequence.
        for window in (2, 3, 8, 16, 200):
            assert list(vectorized.affinity_matrix(window).items()) == list(
                reference_affinity(scalar._sequence, window).items()
            )


def reference_affinity(sequence: list[int], window: int) -> dict[tuple[int, int], int]:
    """The scalar sliding-window pair count, in first-encounter order."""
    reference: dict[tuple[int, int], int] = {}
    recent: list[int] = []
    for block in sequence:
        for other_block in recent:
            if other_block == block:
                continue
            key = (block, other_block) if block < other_block else (other_block, block)
            reference[key] = reference.get(key, 0) + 1
        recent.append(block)
        if len(recent) > window - 1:
            recent.pop(0)
    return reference


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
    profile = AccessProfile(trace.columnar(), block_size=32)
    assert list(profile.affinity_matrix(window).items()) == list(
        reference_affinity(profile._sequence, window).items()
    )


def test_affinity_of_a_single_block_sequence_is_empty():
    trace = Trace([MemoryAccess(time=index, address=64) for index in range(50)], name="one")
    assert AccessProfile(trace.columnar(), block_size=32).affinity_matrix(8) == {}
