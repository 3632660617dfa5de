"""Property-based equivalence: scalar oracles vs the kernels, streamed.

The trace store's playback contract is *exact*: replaying a packed trace
chunk-by-chunk (any chunk size — one event per chunk, chunks straddling
idle intervals, one chunk holding the whole trace) produces the same
reports as the scalar oracles of :mod:`tests.oracles` on the in-memory
trace, at every playback layer (partitioned play, bank sleep, access
profile and affinity, stream statistics, SPM top-k, reconfig windowing).
Every case replays at chunk sizes 1, 7, ``len`` and ``len + 1`` plus one
drawn size; drawn sizes overshoot the trace length so the single-chunk
case is exercised alongside chunk=1.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import SleepPolicy
from repro.spm import SPMAllocator, SPMConfig
from repro.trace import AccessKind, MemoryAccess, Trace
from repro.trace.io import trace_digest
from repro.trace.store import load_store, open_store, save_store, store_digest

from . import oracles

BANK_BYTES = 256

# One event: (offset, is_write, timestamp gap, size, optional value payload).
event_strategy = st.tuples(
    st.integers(min_value=0, max_value=4 * BANK_BYTES - 8),
    st.booleans(),
    st.integers(min_value=0, max_value=500),
    st.sampled_from([1, 2, 4, 8]),
    st.one_of(st.none(), st.integers(min_value=-(2**31), max_value=2**31)),
)

trace_strategy = st.tuples(
    st.integers(min_value=1, max_value=4),  # number of banks
    st.lists(event_strategy, min_size=0, max_size=120),
    st.booleans(),  # carry value payloads at all
)

#: Chunk sizes deliberately overshoot the maximum trace length (120), so
#: the whole-trace-in-one-chunk case is drawn as often as chunk=1.
chunk_strategy = st.integers(min_value=1, max_value=300)


def build_case(case) -> tuple[list[int], Trace]:
    """Materialize a generated case as (bank_sizes, in-range trace)."""
    num_banks, raw_events, with_values, = case
    total_bytes = num_banks * BANK_BYTES
    events = []
    time = 0
    for offset, is_write, gap, size, value in raw_events:
        time += gap
        events.append(
            MemoryAccess(
                time=time,
                address=offset % total_bytes,
                size=size,
                kind=AccessKind.WRITE if is_write else AccessKind.READ,
                value=value if with_values else None,
            )
        )
    return [BANK_BYTES] * num_banks, Trace(events, name="prop")


def packed(tmp_path_factory, trace: Trace, chunk_size: int):
    """Pack ``trace`` into a fresh store; return its path."""
    root = tmp_path_factory.mktemp("store")
    return save_store(trace, root / "prop.tstore", chunk_size=chunk_size)


@settings(max_examples=150, deadline=None)
@given(trace_strategy, chunk_strategy)
def test_round_trip_is_bit_identical(tmp_path_factory, case, chunk_size):
    _bank_sizes, trace = build_case(case)
    path = packed(tmp_path_factory, trace, chunk_size)
    loaded = load_store(path, verify=True)
    assert len(loaded) == len(trace)
    for want, got in zip(trace, loaded.to_trace()):
        assert want == got
    assert store_digest(path) == trace_digest(trace)


def streamed_inputs(tmp_path_factory, trace: Trace, chunk_size: int) -> list:
    """The trace packed at the drawn chunk size, replayed at that size and
    at every :func:`tests.oracles.chunk_sizes` size."""
    path = packed(tmp_path_factory, trace, chunk_size)
    return oracles.streamed_views(path, (chunk_size, *oracles.chunk_sizes(trace)))


@settings(max_examples=150, deadline=None)
@given(trace_strategy, chunk_strategy)
def test_play_three_way_identical(tmp_path_factory, case, chunk_size):
    bank_sizes, trace = build_case(case)
    inputs = streamed_inputs(tmp_path_factory, trace, chunk_size)
    oracles.check_play(bank_sizes, trace, inputs)


@settings(max_examples=150, deadline=None)
@given(trace_strategy, chunk_strategy, st.integers(min_value=0, max_value=300))
def test_bank_sleep_three_way_identical(
    tmp_path_factory, case, chunk_size, timeout_cycles
):
    bank_sizes, trace = build_case(case)
    policy = SleepPolicy(timeout_cycles=timeout_cycles)
    inputs = streamed_inputs(tmp_path_factory, trace, chunk_size)
    oracles.check_sleep(bank_sizes, trace, policy, inputs)


@pytest.mark.parametrize("timeout_cycles", [0, 49, 50, 51])
def test_idle_gap_straddling_a_chunk_boundary(tmp_path, timeout_cycles):
    # Bank 0 is touched by events 0-6 and again by event 7 after a 50-cycle
    # gap; at chunk size 7 that gap is exactly the chunk boundary.  Bank 1
    # is touched only in the second chunk.
    events = [MemoryAccess(time=t, address=4 * t) for t in range(7)]
    events += [
        MemoryAccess(time=56, address=8),
        MemoryAccess(time=57, address=BANK_BYTES),
        MemoryAccess(time=200, address=BANK_BYTES + 4),
    ]
    trace = Trace(events, name="straddle")
    policy = SleepPolicy(timeout_cycles=timeout_cycles)
    inputs = oracles.engine_inputs(trace, tmp_path)
    oracles.check_sleep([BANK_BYTES, BANK_BYTES], trace, policy, inputs)


@settings(max_examples=150, deadline=None)
@given(trace_strategy, chunk_strategy)
def test_profile_three_way_identical(tmp_path_factory, case, chunk_size):
    _bank_sizes, trace = build_case(case)
    inputs = streamed_inputs(tmp_path_factory, trace, chunk_size)
    oracles.check_profile(trace, inputs, windows=(2, 8))


@settings(max_examples=100, deadline=None)
@given(trace_strategy, chunk_strategy)
def test_stats_match_the_oracles_over_streamed_chunks(
    tmp_path_factory, case, chunk_size
):
    _bank_sizes, trace = build_case(case)
    oracles.check_stats(trace, streamed_inputs(tmp_path_factory, trace, chunk_size))


@settings(max_examples=60, deadline=None)
@given(trace_strategy, chunk_strategy, st.sampled_from([64, 512, 4096]))
def test_spm_top_k_matches_the_oracle_over_streamed_chunks(
    tmp_path_factory, case, chunk_size, spm_bytes
):
    _bank_sizes, trace = build_case(case)
    allocator = SPMAllocator(SPMConfig(size=spm_bytes), cache_path_energy=50.0)
    inputs = streamed_inputs(tmp_path_factory, trace, chunk_size)
    oracles.check_spm(trace, allocator, inputs)


@settings(max_examples=60, deadline=None)
@given(trace_strategy, chunk_strategy, st.sampled_from([1, 5, 16, 500]))
def test_trace_to_application_matches_the_oracle_over_streamed_chunks(
    tmp_path_factory, case, chunk_size, window_events
):
    _bank_sizes, trace = build_case(case)
    inputs = streamed_inputs(tmp_path_factory, trace, chunk_size)
    oracles.check_application(trace, inputs, window_events)


@settings(max_examples=60, deadline=None)
@given(trace_strategy, chunk_strategy)
def test_streamed_filters_match_scalar_filters(tmp_path_factory, case, chunk_size):
    _bank_sizes, trace = build_case(case)
    path = packed(tmp_path_factory, trace, chunk_size)
    streamed = open_store(path)
    for view in ("reads", "writes", "data_accesses"):
        expected = getattr(trace, view)()
        actual = getattr(streamed, view)().materialize().to_trace()
        assert len(expected) == len(actual)
        for want, got in zip(expected, actual):
            assert want == got
