"""Unit tests for the columnar trace representation and its kernels."""

from __future__ import annotations

import numpy as np
import pytest

from repro.memory import AccessOutsideMemoryError, PartitionedMemory
from repro.trace import (
    AccessKind,
    AddressSpace,
    ColumnarTrace,
    MemoryAccess,
    Trace,
)
from repro.trace.columnar import (
    KIND_READ,
    KIND_WRITE,
    SPACE_DATA,
    SPACE_INSTRUCTION,
    assign_banks,
    idle_interval_split,
    per_bank_read_write_counts,
)

from . import oracles


def make_trace() -> Trace:
    events = [
        MemoryAccess(time=0, address=0x100, kind=AccessKind.READ),
        MemoryAccess(time=1, address=0x104, kind=AccessKind.WRITE, value=42),
        MemoryAccess(time=5, address=0x2000, size=8, kind=AccessKind.READ),
        MemoryAccess(
            time=9, address=0x40, kind=AccessKind.READ, space=AddressSpace.INSTRUCTION
        ),
    ]
    return Trace(events, name="mixed")


class TestConversion:
    def test_round_trip_preserves_every_field(self):
        trace = make_trace()
        back = trace.columnar().to_trace()
        assert back.name == trace.name
        assert list(back) == list(trace)

    def test_round_trip_preserves_value_payloads(self):
        trace = make_trace()
        back = trace.columnar().to_trace()
        assert [e.value for e in back] == [None, 42, None, None]

    def test_kind_and_space_encodings_match_enum_order(self):
        columnar = make_trace().columnar()
        assert columnar.kinds.tolist() == [KIND_READ, KIND_WRITE, KIND_READ, KIND_READ]
        assert columnar.spaces.tolist() == [
            SPACE_DATA,
            SPACE_DATA,
            SPACE_DATA,
            SPACE_INSTRUCTION,
        ]

    def test_from_arrays_is_zero_copy_for_int64(self):
        addresses = np.array([0, 4, 8], dtype=np.int64)
        columnar = ColumnarTrace.from_arrays(addresses, np.arange(3, dtype=np.int64))
        assert columnar.addresses is addresses

    def test_from_arrays_defaults(self):
        columnar = ColumnarTrace.from_arrays([0, 4], [0, 1])
        assert columnar.kinds.tolist() == [KIND_READ, KIND_READ]
        assert columnar.sizes.tolist() == [4, 4]

    def test_mismatched_column_lengths_rejected(self):
        with pytest.raises(ValueError, match="column timestamps"):
            ColumnarTrace(
                np.zeros(3, dtype=np.int64),
                np.zeros(2, dtype=np.int64),
                np.zeros(3, dtype=np.uint8),
                np.zeros(3, dtype=np.int64),
            )

    def test_columnar_view_is_cached_and_invalidated(self):
        trace = make_trace()
        first = trace.columnar()
        assert trace.columnar() is first
        trace.append(MemoryAccess(time=10, address=0x108))
        second = trace.columnar()
        assert second is not first
        assert len(second) == len(trace)


class TestViewsAndSummaries:
    def test_space_and_kind_views(self):
        columnar = make_trace().columnar()
        assert len(columnar.data_accesses()) == 3
        assert len(columnar.instruction_accesses()) == 1
        assert len(columnar.reads()) == 3
        assert len(columnar.writes()) == 1

    def test_read_write_counts_match_scalar(self):
        trace = make_trace()
        assert trace.columnar().read_write_counts() == trace.read_write_counts()

    def test_address_range_includes_access_width(self):
        columnar = make_trace().columnar()
        assert columnar.address_range() == (0x40, 0x2008)

    def test_empty_trace_summaries(self):
        empty = Trace(name="empty").columnar()
        assert empty.address_range() == (0, 0)
        assert empty.duration_cycles() == 0
        assert len(empty.to_trace()) == 0

    def test_validate_rejects_time_travel(self):
        columnar = ColumnarTrace.from_arrays([0, 4], [5, 3])
        with pytest.raises(ValueError, match="non-decreasing"):
            columnar.validate()

    def test_validate_rejects_negative_addresses(self):
        columnar = ColumnarTrace.from_arrays([-4, 4], [0, 1])
        with pytest.raises(ValueError, match="non-negative"):
            columnar.validate()


class TestChunkProtocol:
    def test_columnar_trace_is_its_own_single_chunk(self):
        columnar = ColumnarTrace.from_arrays([0, 4], [0, 1])
        assert [chunk is columnar for chunk in columnar.chunks()] == [True]
        assert columnar.map_chunks(lambda chunk: chunk.reads()).addresses.tolist() == [0, 4]

    def test_trace_chunk_is_its_cached_columnar_view(self):
        trace = make_trace()
        (chunk,) = trace.chunks()
        assert chunk is trace.columnar()
        assert trace.map_chunks(lambda view: view) is trace.columnar()


class TestThresholdRouting:
    def test_partitioned_memory_play_routes_both_paths_identically(self):
        # Large enough that it once took the columnar route; every trace now
        # goes through chunks(), and both input forms must match the oracle.
        events = [
            MemoryAccess(time=t, address=(t * 8) % 4096, kind=AccessKind.WRITE if t % 3 else AccessKind.READ)
            for t in range(4096 + 10)
        ]
        trace = Trace(events, name="routed")
        oracles.check_play([2048, 2048], trace, oracles.engine_inputs(trace))


class TestKernels:
    def test_assign_banks_basic(self):
        bases = np.array([0, 100, 300], dtype=np.int64)
        limits = np.array([100, 200, 400], dtype=np.int64)
        addresses = np.array([0, 99, 100, 199, 300, 399], dtype=np.int64)
        assert assign_banks(addresses, bases, limits).tolist() == [0, 0, 1, 1, 2, 2]

    def test_assign_banks_rejects_address_in_gap(self):
        bases = np.array([0, 300], dtype=np.int64)
        limits = np.array([100, 400], dtype=np.int64)
        with pytest.raises(ValueError, match="0xfa"):
            assign_banks(np.array([50, 250], dtype=np.int64), bases, limits)

    def test_assign_banks_rejects_address_below_first_bank(self):
        bases = np.array([100], dtype=np.int64)
        limits = np.array([200], dtype=np.int64)
        with pytest.raises(ValueError, match="outside every bank"):
            assign_banks(np.array([50], dtype=np.int64), bases, limits)

    def test_play_vectorized_wraps_bank_error(self):
        trace = ColumnarTrace.from_arrays([0, 5000], [0, 1])
        with pytest.raises(AccessOutsideMemoryError):
            PartitionedMemory([4096]).play(trace)

    def test_per_bank_read_write_counts(self):
        bank_ids = np.array([0, 0, 1, 2, 2, 2])
        kinds = np.array(
            [KIND_READ, KIND_WRITE, KIND_READ, KIND_WRITE, KIND_WRITE, KIND_READ],
            dtype=np.uint8,
        )
        reads, writes = per_bank_read_write_counts(bank_ids, kinds, 4)
        assert reads.tolist() == [1, 1, 1, 0]
        assert writes.tolist() == [1, 0, 2, 0]

    def test_idle_interval_split(self):
        times = np.array([0, 10, 1000, 1010], dtype=np.int64)
        awake, asleep, wakes = idle_interval_split(times, timeout_cycles=100)
        # Gaps: 10 (awake), 990 (100 awake + 890 asleep + 1 wake), 10 (awake).
        assert (awake, asleep, wakes) == (120, 890, 1)

    def test_idle_interval_split_degenerate(self):
        assert idle_interval_split(np.array([], dtype=np.int64), 100) == (0, 0, 0)
        assert idle_interval_split(np.array([5], dtype=np.int64), 100) == (0, 0, 0)

    def test_idle_interval_split_rejects_negative_timeout(self):
        with pytest.raises(ValueError, match="non-negative"):
            idle_interval_split(np.array([0, 1], dtype=np.int64), -1)
