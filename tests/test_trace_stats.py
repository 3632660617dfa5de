"""Tests for trace stream-structure statistics."""

import math

import pytest

from repro.trace import (
    MemoryAccess,
    StridedSweepGenerator,
    MarkovRegionGenerator,
    Trace,
    address_entropy,
    dominant_stride,
    load_store,
    open_store,
    region_stickiness,
    region_transition_matrix,
    save_store,
    stride_histogram,
)


def trace_of(addresses):
    return Trace([MemoryAccess(time=t, address=a) for t, a in enumerate(addresses)])


class TestStrides:
    def test_sequential_trace_has_dominant_stride(self):
        trace = StridedSweepGenerator(length=100, stride=8, sweeps=1).generate()
        stride, share = dominant_stride(trace)
        assert stride == 8
        assert share == 1.0

    def test_histogram_ordering(self):
        trace = trace_of([0, 4, 8, 12, 100, 104])
        histogram = stride_histogram(trace)
        assert histogram[0] == (4, 4)

    def test_top_truncates(self):
        trace = trace_of([0, 4, 8, 100, 0])
        assert len(stride_histogram(trace, top=1)) == 1

    def test_tiny_traces(self):
        assert dominant_stride(Trace()) == (0, 0.0)
        assert dominant_stride(trace_of([4])) == (0, 0.0)

    def test_negative_strides_counted(self):
        trace = trace_of([100, 96, 92])
        stride, share = dominant_stride(trace)
        assert stride == -4 and share == 1.0


class TestEntropy:
    def test_single_block_is_zero_bits(self):
        trace = trace_of([0, 4, 8] * 10)  # all inside block 0 (32 B)
        assert address_entropy(trace, block_size=32) == 0.0

    def test_uniform_blocks_reach_log2_n(self):
        addresses = [block * 32 for block in range(8)] * 10
        trace = trace_of(addresses)
        assert address_entropy(trace, block_size=32) == pytest.approx(3.0)

    def test_skew_lowers_entropy(self):
        uniform = trace_of([block * 32 for block in range(8)] * 8)
        skewed = trace_of([0] * 56 + [block * 32 for block in range(8)])
        assert address_entropy(skewed, 32) < address_entropy(uniform, 32)

    def test_empty_trace(self):
        assert address_entropy(Trace(), 32) == 0.0

    def test_block_size_validated(self):
        with pytest.raises(ValueError):
            address_entropy(Trace(), 0)


class TestRegions:
    def test_transition_counts(self):
        trace = trace_of([0, 100, 5000, 5100, 0])
        matrix = region_transition_matrix(trace, region_size=4096)
        assert matrix[(0, 0)] == 1
        assert matrix[(0, 1)] == 1
        assert matrix[(1, 1)] == 1
        assert matrix[(1, 0)] == 1

    def test_stickiness_of_sticky_trace(self):
        sticky = MarkovRegionGenerator(stickiness=0.98, accesses=4000, seed=1).generate()
        hoppy = MarkovRegionGenerator(stickiness=0.50, accesses=4000, seed=1).generate()
        assert region_stickiness(sticky, 32 * 1024) > region_stickiness(hoppy, 32 * 1024)

    def test_stickiness_bounds(self):
        assert region_stickiness(Trace()) == 1.0
        trace = trace_of([0, 4, 8])
        assert region_stickiness(trace, 4096) == 1.0

    def test_region_size_validated(self):
        with pytest.raises(ValueError):
            region_transition_matrix(Trace(), 0)


class TestEveryTraceType:
    """The statistics read traces through the chunk protocol, so a streamed
    store view answers exactly like the in-memory trace types."""

    # Strides +4/-4 tie at 3 each and +96/-96 at 1; at 64-byte regions the
    # transitions tie pairwise too, so rank order depends on first encounter.
    ADDRESSES = [0, 4, 0, 4, 100, 96, 100, 96, 0]

    @staticmethod
    def summary(trace):
        return (
            stride_histogram(trace),
            stride_histogram(trace, top=1),
            dominant_stride(trace),
            address_entropy(trace, 32),
            list(region_transition_matrix(trace, 64).items()),
            region_stickiness(trace, 64),
        )

    def test_streamed_store_matches_loaded_and_scalar_traces(self, tmp_path):
        path = save_store(trace_of(self.ADDRESSES), tmp_path / "ties.tstore")
        expected = self.summary(load_store(path))
        assert expected[0] == [(4, 3), (-4, 3), (96, 1), (-96, 1)]
        assert self.summary(load_store(path).to_trace()) == expected
        length = len(self.ADDRESSES)
        for chunk_size in (1, 7, length, length + 5):
            streamed = open_store(path, chunk_size=chunk_size)
            assert self.summary(streamed) == expected, chunk_size
