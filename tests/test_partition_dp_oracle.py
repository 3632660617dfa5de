"""Scalar reference oracles for the partitioners and the segment-cost row form.

``OptimalPartitioner.partition`` fills its segment matrix through
:meth:`PartitionCostModel.segment_costs` and runs the recurrence as array
operations.  The oracle below is the scalar form they replaced: one
``segment_cost`` per pair of cell boundaries, priced with the SRAM model
on every call, and a strict-``<`` scan per DP cell.  Both must agree
exactly — equal specs, equal bank counts and ``==`` energies — including
on tie-heavy inputs, where the first-minimum tie-break decides the cut.
The greedy partitioner's cut scan is checked the same way against a
strict-``>`` scalar scan.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition import (
    GreedyPartitioner,
    OptimalPartitioner,
    PartitionCostModel,
    PartitionSpec,
)
from repro.partition.optimal import PartitionResult, _coalesce


def reference_segment_cost(model: PartitionCostModel, start: int, end: int) -> float:
    """The scalar segment-cost formula, pricing the bank on every call."""
    size = (end - start) * model.block_size
    if model.round_pow2:
        size = 1 << (size - 1).bit_length()
    reads = int(np.sum(model.reads[start:end]))
    writes = int(np.sum(model.writes[start:end]))
    dynamic_pj = reads * model.sram_model.read_energy(size) + writes * model.sram_model.write_energy(
        size
    )
    if model.leakage_cycles:
        dynamic_pj += model.sram_model.leakage_energy(size, model.leakage_cycles)
    return dynamic_pj


def reference_partition(
    partitioner: OptimalPartitioner, model: PartitionCostModel, num_banks: int | None = None
) -> PartitionResult:
    """The scalar O(n²·k) DP: a double loop of segment costs, a strict-< scan."""
    cells = _coalesce(model.num_blocks, partitioner.max_dp_cells)
    cell_edges = np.concatenate([[0], np.cumsum(cells)])
    n = len(cells)
    segment = np.empty((n + 1, n + 1))
    for i in range(n):
        for j in range(i + 1, n + 1):
            segment[i][j] = reference_segment_cost(model, int(cell_edges[i]), int(cell_edges[j]))

    bank_counts = [num_banks] if num_banks is not None else list(range(1, partitioner.max_banks + 1))
    max_k = max(bank_counts)
    if max_k > n:
        bank_counts = [k for k in bank_counts if k <= n] or [n]
        max_k = max(bank_counts)

    INF = float("inf")
    dp = np.full((max_k + 1, n + 1), INF)
    choice = np.zeros((max_k + 1, n + 1), dtype=np.int64)
    dp[0][0] = 0.0
    for m in range(1, max_k + 1):
        for j in range(m, n + 1):
            best, best_i = INF, m - 1
            for i in range(m - 1, j):
                candidate = dp[m - 1][i] + segment[i][j]
                if candidate < best:
                    best, best_i = candidate, i
            dp[m][j] = best
            choice[m][j] = best_i

    best_result = None
    for k in bank_counts:
        if dp[k][n] == INF:
            continue
        total_pj = dp[k][n] + model.decoder_cost(k)
        if best_result is None or total_pj < best_result.predicted_energy:
            edges_cells = [n]
            j = n
            for m in range(k, 0, -1):
                j = int(choice[m][j])
                edges_cells.append(j)
            edges_cells.reverse()
            spec = PartitionSpec(
                block_size=model.block_size,
                bank_blocks=tuple(
                    int(cell_edges[edges_cells[index + 1]] - cell_edges[edges_cells[index]])
                    for index in range(k)
                ),
                round_pow2=model.round_pow2,
            )
            best_result = PartitionResult(spec=spec, predicted_energy=total_pj, num_banks=k)
    assert best_result is not None
    return best_result


def reference_best_split(
    model: PartitionCostModel, start: int, end: int, current_pj: float, stride: int
) -> tuple[float, int] | None:
    """The greedy partitioner's scalar cut scan: first cut with the largest gain."""
    best_gain_pj, best_cut = 0.0, -1
    for cut in range(start + 1, end, stride):
        split_pj = reference_segment_cost(model, start, cut) + reference_segment_cost(model, cut, end)
        gain_pj = current_pj - split_pj
        if gain_pj > best_gain_pj:
            best_gain_pj, best_cut = gain_pj, cut
    if best_cut < 0:
        return None
    return best_gain_pj, best_cut


def assert_same_result(actual: PartitionResult, expected: PartitionResult) -> None:
    assert actual.spec == expected.spec
    assert actual.num_banks == expected.num_banks
    assert actual.predicted_energy == expected.predicted_energy


# Counts drawn from a small range repeat often, which makes equal-cost cuts
# (ties) common; the "constant" and "zero" shapes force them outright.
counts_strategy = st.one_of(
    st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=40),
    st.lists(st.integers(min_value=0, max_value=5000), min_size=1, max_size=40),
    st.integers(min_value=1, max_value=40).map(lambda n: [0] * n),
    st.tuples(st.integers(min_value=1, max_value=40), st.integers(0, 100)).map(
        lambda case: [case[1]] * case[0]
    ),
)

model_strategy = st.builds(
    lambda reads, write_shift, block_size, round_pow2, leakage_cycles: PartitionCostModel(
        reads=reads,
        writes=reads[write_shift % len(reads) :] + reads[: write_shift % len(reads)],
        block_size=block_size,
        round_pow2=round_pow2,
        leakage_cycles=leakage_cycles,
    ),
    counts_strategy,
    st.integers(min_value=0, max_value=7),
    st.sampled_from([4, 24, 32, 64]),
    st.booleans(),
    st.sampled_from([0, 0, 1000, 123457]),
)


@settings(max_examples=150, deadline=None)
@given(
    model_strategy,
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=30),
)
def test_partition_matches_scalar_oracle(model, max_banks, extra_cells):
    # max_dp_cells below num_blocks coalesces; above it, one cell per block.
    max_dp_cells = max(max_banks, model.num_blocks // 2 + extra_cells)
    partitioner = OptimalPartitioner(max_banks=max_banks, max_dp_cells=max_dp_cells)
    assert_same_result(partitioner.partition(model), reference_partition(partitioner, model))


@settings(max_examples=100, deadline=None)
@given(model_strategy, st.integers(min_value=1, max_value=12))
def test_partition_with_explicit_bank_count_matches_scalar_oracle(model, num_banks):
    partitioner = OptimalPartitioner(max_banks=8, max_dp_cells=16)
    assert_same_result(
        partitioner.partition(model, num_banks=num_banks),
        reference_partition(partitioner, model, num_banks=num_banks),
    )


@settings(max_examples=150, deadline=None)
@given(model_strategy, st.data())
def test_segment_costs_row_equals_scalar_calls(model, data):
    start = data.draw(st.integers(min_value=0, max_value=model.num_blocks - 1))
    ends = np.arange(start + 1, model.num_blocks + 1)
    row = model.segment_costs(start, ends)
    assert row.tolist() == [model.segment_cost(start, int(end)) for end in ends]
    assert row.tolist() == [reference_segment_cost(model, start, int(end)) for end in ends]


@pytest.mark.parametrize("counts", [[0] * 12, [7] * 12])
@pytest.mark.parametrize("round_pow2", [False, True])
def test_tie_heavy_counts_take_the_first_minimum(counts, round_pow2):
    model = PartitionCostModel(reads=counts, writes=counts, block_size=32, round_pow2=round_pow2)
    partitioner = OptimalPartitioner(max_banks=4, max_dp_cells=12)
    assert_same_result(partitioner.partition(model), reference_partition(partitioner, model))


def test_fewer_blocks_than_max_banks():
    model = PartitionCostModel(reads=[90, 1, 40], writes=[3, 0, 9], block_size=32)
    partitioner = OptimalPartitioner(max_banks=8)
    result = partitioner.partition(model)
    assert result.num_banks <= 3
    assert_same_result(result, reference_partition(partitioner, model))


def test_coalesced_layout_matches_oracle_at_scale():
    rng = np.random.default_rng(7)
    reads = rng.integers(0, 400, size=300)
    writes = rng.integers(0, 100, size=300)
    model = PartitionCostModel(reads=reads, writes=writes, block_size=32, round_pow2=True)
    partitioner = OptimalPartitioner(max_banks=6, max_dp_cells=64)
    assert_same_result(partitioner.partition(model), reference_partition(partitioner, model))


def test_segment_costs_rejects_bad_segments():
    model = PartitionCostModel(reads=[1, 2, 3], writes=[0, 0, 1], block_size=32)
    with pytest.raises(ValueError, match=r"bad segment \[1, 1\)"):
        model.segment_costs(1, [3, 1])
    with pytest.raises(ValueError, match=r"bad segment \[0, 4\)"):
        model.segment_costs(0, np.array([2, 4]))


@settings(max_examples=150, deadline=None)
@given(model_strategy, st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=3))
def test_greedy_matches_scalar_split_scan(model, max_banks, stride):
    result = GreedyPartitioner(max_banks=max_banks, scan_stride=stride).partition(model)
    # Replay the greedy loop with the scalar scan.
    segments = [(0, model.num_blocks)]
    while len(segments) < max_banks:
        k = len(segments)
        decoder_delta_pj = model.decoder_cost(k + 1) - model.decoder_cost(k)
        best = None
        for index, (start, end) in enumerate(segments):
            if end - start < 2:
                continue
            current_pj = reference_segment_cost(model, start, end)
            candidate = reference_best_split(model, start, end, current_pj, stride)
            if candidate is None:
                continue
            net_pj = candidate[0] - decoder_delta_pj
            if net_pj > 0 and (best is None or net_pj > best[0]):
                best = (net_pj, index, candidate[1])
        if best is None:
            break
        _, index, cut = best
        start, end = segments.pop(index)
        segments[index:index] = [(start, cut), (cut, end)]
    assert result.spec.bank_blocks == tuple(end - start for start, end in segments)
