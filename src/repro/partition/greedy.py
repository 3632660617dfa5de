"""Greedy and even-split partitioners (baselines for the DP partitioner)."""

from __future__ import annotations

import numpy as np

from .cost import PartitionCostModel
from .optimal import PartitionResult
from .spec import PartitionSpec

__all__ = ["GreedyPartitioner", "EvenPartitioner"]


class EvenPartitioner:
    """Splits the layout into ``num_banks`` equal-sized banks.

    The dumbest possible multi-bank design; it captures the "just bank it"
    folklore the papers improve upon.
    """

    def __init__(self, num_banks: int) -> None:
        if num_banks <= 0:
            raise ValueError(f"num_banks must be positive, got {num_banks}")
        self.num_banks = num_banks

    def partition(self, cost_model: PartitionCostModel) -> PartitionResult:
        """Produce the even split (bank count clamped to the block count)."""
        n = cost_model.num_blocks
        k = min(self.num_banks, n)
        base, remainder = divmod(n, k)
        bank_blocks = tuple(base + (1 if index < remainder else 0) for index in range(k))
        spec = PartitionSpec(
            block_size=cost_model.block_size,
            bank_blocks=bank_blocks,
            round_pow2=cost_model.round_pow2,
        )
        return PartitionResult(
            spec=spec, predicted_energy=cost_model.partition_cost(spec), num_banks=k
        )


class GreedyPartitioner:
    """Recursive best-split partitioner.

    Starts from a single bank and repeatedly splits the segment whose split
    yields the largest energy reduction (scanning all cut points inside the
    segment), until either no split helps or ``max_banks`` is reached.  Much
    faster than the DP and usually close; the E1 bench quantifies the gap.
    """

    def __init__(self, max_banks: int = 8, scan_stride: int = 1) -> None:
        if max_banks <= 0:
            raise ValueError(f"max_banks must be positive, got {max_banks}")
        if scan_stride <= 0:
            raise ValueError(f"scan_stride must be positive, got {scan_stride}")
        self.max_banks = max_banks
        self.scan_stride = scan_stride

    def partition(self, cost_model: PartitionCostModel) -> PartitionResult:
        """Run the greedy split loop."""
        segments: list[tuple[int, int]] = [(0, cost_model.num_blocks)]
        bank_pj = {(0, cost_model.num_blocks): cost_model.segment_cost(0, cost_model.num_blocks)}

        def best_split(start: int, end: int) -> tuple[float, int] | None:
            if end - start < 2:
                return None
            cuts = np.arange(start + 1, end, self.scan_stride)
            split_pj = cost_model.segment_costs(start, cuts) + cost_model.segment_costs(cuts, end)
            gain_pj = bank_pj[(start, end)] - split_pj
            # argmax keeps the first of equal gains, as a strict-> scan would.
            best = int(np.argmax(gain_pj))
            if not gain_pj[best] > 0.0:
                return None
            return float(gain_pj[best]), int(cuts[best])

        while len(segments) < self.max_banks:
            k = len(segments)
            decoder_delta_pj = cost_model.decoder_cost(k + 1) - cost_model.decoder_cost(k)
            best = None  # (net_gain, segment_index, cut)
            for index, (start, end) in enumerate(segments):
                candidate = best_split(start, end)
                if candidate is None:
                    continue
                gain_pj, cut = candidate
                net_pj = gain_pj - decoder_delta_pj
                if net_pj > 0 and (best is None or net_pj > best[0]):
                    best = (net_pj, index, cut)
            if best is None:
                break
            _, index, cut = best
            start, end = segments.pop(index)
            del bank_pj[(start, end)]
            for piece in ((start, cut), (cut, end)):
                segments.insert(index, piece)
                bank_pj[piece] = cost_model.segment_cost(*piece)
                index += 1
            segments.sort()

        segments.sort()
        bank_blocks = tuple(end - start for start, end in segments)
        spec = PartitionSpec(
            block_size=cost_model.block_size,
            bank_blocks=bank_blocks,
            round_pow2=cost_model.round_pow2,
        )
        return PartitionResult(
            spec=spec,
            predicted_energy=cost_model.partition_cost(spec),
            num_banks=len(bank_blocks),
        )
