"""Analytic cost model shared by all partitioners.

The partitioners never simulate: they minimize a closed-form energy objective
computed from per-block read/write counts (in layout order) and the SRAM and
decoder energy models.  The evaluator in :mod:`repro.partition.evaluate`
confirms the prediction by actually playing the trace through a
:class:`~repro.memory.PartitionedMemory`; analytic and simulated energies
agree exactly by construction (same models), which is itself asserted in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..memory.energy import DecoderEnergyModel, SRAMEnergyModel
from ..units import pj_to_nj
from .spec import PartitionSpec

__all__ = ["PartitionCostModel"]


@dataclass
class PartitionCostModel:
    """Energy objective for a candidate partition.

    Parameters
    ----------
    reads, writes:
        Per-block read/write counts in **layout order** (position ``i`` is the
        ``i``-th block of the linearized layout the partition divides).
    block_size:
        Block granularity in bytes.
    sram_model, decoder_model:
        The energy models; must match whatever the evaluator uses.
    round_pow2:
        Whether bank capacities are rounded up to powers of two when pricing
        accesses (kept in sync with :class:`PartitionSpec.round_pow2`).
    leakage_cycles:
        When non-zero, every segment is additionally charged the leakage of
        its (possibly rounded) capacity over this many cycles.  With exact
        sizing the total capacity — hence total leakage — is
        partition-invariant; the term matters when ``round_pow2`` wastes
        capacity, steering the optimizer toward power-of-two-friendly cuts
        (the leakage-aware extension called out in DESIGN.md).
    """

    reads: np.ndarray
    writes: np.ndarray
    block_size: int
    sram_model: SRAMEnergyModel = field(default_factory=SRAMEnergyModel)
    decoder_model: DecoderEnergyModel = field(default_factory=DecoderEnergyModel)
    round_pow2: bool = False
    leakage_cycles: int = 0

    def __post_init__(self) -> None:
        self.reads = np.asarray(self.reads, dtype=np.int64)
        self.writes = np.asarray(self.writes, dtype=np.int64)
        if self.reads.shape != self.writes.shape:
            raise ValueError(
                f"reads {self.reads.shape} and writes {self.writes.shape} "
                f"must have the same length"
            )
        if self.block_size <= 0:
            raise ValueError(f"block_size must be positive, got {self.block_size}")
        self._read_prefix = np.concatenate([[0], np.cumsum(self.reads)])
        self._write_prefix = np.concatenate([[0], np.cumsum(self.writes)])
        self._energy_table: np.ndarray | None = None

    @property
    def num_blocks(self) -> int:
        """Number of blocks in the layout."""
        return len(self.reads)

    @property
    def total_accesses(self) -> int:
        """Total accesses across all blocks."""
        return int(self._read_prefix[-1] + self._write_prefix[-1])

    def _bank_capacity(self, num_blocks: int) -> int:
        size = num_blocks * self.block_size
        if self.round_pow2:
            size = 1 << (size - 1).bit_length()
        return size

    def _bank_energies(self, lengths: np.ndarray) -> np.ndarray:
        """Per-access read/write energy and leakage (pJ) of banks ``lengths`` blocks long.

        Returns a ``(3, *lengths.shape)`` array.  Each distinct length is priced
        once with the scalar SRAM model and kept in a table indexed by length
        (NaN marks a length not priced yet), so a DP that asks for every
        segment still calls the model at most ``num_blocks`` times.
        """
        if self._energy_table is None:
            self._energy_table = np.full((3, self.num_blocks + 1), np.nan)
        table = self._energy_table
        energies = table.take(lengths, axis=1)
        unpriced = np.isnan(energies[0])
        if unpriced.any():
            for length in set(lengths[unpriced].tolist()):
                capacity = self._bank_capacity(length)
                table[0, length] = self.sram_model.read_energy(capacity)
                table[1, length] = self.sram_model.write_energy(capacity)
                if self.leakage_cycles:
                    table[2, length] = self.sram_model.leakage_energy(
                        capacity, self.leakage_cycles
                    )
            energies = table.take(lengths, axis=1)
        return energies

    def segment_costs(self, start, ends) -> np.ndarray:
        """Energies (pJ) of serving blocks ``[start, end)`` from one bank, per ``end``.

        The row form of :meth:`segment_cost`: ``start`` and ``ends`` are
        integers or integer arrays that broadcast against each other.  The
        arithmetic is the scalar formula's float64 operations in the same
        order, so every element equals the corresponding scalar call exactly.
        """
        starts = np.asarray(start, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        bad = (starts < 0) | (starts >= ends) | (ends > self.num_blocks)
        if bad.any():
            first = int(np.argmax(bad))
            starts, ends = np.broadcast_arrays(starts, ends)
            raise ValueError(f"bad segment [{starts.flat[first]}, {ends.flat[first]})")
        e_read, e_write, leakage = self._bank_energies(ends - starts)
        reads = self._read_prefix[ends] - self._read_prefix[starts]
        writes = self._write_prefix[ends] - self._write_prefix[starts]
        costs = reads * e_read + writes * e_write
        if self.leakage_cycles:
            costs += leakage
        return costs

    def segment_cost(self, start: int, end: int) -> float:
        """Energy (pJ) of serving all accesses to blocks ``[start, end)`` from one bank."""
        return float(self.segment_costs(start, end))

    def decoder_cost(self, num_banks: int) -> float:
        """Total decoder energy (pJ): every access pays the selection overhead."""
        return self.total_accesses * self.decoder_model.access_energy(num_banks)

    def partition_cost(self, spec: PartitionSpec) -> float:
        """Total energy (pJ) of a partition: bank accesses + decoder."""
        if spec.total_blocks != self.num_blocks:
            raise ValueError(
                f"spec covers {spec.total_blocks} blocks, cost model has {self.num_blocks}"
            )
        edges = spec.boundaries()
        bank_pj = sum(
            self.segment_cost(edges[index], edges[index + 1]) for index in range(spec.num_banks)
        )
        return bank_pj + self.decoder_cost(spec.num_banks)

    def monolithic_cost(self) -> float:
        """Energy (pJ) of the single-bank baseline (no decoder overhead)."""
        return self.segment_cost(0, self.num_blocks)

    def partition_cost_nj(self, spec: PartitionSpec) -> float:
        """:meth:`partition_cost` in nanojoules (for report tables)."""
        return pj_to_nj(self.partition_cost(spec))
