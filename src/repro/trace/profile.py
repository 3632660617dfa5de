"""Access profiles and locality metrics.

An :class:`AccessProfile` condenses a trace into per-block statistics on a
fixed block granularity: how often each block is read and written, in which
order blocks appear, and how strongly pairs of blocks are correlated in time.
The profile is the input to both the memory partitioner (which needs per-block
access counts) and the address-clustering algorithm (which needs the block
affinity structure).

The locality metrics implemented here follow standard definitions:

* *spatial locality*: fraction of consecutive accesses whose block distance is
  at most one block;
* *temporal locality*: mean inverse reuse distance (a value in ``[0, 1]``,
  higher is better);
* *reuse-distance histogram*: distribution of the number of distinct blocks
  touched between consecutive uses of the same block.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from ..obs.counters import (
    AFFINITY_ENGINE,
    ENGINE_SCALAR,
    ENGINE_STREAMED,
    ENGINE_VECTORIZED,
    PROFILE_BLOCKS,
    PROFILE_ENGINE,
    PROFILE_EVENTS,
)
from ..obs.recorder import Recorder
from .columnar import KIND_WRITE, ColumnarTrace, is_streamed_trace, use_columnar
from .trace import Trace

__all__ = ["BlockStats", "AccessProfile", "reuse_distances"]


@dataclass
class BlockStats:
    """Per-block access statistics."""

    block: int
    reads: int = 0
    writes: int = 0
    first_time: int = 0
    last_time: int = 0

    @property
    def total(self) -> int:
        """Total accesses to the block."""
        return self.reads + self.writes

    @property
    def lifetime(self) -> int:
        """Time between first and last access."""
        return self.last_time - self.first_time


def reuse_distances(block_sequence: list[int]) -> list[int]:
    """LRU stack (reuse) distance for every access in a block sequence.

    The reuse distance of an access is the number of *distinct* blocks touched
    since the previous access to the same block; first-touch accesses get
    distance ``-1`` (conventionally "infinite").

    Implemented with an ordered LRU stack; O(n·d) where ``d`` is the mean
    stack depth — adequate for the trace sizes used in this package.
    """
    stack: OrderedDict[int, None] = OrderedDict()
    distances: list[int] = []
    for block in block_sequence:
        if block in stack:
            # Depth of the block in the LRU stack == reuse distance.
            depth = 0
            for key in reversed(stack):
                if key == block:
                    break
                depth += 1
            distances.append(depth)
            stack.move_to_end(block)
        else:
            distances.append(-1)
            stack[block] = None
    return distances


class AccessProfile:
    """Condensed per-block view of a trace.

    Parameters
    ----------
    trace:
        Source trace (typically data accesses only).
    block_size:
        Granularity in bytes at which addresses are aggregated.  This is the
        unit the partitioner and clustering algorithms move around.
    recorder:
        Optional observability recorder; receives event/block counts and the
        engine path taken (counters only — flushed once, after the build, so
        recording cannot perturb the profile).
    """

    def __init__(
        self,
        trace: Union[Trace, ColumnarTrace],
        block_size: int = 32,
        recorder: Recorder | None = None,
    ) -> None:
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        self.block_size = block_size
        self.trace = trace
        self._recorder = recorder
        self._stats: dict[int, BlockStats] = {}
        self._sequence: list[int] = []
        if is_streamed_trace(trace):
            self._build_streamed(trace)
            engine = ENGINE_STREAMED
        elif use_columnar(trace):
            self._build_columnar(trace.columnar())
            engine = ENGINE_VECTORIZED
        else:
            self._build()
            engine = ENGINE_SCALAR
        if recorder is not None and recorder.enabled:
            recorder.counter(PROFILE_ENGINE, 1, path=engine)
            recorder.counter(PROFILE_EVENTS, self.total_accesses)
            recorder.counter(PROFILE_BLOCKS, self.num_blocks)

    def _build(self) -> None:
        """Reference profile construction: one event at a time."""
        for event in self.trace:
            block = event.block(self.block_size)
            self._sequence.append(block)
            stats = self._stats.get(block)
            if stats is None:
                stats = BlockStats(block=block, first_time=event.time, last_time=event.time)
                self._stats[block] = stats
            if event.is_read:
                stats.reads += 1
            else:
                stats.writes += 1
            stats.last_time = event.time

    def _build_columnar(self, columnar: ColumnarTrace) -> None:
        """Vectorized profile construction over a columnar trace.

        Per-block read/write counts come from one ``bincount`` each;
        first/last access times are recovered from first/last occurrence
        indices.  The stats dict is populated in first-encounter order to
        match the scalar reference exactly (consumers break ties on dict
        order).
        """
        blocks = columnar.block_ids(self.block_size)
        self._sequence = blocks.tolist()
        if not len(blocks):
            return
        unique, first_index, inverse = np.unique(
            blocks, return_index=True, return_inverse=True
        )
        write_mask = columnar.kinds == KIND_WRITE
        writes = np.bincount(inverse[write_mask], minlength=len(unique))
        totals = np.bincount(inverse, minlength=len(unique))
        reads = totals - writes
        last_index = np.empty(len(unique), dtype=np.int64)
        last_index[inverse] = np.arange(len(blocks))
        times = columnar.timestamps
        for position in np.argsort(first_index, kind="stable").tolist():
            block = int(unique[position])
            self._stats[block] = BlockStats(
                block=block,
                reads=int(reads[position]),
                writes=int(writes[position]),
                first_time=int(times[first_index[position]]),
                last_time=int(times[last_index[position]]),
            )

    def _build_streamed(self, trace) -> None:
        """Chunked profile construction over a streamed trace.

        Runs the columnar per-chunk arithmetic (``bincount`` counts,
        first/last occurrence times) and merges chunk results into the
        running stats: blocks already seen add counts and advance
        ``last_time`` in place, unseen blocks are appended in their
        chunk-local first-encounter order — which, chunks arriving in trace
        order, reproduces the scalar reference's global first-encounter
        dict order exactly.
        """
        for chunk in trace.chunks():
            if not len(chunk):
                continue
            blocks = chunk.block_ids(self.block_size)
            self._sequence.extend(blocks.tolist())
            unique, first_index, inverse = np.unique(
                blocks, return_index=True, return_inverse=True
            )
            write_mask = chunk.kinds == KIND_WRITE
            writes = np.bincount(inverse[write_mask], minlength=len(unique))
            totals = np.bincount(inverse, minlength=len(unique))
            reads = totals - writes
            last_index = np.empty(len(unique), dtype=np.int64)
            last_index[inverse] = np.arange(len(blocks))
            times = chunk.timestamps
            for position in np.argsort(first_index, kind="stable").tolist():
                block = int(unique[position])
                stats = self._stats.get(block)
                if stats is None:
                    self._stats[block] = BlockStats(
                        block=block,
                        reads=int(reads[position]),
                        writes=int(writes[position]),
                        first_time=int(times[first_index[position]]),
                        last_time=int(times[last_index[position]]),
                    )
                else:
                    stats.reads += int(reads[position])
                    stats.writes += int(writes[position])
                    stats.last_time = int(times[last_index[position]])

    # -- basic queries ------------------------------------------------------------

    @property
    def blocks(self) -> list[int]:
        """Distinct block indices, sorted ascending."""
        return sorted(self._stats)

    @property
    def block_sequence(self) -> list[int]:
        """Block index of every access, in trace order."""
        return self._sequence

    @property
    def num_blocks(self) -> int:
        """Number of distinct blocks touched."""
        return len(self._stats)

    @property
    def total_accesses(self) -> int:
        """Total number of accesses in the profile."""
        return len(self._sequence)

    def stats(self, block: int) -> BlockStats:
        """Statistics of one block (raises ``KeyError`` for untouched blocks)."""
        return self._stats[block]

    def access_counts(self) -> dict[int, int]:
        """Mapping block index -> total access count."""
        return {block: stats.total for block, stats in self._stats.items()}

    def counts_array(self, blocks: list[int] | None = None) -> np.ndarray:
        """Access counts as an array aligned with ``blocks`` (default: sorted blocks)."""
        order = self.blocks if blocks is None else blocks
        return np.array([self._stats[block].total if block in self._stats else 0 for block in order])

    # -- locality metrics ---------------------------------------------------------

    def spatial_locality(self) -> float:
        """Fraction of consecutive accesses landing within one block of each other."""
        if len(self._sequence) < 2:
            return 1.0
        sequence = np.asarray(self._sequence, dtype=np.int64)
        near = int(np.count_nonzero(np.abs(np.diff(sequence)) <= 1))
        return near / (len(self._sequence) - 1)

    def temporal_locality(self) -> float:
        """Mean of ``1 / (1 + reuse distance)`` over re-referenced accesses.

        Returns 0.0 when no block is ever re-referenced.
        """
        distances = [d for d in reuse_distances(self._sequence) if d >= 0]
        if not distances:
            return 0.0
        return float(np.mean([1.0 / (1.0 + d) for d in distances]))

    def reuse_histogram(self, max_distance: int = 64) -> Counter:
        """Histogram of reuse distances clipped at ``max_distance``.

        First-touch accesses are recorded under key ``-1``.
        """
        histogram: Counter = Counter()
        for distance in reuse_distances(self._sequence):
            histogram[min(distance, max_distance) if distance >= 0 else -1] += 1
        return histogram

    def working_set_size(self, window: int = 1000) -> float:
        """Mean number of distinct blocks per window of ``window`` accesses."""
        if not self._sequence:
            return 0.0
        sizes = []
        for start in range(0, len(self._sequence), window):
            chunk = self._sequence[start : start + window]
            sizes.append(len(set(chunk)))
        return float(np.mean(sizes))

    # -- affinity -----------------------------------------------------------------

    def affinity_matrix(self, window: int = 16) -> dict[tuple[int, int], int]:
        """Block co-occurrence counts within a sliding window.

        For every pair of *distinct* blocks accessed within ``window``
        consecutive events, increment the pair's count.  The result is a
        sparse, symmetric (stored with ``a < b``) affinity map: the raw
        material of address clustering.
        """
        if window <= 1:
            raise ValueError(f"window must be > 1, got {window}")
        recorder = self._recorder
        if len(self._sequence) >= 2 and use_columnar(self.trace):
            if recorder is not None and recorder.enabled:
                recorder.counter(AFFINITY_ENGINE, 1, path=ENGINE_VECTORIZED)
            return self._affinity_matrix_vectorized(window)
        if recorder is not None and recorder.enabled:
            recorder.counter(AFFINITY_ENGINE, 1, path=ENGINE_SCALAR)
        affinity: dict[tuple[int, int], int] = {}
        recent: list[int] = []
        for block in self._sequence:
            for other in recent:
                if other == block:
                    continue
                key = (block, other) if block < other else (other, block)
                affinity[key] = affinity.get(key, 0) + 1
            recent.append(block)
            if len(recent) > window - 1:
                recent.pop(0)
        return affinity

    def _affinity_matrix_vectorized(self, window: int) -> dict[tuple[int, int], int]:
        """Vectorized :meth:`affinity_matrix`.

        Enumerates co-occurring pairs one window *offset* at a time —
        ``window - 1`` array passes instead of a Python inner loop per event.
        Pair counts are exact, and the result dict is populated in the
        scalar reference's first-encounter order (clustering breaks affinity
        ties on dict order, so the order is part of the contract).
        """
        sequence = np.asarray(self._sequence, dtype=np.int64)
        compact, dense = np.unique(sequence, return_inverse=True)
        span = len(compact)
        # Distinct pair keys seen so far, kept sorted, with each key's count
        # and first-encounter rank.  The rank reproduces the scalar insertion
        # order: at event i the reference pairs against the window
        # oldest-first, so rank (i * window - offset) orders first by event,
        # then by descending offset.  Memory stays bounded by the number of
        # distinct pairs, whatever the trace length and window.
        keys = np.empty(0, dtype=np.int64)
        counts = np.empty(0, dtype=np.int64)
        ranks = np.empty(0, dtype=np.int64)
        for offset in range(1, min(window, len(dense))):
            current = dense[offset:]
            previous = dense[:-offset]
            mask = current != previous
            if not np.any(mask):
                continue
            low = np.minimum(current[mask], previous[mask])
            high = np.maximum(current[mask], previous[mask])
            offset_keys, first_index, offset_counts = np.unique(
                low * span + high, return_index=True, return_counts=True
            )
            offset_ranks = (np.flatnonzero(mask)[first_index] + offset) * window - offset
            position = np.searchsorted(keys, offset_keys)
            known = position < len(keys)
            known[known] = keys[position[known]] == offset_keys[known]
            # offset_keys are distinct, so each known position appears once
            # and plain fancy-index updates need no ufunc.at.
            hit = position[known]
            counts[hit] += offset_counts[known]
            ranks[hit] = np.minimum(ranks[hit], offset_ranks[known])
            fresh = ~known
            keys = np.insert(keys, position[fresh], offset_keys[fresh])
            counts = np.insert(counts, position[fresh], offset_counts[fresh])
            ranks = np.insert(ranks, position[fresh], offset_ranks[fresh])
        order = np.argsort(ranks, kind="stable")
        keys = keys[order]
        pairs = zip(compact[keys // span].tolist(), compact[keys % span].tolist())
        return dict(zip(pairs, counts[order].tolist()))

    def summary(self) -> dict[str, float]:
        """Dictionary of headline profile metrics, handy for reports/tests."""
        return {
            "accesses": float(self.total_accesses),
            "blocks": float(self.num_blocks),
            "spatial_locality": self.spatial_locality(),
            "temporal_locality": self.temporal_locality(),
            "working_set": self.working_set_size(),
        }
