"""Trace statistics: stride structure, entropy, region transitions.

Complements :mod:`repro.trace.profile` (which aggregates per block) with
*stream-structure* metrics that the profile deliberately ignores:

* :func:`stride_histogram` / :func:`dominant_stride` — the access-delta
  distribution; a dominant +4 stride is what makes T0 encoding and
  sequential prefetching work;
* :func:`address_entropy` — Shannon entropy of the block stream in bits, a
  one-number summary of how concentrated the working set is (the quantity
  hot/cold partitioning exploits);
* :func:`region_transition_matrix` — Markov transition counts between
  address regions, the structure the phase detector discovers at a coarser
  timescale.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Hashable
from typing import Union

import numpy as np

from .columnar import ColumnarTrace
from .trace import Trace

__all__ = [
    "stride_histogram",
    "dominant_stride",
    "address_entropy",
    "region_transition_matrix",
    "region_stickiness",
]


def _merge_counts(
    counts: dict, keys: np.ndarray, decode: Callable[[int], Hashable] = int
) -> None:
    """Add one chunk's occurrence counts of ``keys`` into ``counts``.

    Keys new to ``counts`` are inserted in their chunk-local
    first-encounter order; chunks arriving in trace order, the dict then
    holds every key in global first-encounter order — the order a
    ``Counter`` fed one event at a time would have.
    """
    unique, first_index, chunk_counts = np.unique(
        keys, return_index=True, return_counts=True
    )
    for position in np.argsort(first_index, kind="stable").tolist():
        key = decode(int(unique[position]))
        counts[key] = counts.get(key, 0) + int(chunk_counts[position])


def stride_histogram(
    trace: Union[Trace, ColumnarTrace], top: int | None = None
) -> list[tuple[int, int]]:
    """Histogram of consecutive address deltas, most frequent first.

    Returns ``(stride, count)`` pairs; ``top`` truncates the list.  Ties
    rank by first encounter, as ``Counter.most_common`` does.
    """
    counts: dict[int, int] = {}
    previous = np.empty(0, dtype=np.int64)
    for chunk in trace.chunks():
        if not len(chunk):
            continue
        # The previous chunk's last address makes the boundary stride.
        addresses = np.concatenate((previous, chunk.addresses))
        _merge_counts(counts, np.diff(addresses))
        previous = chunk.addresses[-1:]
    ranked = sorted(counts.items(), key=lambda item: -item[1])
    return ranked if top is None else ranked[:top]


def dominant_stride(trace: Union[Trace, ColumnarTrace]) -> tuple[int, float]:
    """The most frequent stride and its share of all transitions.

    Returns ``(0, 0.0)`` for traces with fewer than two events.
    """
    histogram = stride_histogram(trace, top=1)
    if not histogram:
        return (0, 0.0)
    stride, count = histogram[0]
    total = len(trace) - 1
    return stride, count / total


def address_entropy(trace: Union[Trace, ColumnarTrace], block_size: int = 32) -> float:
    """Shannon entropy (bits) of the block-access distribution.

    0 bits = one block absorbs everything; ``log2(n)`` bits = accesses
    spread uniformly over ``n`` blocks.  Lower entropy means a smaller hot
    bank captures more traffic.
    """
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    counts: dict[int, int] = {}
    for chunk in trace.chunks():
        _merge_counts(counts, chunk.block_ids(block_size))
    total = sum(counts.values())
    entropy = 0.0
    # Accumulated in first-encounter order, so the float sum is fixed.
    for count in counts.values():
        probability = count / total
        entropy -= probability * math.log2(probability)
    return entropy


def region_transition_matrix(
    trace: Union[Trace, ColumnarTrace], region_size: int = 4096
) -> dict[tuple[int, int], int]:
    """Markov transition counts between address regions.

    Key ``(from_region, to_region)`` → number of consecutive access pairs
    that moved between those regions (self-transitions included), in
    first-encounter order.
    """
    if region_size <= 0:
        raise ValueError(f"region_size must be positive, got {region_size}")
    matrix: dict[tuple[int, int], int] = {}
    previous = np.empty(0, dtype=np.int64)
    for chunk in trace.chunks():
        if not len(chunk):
            continue
        regions = np.concatenate((previous, chunk.addresses // region_size))
        previous = regions[-1:]
        compact, dense = np.unique(regions, return_inverse=True)
        span = len(compact)
        _merge_counts(
            matrix,
            dense[:-1] * span + dense[1:],
            lambda key: (int(compact[key // span]), int(compact[key % span])),
        )
    return matrix


def region_stickiness(trace: Union[Trace, ColumnarTrace], region_size: int = 4096) -> float:
    """Fraction of consecutive accesses that stay in the same region.

    High stickiness (→1.0) means long region sojourns — the structure that
    makes bank sleep and phase adaptation profitable.
    """
    matrix = region_transition_matrix(trace, region_size)
    total = sum(matrix.values())
    if total == 0:
        return 1.0
    same = sum(count for (a, b), count in matrix.items() if a == b)
    return same / total
