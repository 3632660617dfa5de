"""Data schedulers for the multi-context fabric (paper 1B-4).

Two schedulers share one evaluation semantics:

* :class:`NaiveScheduler` — the baseline: every data set is served from L1,
  kernels run in program order, contexts are loaded on demand.
* :class:`EnergyAwareScheduler` — the paper's technique:

  1. **L0 placement** per kernel: choose the subset of the kernel's data
     sets to stage into the L0 frame buffers, a 0/1 knapsack where an item's
     value is the energy saved by serving its accesses from L0 minus the
     staging cost, and the weight is its size (capacity = ``l0_size``).
     Data sets *reused* by the next kernel are kept resident (no re-staging
     cost), which the knapsack values account for.
  2. **Context grouping**: kernels are stably reordered so that consecutive
     kernels sharing a context execute back-to-back where dependences allow
     (here: kernels writing a data set another kernel reads must stay
     ordered), shrinking the number of context loads.

Both schedulers return a :class:`~repro.reconfig.model.ScheduleEnergy`
breakdown, evaluated by the shared :func:`evaluate_schedule`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs.counters import RECONFIG_KERNELS
from ..obs.recorder import Recorder
from ..obs.spans import span
from .model import Application, DataSet, Kernel, ReconfigArchitecture, ScheduleEnergy

__all__ = ["NaiveScheduler", "EnergyAwareScheduler", "Schedule", "evaluate_schedule"]

_WORD = 4


@dataclass(frozen=True)
class Schedule:
    """A kernel order plus per-kernel L0 placement decisions."""

    order: tuple[int, ...]  # indices into application.kernels
    l0_placements: tuple[frozenset, ...]  # data-set names in L0, per *ordered* slot

    def __post_init__(self) -> None:
        if len(self.order) != len(self.l0_placements):
            raise ValueError(
                f"order ({len(self.order)}) and l0_placements "
                f"({len(self.l0_placements)}) must have equal length"
            )


def evaluate_schedule(
    application: Application,
    architecture: ReconfigArchitecture,
    schedule: Schedule,
) -> ScheduleEnergy:
    """Replay a schedule and account its energy.

    Semantics: each scheduled kernel loads its context unless resident
    (LRU over ``context_slots`` planes); each data set placed in L0 pays a
    staging transfer unless the same data set was already L0-resident after
    the previous kernel; L0-placed accesses cost ``e_l0_access``, the rest
    ``e_l1_access``; written data sets staged in L0 pay the write-back
    transfer when they leave L0 (or at the end).
    """
    if sorted(schedule.order) != list(range(len(application.kernels))):
        raise ValueError(
            f"schedule order {schedule.order!r} must be a permutation of "
            f"0..{len(application.kernels) - 1}"
        )
    energy = ScheduleEnergy()
    resident_contexts: list[int] = []
    l0_resident: dict[str, DataSet] = {}
    dirty: set[str] = set()

    for slot, kernel_index in enumerate(schedule.order):
        kernel = application.kernels[kernel_index]
        placement = schedule.l0_placements[slot]
        datasets = {ds.name: ds for ds in kernel.data_sets}
        unknown = placement - set(datasets)
        if unknown:
            raise ValueError(f"kernel {kernel.name!r}: L0 placement of foreign data {unknown}")
        if sum(datasets[name].size for name in placement) > architecture.l0_size:
            raise ValueError(f"kernel {kernel.name!r}: L0 placement exceeds capacity")

        # Context load (LRU over the resident planes).
        if kernel.context in resident_contexts:
            resident_contexts.remove(kernel.context)
        else:
            energy.context_energy += architecture.e_context_load
            energy.context_loads += 1
            if len(resident_contexts) >= architecture.context_slots:
                resident_contexts.pop(0)
        resident_contexts.append(kernel.context)

        # Evict L0 residents not kept by this kernel; write back dirty ones.
        for name in list(l0_resident):
            if name not in placement:
                if name in dirty:
                    energy.transfer_energy += (
                        architecture.e_transfer_per_byte * l0_resident[name].size
                    )
                    dirty.discard(name)
                del l0_resident[name]

        # Stage newly placed data sets.
        for name in placement:
            ds = datasets[name]
            if name not in l0_resident:
                energy.transfer_energy += architecture.e_transfer_per_byte * ds.size
            l0_resident[name] = ds
            energy.l0_hits += 1
            if ds.writes:
                dirty.add(name)

        # Accesses.
        for ds in kernel.data_sets:
            rate_pj = architecture.e_l0_access if ds.name in placement else architecture.e_l1_access
            energy.access_energy += rate_pj * ds.accesses

    # Final write-back of dirty L0 residents.
    for name in dirty:
        energy.transfer_energy += architecture.e_transfer_per_byte * l0_resident[name].size
    return energy


class NaiveScheduler:
    """Baseline: program order, everything in L1."""

    name = "naive"

    def schedule(
        self,
        application: Application,
        architecture: ReconfigArchitecture,
        recorder: Recorder | None = None,
    ) -> Schedule:
        """Produce the baseline schedule."""
        n = len(application.kernels)
        if recorder is not None and recorder.enabled:
            recorder.counter(RECONFIG_KERNELS, n)
        return Schedule(order=tuple(range(n)), l0_placements=tuple(frozenset() for _ in range(n)))


class EnergyAwareScheduler:
    """The 1B-4 data scheduler: knapsack L0 placement + context grouping.

    Parameters
    ----------
    group_contexts:
        Enable the kernel-reordering stage (dependence-safe context grouping).
    """

    name = "energy_aware"

    def __init__(self, group_contexts: bool = True) -> None:
        self.group_contexts = group_contexts

    # -- kernel ordering ---------------------------------------------------------

    def _order(self, application: Application) -> list[int]:
        if not self.group_contexts:
            return list(range(len(application.kernels)))
        kernels = application.kernels
        n = len(kernels)
        # Dependence: kernel j depends on kernel i (i < j) when i writes a
        # data set j touches, or i touches a data set j writes.
        writes = [
            {ds.name for ds in kernel.data_sets if ds.writes} for kernel in kernels
        ]
        touches = [{ds.name for ds in kernel.data_sets} for kernel in kernels]
        depends = [[False] * n for _ in range(n)]
        for j in range(n):
            for i in range(j):
                if writes[i] & touches[j] or writes[j] & touches[i]:
                    depends[j][i] = True

        # Greedy list scheduling: repeatedly pick a ready kernel, preferring
        # one whose context matches the last scheduled kernel.
        remaining = set(range(n))
        order: list[int] = []
        last_context: int | None = None
        while remaining:
            ready = [
                j
                for j in sorted(remaining)
                if all(i not in remaining for i in range(j) if depends[j][i])
            ]
            same = [j for j in ready if kernels[j].context == last_context]
            pick = same[0] if same else ready[0]
            order.append(pick)
            remaining.remove(pick)
            last_context = kernels[pick].context
        return order

    # -- L0 placement -----------------------------------------------------------

    def _placements(
        self,
        application: Application,
        architecture: ReconfigArchitecture,
        order: list[int],
    ) -> list[frozenset]:
        placements: list[frozenset] = []
        previous_placement: frozenset = frozenset()
        for slot, kernel_index in enumerate(order):
            kernel = application.kernels[kernel_index]
            next_touches: set[str] = set()
            if slot + 1 < len(order):
                next_touches = {
                    ds.name for ds in application.kernels[order[slot + 1]].data_sets
                }
            items = []
            for ds in kernel.data_sets:
                if ds.size > architecture.l0_size:
                    continue
                saved_pj = ds.accesses * (architecture.e_l1_access - architecture.e_l0_access)
                stage_pj = 0.0 if ds.name in previous_placement else (
                    architecture.e_transfer_per_byte * ds.size
                )
                writeback_pj = architecture.e_transfer_per_byte * ds.size if ds.writes else 0.0
                # Reuse by the next kernel amortizes the staging cost.
                if ds.name in next_touches:
                    stage_pj *= 0.5
                value_pj = saved_pj - stage_pj - writeback_pj
                if value_pj > 0:
                    items.append((ds.name, ds.size, value_pj))
            placements.append(self._knapsack(items, architecture.l0_size))
            previous_placement = placements[-1]
        return placements

    @staticmethod
    def _knapsack(items: list[tuple[str, int, float]], capacity: int) -> frozenset:
        """Exact 0/1 knapsack via DP on (coarse-grained) size.

        Items are taken in name order.  Each item updates the whole DP row
        at once: a candidate cell reads only the previous row, which is
        what a descending in-place update reads too, and an item is taken
        only on strict improvement.  Recorded take masks then backtrack
        from the first best room to the chosen set.
        """
        if not items:
            return frozenset()
        # Quantize sizes to 16-byte grains to bound the DP table.
        grain = 16
        slots = capacity // grain
        best = np.zeros(slots + 1, dtype=np.float64)
        takes: list[tuple[str, int, np.ndarray | None]] = []
        for name, size, value in sorted(items, key=lambda item: item[0]):
            weight = (size + grain - 1) // grain
            if weight > slots:
                takes.append((name, weight, None))
                continue
            candidate = best[: slots + 1 - weight] + value
            take = candidate > best[weight:]
            best[weight:] = np.where(take, candidate, best[weight:])
            takes.append((name, weight, take))
        room = int(np.argmax(best))
        chosen: list[str] = []
        for name, weight, take in reversed(takes):
            if take is not None and room >= weight and take[room - weight]:
                chosen.append(name)
                room -= weight
        return frozenset(chosen)

    def schedule(
        self,
        application: Application,
        architecture: ReconfigArchitecture,
        recorder: Recorder | None = None,
    ) -> Schedule:
        """Produce the energy-aware schedule.

        ``recorder`` brackets the run in a ``reconfig_schedule`` span and
        receives the kernel count.
        """
        with span(recorder, "reconfig_schedule", kernels=len(application.kernels)):
            if recorder is not None and recorder.enabled:
                recorder.counter(RECONFIG_KERNELS, len(application.kernels))
            order = self._order(application)
            placements = self._placements(application, architecture, order)
            return Schedule(order=tuple(order), l0_placements=tuple(placements))
