"""Benchmark-side span tracer: per-layer self time and exact counts.

The traced run wraps public entry points of each ``repro`` layer from this
file only; nothing inside the package is instrumented.  A wrapper opens a
span on entry and closes it on exit, and spans nest by call order, so a
span's *self time* is its duration minus the durations of its direct
children.  Summed over all spans, self times partition the root spans'
time exactly: the per-layer numbers reconcile with the traced wall time.

Counts come from the objects the program already returns (``CacheStats``,
``BusStats``, ``UnitStats``, ``ExecutionResult``, ``SweepReport``, ...).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

__all__ = ["Tracer", "install", "layer_metrics", "PER_LAYER_METRICS"]


class Tracer:
    """Online span aggregator: self time per span kind plus named counters.

    ``enter(kind, now)`` / ``exit(now)`` take explicit timestamps so the
    arithmetic can be checked on a hand-built span tree; :meth:`call` is
    the clocked form the benchmark uses around each timed item.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        """Drop every aggregate (the per-pass boundary)."""
        self._stack: list = []  # [kind, start, child_seconds]
        self.self_seconds: dict = defaultdict(float)
        self.root_seconds = 0.0
        self.counts: dict = defaultdict(int)
        self.buses: list = []

    def enter(self, kind: str, now: float) -> None:
        """Open a span of ``kind`` at time ``now``, nested in the open one."""
        self._stack.append([kind, now, 0.0])

    def exit(self, now: float) -> None:
        """Close the innermost open span at time ``now``."""
        kind, start, child_seconds = self._stack.pop()
        duration = now - start
        self.self_seconds[kind] += duration - child_seconds
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_seconds += duration

    def count(self, name: str, amount=1) -> None:
        """Add ``amount`` to counter ``name``."""
        self.counts[name] += amount

    def call(self, kind: str, function, *args, **kwargs):
        """Run ``function`` inside a span of ``kind``; return its result."""
        self.enter(kind, self.clock())
        try:
            return function(*args, **kwargs)
        finally:
            self.exit(self.clock())


def _timed(tracer: Tracer, kind: str, original, after=None):
    """Wrapper timing ``original`` as ``kind``; ``after(args, kwargs, result)`` counts."""

    def wrapper(*args, **kwargs):
        tracer.enter(kind, tracer.clock())
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.exit(tracer.clock())
        if after is not None:
            after(args, kwargs, result)
        return result

    wrapper.__wrapped__ = original
    return wrapper


def _counted(tracer: Tracer, name: str, original):
    """Wrapper counting calls of ``original`` without timing them."""

    def wrapper(*args, **kwargs):
        tracer.counts[name] += 1
        return original(*args, **kwargs)

    wrapper.__wrapped__ = original
    return wrapper


def _replace_function(module_name: str, attribute: str, make_wrapper) -> None:
    """Rebind a module-level function everywhere ``repro`` imported it."""
    original = getattr(sys.modules[module_name], attribute)
    wrapper = make_wrapper(original)
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def _replace_method(cls, attribute: str, make_wrapper) -> None:
    setattr(cls, attribute, make_wrapper(cls.__dict__[attribute]))


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reaches."""
    import repro.batch.flows  # noqa: F401  (load every module before rebinding)
    import repro.batch.runner  # noqa: F401
    import repro.core.pipeline  # noqa: F401
    import repro.reconfig  # noqa: F401
    import repro.trace.store  # noqa: F401
    from repro.batch.cache import ResultCache
    from repro.batch.spec import TraceSpec
    from repro.bus.bus import Bus
    from repro.cache.cache import Cache
    from repro.compress.unit import CompressionUnit
    from repro.core import clustering
    from repro.core.pipeline import MemoryOptimizationFlow
    from repro.isa.cpu import CPU
    from repro.memory.partitioned import PartitionedMemory
    from repro.partition.cost import PartitionCostModel
    from repro.partition.optimal import OptimalPartitioner
    from repro.platforms.system import Platform
    from repro.reconfig.scheduler import EnergyAwareScheduler, NaiveScheduler
    from repro.trace.profile import AccessProfile
    from repro.trace.store import StreamedTrace

    count = tracer.count

    def timed(kind, after=None):
        return lambda original: _timed(tracer, kind, original, after)

    # -- isa: the instruction-set simulator -------------------------------------
    def after_cpu(args, kwargs, result):
        count("isa.calls")
        count("isa.instructions", result.instructions_executed)

    _replace_method(CPU, "run", timed("isa", after_cpu))

    # -- platforms: the per-event platform model (glue around caches/bus) -------
    def after_run_traces(args, kwargs, report):
        count("platforms.calls")
        for stats in (report.icache_stats, report.dcache_stats):
            count("cache.accesses", stats.accesses)
            count("cache.misses", stats.misses)
            count("cache.writebacks", stats.writebacks)

    _replace_method(Platform, "run_program", timed("platforms"))
    _replace_method(Platform, "run_traces", timed("platforms", after_run_traces))

    # -- cache / bus / compress: the per-event models -----------------------------
    _replace_method(Cache, "access", timed("cache"))
    _replace_method(Cache, "flush", timed("cache"))
    bus_init = Bus.__dict__["__init__"]

    def init_bus(self, *args, **kwargs):
        bus_init(self, *args, **kwargs)
        tracer.buses.append(self)

    Bus.__init__ = init_bus
    _replace_method(Bus, "drive", timed("bus"))
    _replace_method(Bus, "drive_bytes", timed("bus"))

    def after_compress(args, kwargs, line):
        count("compress.lines")
        if line.transfer_bytes < len(args[1]):
            count("compress.smaller_lines")

    _replace_method(CompressionUnit, "compress", timed("compress", after_compress))

    # -- trace: profiling, reuse distance, affinity -------------------------------
    def after_profile(args, kwargs, result):
        count("trace.events", args[0].total_accesses)

    _replace_method(AccessProfile, "__init__", timed("trace.profile", after_profile))
    _replace_method(AccessProfile, "summary", timed("trace.profile"))
    _replace_method(AccessProfile, "affinity_matrix", timed("trace.affinity"))
    _replace_function("repro.trace.profile", "reuse_distances", timed("trace.reuse"))

    # -- trace.store: open / pack / chunked playback ------------------------------
    _replace_function("repro.trace.store", "open_store", timed("trace.store_open"))
    _replace_function("repro.trace.store", "load_store", timed("trace.store_open"))
    _replace_function("repro.trace.store", "save_store", timed("trace.store_pack"))
    chunks = StreamedTrace.__dict__["chunks"]

    def counted_chunks(self):
        for chunk in chunks(self):
            count("trace.store_chunks")
            yield chunk

    StreamedTrace.chunks = counted_chunks

    # -- core: the optimization flow and clustering -------------------------------
    _replace_method(
        MemoryOptimizationFlow,
        "run",
        timed("core.flow", lambda args, kwargs, result: count("core.flow_calls")),
    )
    for cls in vars(clustering).values():
        if isinstance(cls, type) and "build_layout" in cls.__dict__:
            _replace_method(cls, "build_layout", timed("core.cluster"))

    # -- partition: the DP and partition simulation -------------------------------
    def after_dp(args, kwargs, result):
        partitioner, cost_model = args[0], args[1]
        count("partition.dp_calls")
        count("partition.dp_cells", min(cost_model.num_blocks, partitioner.max_dp_cells))

    _replace_method(OptimalPartitioner, "partition", timed("partition.dp", after_dp))
    PartitionCostModel.segment_cost = _counted(
        tracer, "partition.segment_cost_calls", PartitionCostModel.__dict__["segment_cost"]
    )
    _replace_function("repro.partition.evaluate", "simulate_partition", timed("partition.simulate"))

    # -- memory: partitioned-memory playback ---------------------------------------
    def after_play(args, kwargs, report):
        count("memory.play_calls")
        count("memory.play_events", report.accesses)

    _replace_method(PartitionedMemory, "play", timed("memory", after_play))
    for engine in ("scalar", "vectorized", "streamed"):
        name = f"memory.play_{engine}_calls"
        _replace_method(
            PartitionedMemory,
            f"play_{engine}",
            timed("memory", lambda args, kwargs, result, name=name: count(name)),
        )

    # -- batch: sweep runner, trace loading, digests, result cache ----------------
    def after_sweep(args, kwargs, report):
        count("batch.tasks", len(report.outcomes))
        count("batch.cache_hits", report.hits)
        count("batch.cache_misses", report.misses)

    _replace_function("repro.batch.runner", "run_sweep", timed("batch", after_sweep))
    _replace_method(TraceSpec, "load", timed("batch.trace_load"))
    _replace_function("repro.trace.io", "trace_digest", timed("batch.digest"))
    _replace_method(ResultCache, "load", timed("batch.cache_load"))
    _replace_method(ResultCache, "store", timed("batch.cache_store"))
    _replace_method(ResultCache, "pack_trace", timed("batch"))

    # -- reconfig: application derivation, scheduling, evaluation ------------------
    after_schedule = lambda args, kwargs, result: count("reconfig.schedule_calls")  # noqa: E731
    _replace_method(EnergyAwareScheduler, "schedule", timed("reconfig", after_schedule))
    _replace_method(NaiveScheduler, "schedule", timed("reconfig", after_schedule))
    _replace_function("repro.reconfig.scheduler", "evaluate_schedule", timed("reconfig"))
    _replace_function("repro.batch.flows", "trace_to_application", timed("reconfig"))


#: Per-layer metrics of the traced run: name -> (unit, source).  A source
#: is ("self", span kind), ("count", counter), or a derived-metric tag.
PER_LAYER_METRICS = {
    "isa.calls": ("count", ("count", "isa.calls")),
    "isa.instructions": ("count", ("count", "isa.instructions")),
    "isa.busy_s": ("s", ("self", "isa")),
    "isa.kinstr_per_s": ("kinstr/s", ("derived", "kinstr_per_s")),
    "platforms.calls": ("count", ("count", "platforms.calls")),
    "platforms.self_s": ("s", ("self", "platforms")),
    "cache.accesses": ("count", ("count", "cache.accesses")),
    "cache.misses": ("count", ("count", "cache.misses")),
    "cache.writebacks": ("count", ("count", "cache.writebacks")),
    "cache.busy_s": ("s", ("self", "cache")),
    "bus.words": ("count", ("count", "bus.words")),
    "bus.busy_s": ("s", ("self", "bus")),
    "compress.lines": ("count", ("count", "compress.lines")),
    "compress.useful_ratio": ("ratio", ("derived", "useful_ratio")),
    "compress.busy_s": ("s", ("self", "compress")),
    "trace.events": ("count", ("count", "trace.events")),
    "trace.profile_s": ("s", ("self", "trace.profile")),
    "trace.reuse_s": ("s", ("self", "trace.reuse")),
    "trace.affinity_s": ("s", ("self", "trace.affinity")),
    "trace.store_open_s": ("s", ("self", "trace.store_open")),
    "trace.store_pack_s": ("s", ("self", "trace.store_pack")),
    "trace.store_chunks": ("count", ("count", "trace.store_chunks")),
    "core.flow_calls": ("count", ("count", "core.flow_calls")),
    "core.cluster_s": ("s", ("self", "core.cluster")),
    "core.flow_self_s": ("s", ("self", "core.flow")),
    "partition.dp_calls": ("count", ("count", "partition.dp_calls")),
    "partition.dp_cells": ("count", ("count", "partition.dp_cells")),
    "partition.segment_cost_calls": ("count", ("count", "partition.segment_cost_calls")),
    "partition.dp_s": ("s", ("self", "partition.dp")),
    "partition.simulate_s": ("s", ("self", "partition.simulate")),
    "memory.play_calls": ("count", ("count", "memory.play_calls")),
    "memory.play_events": ("count", ("count", "memory.play_events")),
    "memory.play_s": ("s", ("self", "memory")),
    "memory.play_scalar_calls": ("count", ("count", "memory.play_scalar_calls")),
    "memory.play_vectorized_calls": ("count", ("count", "memory.play_vectorized_calls")),
    "memory.play_streamed_calls": ("count", ("count", "memory.play_streamed_calls")),
    "batch.tasks": ("count", ("count", "batch.tasks")),
    "batch.cache_hits": ("count", ("count", "batch.cache_hits")),
    "batch.cache_misses": ("count", ("count", "batch.cache_misses")),
    "batch.hit_ratio": ("ratio", ("derived", "hit_ratio")),
    "batch.self_s": ("s", ("self", "batch")),
    "batch.trace_load_s": ("s", ("self", "batch.trace_load")),
    "batch.digest_s": ("s", ("self", "batch.digest")),
    "batch.cache_load_s": ("s", ("self", "batch.cache_load")),
    "batch.cache_store_s": ("s", ("self", "batch.cache_store")),
    "reconfig.schedule_calls": ("count", ("count", "reconfig.schedule_calls")),
    "reconfig.schedule_s": ("s", ("self", "reconfig")),
    "bench.self_s": ("s", ("self", "bench")),
}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values of one traced pass (see PER_LAYER_METRICS)."""
    counts = dict(tracer.counts)
    counts["bus.words"] = sum(bus.stats.words for bus in tracer.buses)
    selfs = tracer.self_seconds
    derived = {
        "kinstr_per_s": (
            counts.get("isa.instructions", 0) / selfs["isa"] / 1000.0
            if selfs.get("isa")
            else 0.0
        ),
        "useful_ratio": (
            counts.get("compress.smaller_lines", 0) / counts["compress.lines"]
            if counts.get("compress.lines")
            else 0.0
        ),
        "hit_ratio": (
            counts.get("batch.cache_hits", 0) / counts["batch.tasks"]
            if counts.get("batch.tasks")
            else 0.0
        ),
    }
    values = {}
    for name, (_unit, (source, key)) in PER_LAYER_METRICS.items():
        if source == "self":
            values[name] = selfs.get(key, 0.0)
        elif source == "count":
            values[name] = counts.get(key, 0)
        else:
            values[name] = derived[key]
    return values
