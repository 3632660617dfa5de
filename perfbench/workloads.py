"""The three benchmark workloads, built from a seed through the public API.

Each workload is a list of timed *items*.  An item's call returns a
program output; ``payloads`` turns that output into canonical,
JSON-serializable results keyed by label, whose SHA-256 digests are
checked against ``reference.json`` (and across passes).  See README.md for
why each workload exists and which layers it is predicted to move.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

__all__ = ["WORKLOADS", "Item", "Workload", "build", "digest_of", "derive_seed"]


def derive_seed(seed: int, tag: str) -> int:
    """Deterministic per-input seed in [1, 2**31) from the workload seed."""
    digest = hashlib.sha256(f"{seed}/{tag}".encode()).hexdigest()
    return int(digest[:8], 16) % (2**31 - 1) + 1


def digest_of(payload) -> str:
    """SHA-256 of the canonical JSON encoding of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Item:
    """One timed call, the labelled results it produces, and untimed set-up
    run before each call."""

    label: str
    call: Callable[[], object]
    payloads: Callable[[object], dict]
    prepare: Callable[[], None] | None = None


@dataclass
class Workload:
    """Timed items (a pass runs each once, in order) and their checks.

    ``check_pass`` checks a whole pass's payloads against each other and
    returns ``{label: consistent}`` for every label it checked; ``final_check``, when set, is one more check run once
    after timing on the first pass's digests, returning a list of problems.
    """

    items: list
    warmup: Callable[[], object]
    check_pass: Callable[[dict], dict] = lambda payloads: {}
    final_check: Callable[[dict], list] | None = None


# -- platform_e2 ------------------------------------------------------------------------


def _platform_payload(report) -> dict:
    return {
        "platform": report.platform,
        "energy_pj": report.breakdown.as_dict(),
        "total_pj": report.breakdown.total,
        "cycles": report.cycles,
        "decompression_cycles": report.decompression_cycles,
        "icache": asdict(report.icache_stats),
        "dcache": asdict(report.dcache_stats),
        "unit": asdict(report.unit_stats) if report.unit_stats is not None else None,
        "bytes_to_memory": report.bytes_to_memory,
        "bytes_from_memory": report.bytes_from_memory,
    }


def _platform_e2(seed: int, work: Path) -> Workload:
    from repro.compress import DifferentialCodec
    from repro.isa.programs import build_dot_product, build_fir, build_idct_rows, build_saxpy
    from repro.platforms import risc_platform, vliw_platform

    programs = [
        build_idct_rows(rows=128, seed=derive_seed(seed, "idct128")),
        build_saxpy(n=1024, seed=derive_seed(seed, "saxpy")),
        build_fir(n=256, taps=16, seed=derive_seed(seed, "fir")),
        build_idct_rows(rows=256, seed=derive_seed(seed, "idct256")),
    ]
    items = []
    for program in programs:
        for platform in (vliw_platform, risc_platform):
            for codec in (None, DifferentialCodec):
                label = f"{program.name}/{platform.__name__}/{'diff' if codec else 'none'}"
                items.append(
                    Item(
                        label=label,
                        call=lambda program=program, platform=platform, codec=codec: (
                            platform(codec() if codec else None).run_program(program)
                        ),
                        payloads=lambda report, label=label: {label: _platform_payload(report)},
                    )
                )

    def check_pass(payloads: dict) -> dict:
        # Compression sits behind the D-cache, so switching the codec on
        # must leave both caches' statistics untouched.
        consistent = {}
        for label, payload in payloads.items():
            base = payloads.get(label[: -len("diff")] + "none")
            if label.endswith("/diff") and base is not None:
                consistent[label] = (base["icache"], base["dcache"]) == (
                    payload["icache"],
                    payload["dcache"],
                )
        return consistent

    warm_program = build_dot_product(n=64, seed=derive_seed(seed, "warmup"))
    return Workload(
        items=items,
        warmup=lambda: risc_platform(DifferentialCodec()).run_program(warm_program),
        check_pass=check_pass,
    )


# -- flow_e1 ----------------------------------------------------------------------------


def _flow_problems(result: dict, events: int) -> list:
    """Invariants of one FlowResult.to_dict(): energies and access counts add up."""
    problems = []
    for label, variant in result["variants"].items():
        simulated = variant["simulated"]
        total = simulated["bank_energy"] + simulated["decoder_energy"] + simulated["leakage_energy"]
        if total != simulated["total"]:
            problems.append(f"{label}: energy components do not sum to the total")
        if sum(simulated["bank_access_counts"]) != simulated["accesses"] or simulated["accesses"] != events:
            problems.append(f"{label}: bank access counts do not cover the {events} events")
    return problems


def _flow_item(label: str, config, events: int, source: Callable[[], object]) -> Item:
    """A timed ``MemoryOptimizationFlow.run`` over the trace ``source()`` gives."""
    from repro.core import MemoryOptimizationFlow

    def payloads(result) -> dict:
        payload = result.to_dict()
        problems = _flow_problems(payload, events)
        return {label: {"invariant_violated": problems} if problems else payload}

    return Item(
        label=label,
        call=lambda: MemoryOptimizationFlow(config).run(source()),
        payloads=payloads,
    )


# One scattered-hot app of the suite is packed into a .tstore in set-up and
# streamed from it, as `repro optimize x.tstore` runs it.  A 500-block
# footprint keeps the reuse-distance LRU stack cache-resident: with 2000
# blocks its pointer chasing made pass times swing by a third with the
# load other tenants put on a shared host.
STREAMED_EVENTS = 60_000
STREAMED_BLOCKS = 500
STREAMED_HOT = 32
STREAMED_CHUNK = 16384


def _flow_e1(seed: int, work: Path) -> Workload:
    import repro.trace.store as store
    from repro.core import FlowConfig, MemoryOptimizationFlow
    from repro.isa import CPU
    from repro.isa.programs import (
        build_aos_field_sum,
        build_fir,
        build_matmul,
        build_table_lookup,
    )
    from repro.trace import ScatteredHotGenerator

    # The E1 suite: ISS kernels (seeded data) and fragmented-hot-set apps,
    # each with its suite block size and bank budget.
    kernels = [
        ("aos_field_sum", build_aos_field_sum, 8, 4),
        ("table_lookup", build_table_lookup, 16, 4),
        ("matmul", build_matmul, 32, 4),
        ("fir", build_fir, 32, 4),
    ]
    apps = [
        ("app_frag_small", (400, 40, 20.0, 25000), 32, 4),
        ("app_frag_medium", (400, 20, 60.0, 25000), 32, 4),
        ("app_frag_sharp", (500, 12, 200.0, 25000), 32, 4),
        ("app_frag_wide", (300, 30, 40.0, 25000), 32, 4),
        ("app_frag_huge", (600, 10, 400.0, 30000), 32, 4),
        ("app_tight_banks", (2000, 16, 800.0, 30000), 32, 2),
    ]
    traces = [
        (name, CPU().run(builder(seed=derive_seed(seed, name))).data_trace, block_size, max_banks)
        for name, builder, block_size, max_banks in kernels
    ]
    traces += [
        (name, ScatteredHotGenerator(*shape, seed=derive_seed(seed, name)).generate(), block_size, max_banks)
        for name, shape, block_size, max_banks in apps
    ]
    items = [
        _flow_item(
            name,
            FlowConfig(block_size=block_size, max_banks=max_banks, strategy="affinity"),
            len(trace.data_accesses()),
            lambda trace=trace: trace,
        )
        for name, trace, block_size, max_banks in traces
    ]

    path = work / "streamed.tstore"
    streamed = ScatteredHotGenerator(
        STREAMED_BLOCKS, STREAMED_HOT, 40.0, STREAMED_EVENTS, seed=derive_seed(seed, "streamed")
    ).generate()
    store.save_store(streamed, path, chunk_size=STREAMED_CHUNK)
    del streamed
    config = FlowConfig(block_size=32, max_banks=4, strategy="affinity")
    items.append(
        _flow_item("streamed", config, STREAMED_EVENTS, lambda: store.open_store(path, verify=True))
    )

    def final_check(digests: dict) -> list:
        # Differential check: the streamed flow must equal the flow over the
        # same store materialized in memory.
        in_memory = MemoryOptimizationFlow(config).run(store.load_store(path, verify=True).to_trace())
        if digest_of(in_memory.to_dict()) != digests.get("streamed"):
            return ["streamed flow differs from the in-memory flow over the same store"]
        return []

    warm_trace = ScatteredHotGenerator(120, 12, 30.0, 3000, seed=derive_seed(seed, "warmup")).generate()
    warm_path = work / "warmup.tstore"
    store.save_store(warm_trace, warm_path, chunk_size=1024)

    def warmup() -> None:
        MemoryOptimizationFlow(FlowConfig(block_size=32, max_banks=4)).run(warm_trace)
        MemoryOptimizationFlow(config).run(store.open_store(warm_path, verify=True))

    return Workload(items=items, warmup=warmup, final_check=final_check)


# -- sweep_small -------------------------------------------------------------------------

#: Bundled kernels swept by sweep_small (their data is fixed by load_kernel).
SWEEP_KERNELS = (
    "aos_field_sum",
    "crc32",
    "fib_recursive",
    "histogram",
    "matmul",
    "transpose",
)

SWEEP_FLOWS = (
    ("e1_clustering", {"block_size": 32, "max_banks": 4}),
    ("e2_compression", {"platform": "risc", "codec": "differential"}),
    ("e4_reconfig", {}),
)


def _sweep_small(seed: int, work: Path) -> Workload:
    import repro.batch.runner as runner
    from repro.batch import ResultCache, SweepTask, TraceSpec

    specs = [TraceSpec.kernel(name) for name in SWEEP_KERNELS]
    specs += [
        TraceSpec.synthetic(
            "scattered_hot", num_blocks=200, num_hot=20, hot_weight=30.0, accesses=3000,
            seed=derive_seed(seed, "scattered_a"),
        ),
        TraceSpec.synthetic("markov_region", seed=derive_seed(seed, "markov")),
    ]
    tasks = [SweepTask.make(flow, spec, config) for spec in specs for flow, config in SWEEP_FLOWS]
    caches: list = []
    numbers = itertools.count()

    def forget_traces() -> None:
        # Each sweep starts as in a fresh `repro sweep` process, without the
        # runner's per-process trace memo: the warm sweep then recomputes
        # trace digests as a user's re-run does, and no pass reuses traces
        # an earlier pass loaded.
        runner._TRACE_MEMO.clear()

    def fresh_cache() -> None:
        # One cache at a time: drop the previous pass's before a cold sweep.
        forget_traces()
        for old in caches:
            shutil.rmtree(old.root, ignore_errors=True)
        caches[:] = [ResultCache(work / f"cache-{next(numbers)}")]

    # Warm-up on a kernel the timed sweeps do not use, through every flow.
    warm_tasks = [
        SweepTask.make(flow, TraceSpec.kernel("dot_product"), config) for flow, config in SWEEP_FLOWS
    ]

    def warmup():
        fresh_cache()
        return runner.run_sweep(warm_tasks, jobs=1, cache=caches[0])

    def payloads(report) -> dict:
        return {
            f"{index:02d}:{outcome.task.flow}:{outcome.task.trace.name}": outcome.result
            for index, outcome in enumerate(report.outcomes)
        }

    return Workload(
        items=[
            Item("cold", lambda: runner.run_sweep(tasks, jobs=1, cache=caches[0]), payloads, fresh_cache),
            Item("warm", lambda: runner.run_sweep(tasks, jobs=1, cache=caches[0]), payloads, forget_traces),
        ],
        warmup=warmup,
    )


WORKLOADS = {
    "platform_e2": _platform_e2,
    "flow_e1": _flow_e1,
    "sweep_small": _sweep_small,
}


def build(name: str, seed: int, work: Path) -> Workload:
    """Build workload ``name`` for ``seed``, keeping scratch files in ``work``."""
    return WORKLOADS[name](seed, work)
