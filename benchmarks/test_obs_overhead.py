"""NullRecorder overhead gate: instrumentation must be free when off.

The observability contract (ARCHITECTURE.md "Observability") is that the
default no-recorder path costs one flag check per playback call.  This
benchmark pins it: a 1M-event vectorized play with ``recorder=None`` and
with an explicit :class:`~repro.obs.NullRecorder` must both stay within 3%
of each other, measured as interleaved best-of-N pairs on the same trace in
the same process — machine-independent, unlike raw wall-clock gates.

An absolute floor (0.5 ms) keeps the ratio stable against timer noise when
the play itself is fast.
"""

from __future__ import annotations

import time

from repro.memory import PartitionedMemory
from repro.obs import JsonlRecorder, NullRecorder

from test_columnar_engine import BANK_SIZES, million_event_trace

from _rounds import bench_rounds

OVERHEAD_BOUND_RATIO = 0.03
NOISE_FLOOR_SECONDS = 5e-4
ROUNDS = 5

# Worker-shard recording on a full sweep: buffered in-memory lines plus one
# suffix-append publish per task must stay under 5% of the uninstrumented
# sweep.  The gate statistic is the *best paired round* (shard minus bare
# within one round): rounds alternate which side runs first and an untimed
# warmup absorbs one-time import costs, so slow machine drift (thermal,
# background load) cancels instead of biasing one side.
SHARD_OVERHEAD_BOUND_RATIO = 0.05
SHARD_NOISE_FLOOR_SECONDS = 1e-2
SHARD_ROUNDS = 6


def timed_play_pair() -> dict:
    """Best-of-N interleaved timings: bare play vs NullRecorder play."""
    columnar = million_event_trace()
    memory = PartitionedMemory(BANK_SIZES)
    null_recorder = NullRecorder()

    bare_seconds = []
    null_seconds = []
    totals = set()
    for _ in range(ROUNDS):
        start_s = time.perf_counter()
        totals.add(memory.play(columnar).total)
        bare_seconds.append(time.perf_counter() - start_s)

        start_s = time.perf_counter()
        totals.add(memory.play(columnar, recorder=null_recorder).total)
        null_seconds.append(time.perf_counter() - start_s)

    return {
        "bare_s": min(bare_seconds),
        "null_s": min(null_seconds),
        "distinct_totals": len(totals),
    }


def test_null_recorder_overhead(benchmark):
    result = benchmark.pedantic(timed_play_pair, rounds=bench_rounds(), iterations=1)
    # Recording (or not) never changes the energy result.
    assert result["distinct_totals"] == 1
    # The <3% acceptance gate, with an absolute floor against timer noise.
    assert result["null_s"] <= result["bare_s"] * (1 + OVERHEAD_BOUND_RATIO) + (
        NOISE_FLOOR_SECONDS
    ), (
        f"NullRecorder play took {result['null_s'] * 1e3:.2f} ms vs "
        f"{result['bare_s'] * 1e3:.2f} ms bare — over the "
        f"{OVERHEAD_BOUND_RATIO:.0%} overhead budget"
    )


def sixteen_task_sweep():
    """Sixteen quick e1 tasks: four tiny synthetic traces x four configs."""
    from repro.batch import SweepTask, TraceSpec

    specs = [
        TraceSpec.synthetic("scattered_hot", accesses=600, num_blocks=40, seed=seed)
        for seed in (1, 2, 3, 4)
    ]
    return [
        SweepTask.make("e1_clustering", spec, {"max_banks": banks})
        for spec in specs
        for banks in (2, 3, 4, 6)
    ]


def timed_sweep_pair(tmp_path) -> dict:
    """Best-of-N interleaved timings: bare sweep vs shard-recorded sweep."""
    from repro.batch import run_sweep

    tasks = sixteen_task_sweep()
    bare_seconds = []
    shard_seconds = []
    results = set()

    def timed_bare() -> None:
        start_s = time.perf_counter()
        report = run_sweep(tasks, jobs=1, cache=None)
        bare_seconds.append(time.perf_counter() - start_s)
        results.add(repr(report.results))

    def timed_shard(round_index: int) -> None:
        start_s = time.perf_counter()
        report = run_sweep(
            tasks, jobs=1, cache=None,
            shard_dir=tmp_path / f"obs-{round_index}",
        )
        shard_seconds.append(time.perf_counter() - start_s)
        results.add(repr(report.results))

    # Untimed warmup: the first instrumented sweep pays one-time import
    # costs that would otherwise inflate the first shard rounds.
    run_sweep(tasks, jobs=1, cache=None, shard_dir=tmp_path / "obs-warmup")

    for round_index in range(SHARD_ROUNDS):
        if round_index % 2 == 0:
            timed_bare()
            timed_shard(round_index)
        else:
            timed_shard(round_index)
            timed_bare()

    return {
        "bare_s": min(bare_seconds),
        "shard_s": min(shard_seconds),
        "overhead_s": min(
            shard - bare for bare, shard in zip(bare_seconds, shard_seconds)
        ),
        "distinct_results": len(results),
    }


def test_worker_shard_recording_overhead(tmp_path, benchmark):
    result = benchmark.pedantic(
        timed_sweep_pair, args=(tmp_path,), rounds=bench_rounds(), iterations=1
    )
    # Shard recording never changes the merged results.
    assert result["distinct_results"] == 1
    # The <5% acceptance gate on the best paired round, with an absolute
    # floor against timer noise.
    assert result["overhead_s"] <= result["bare_s"] * (
        SHARD_OVERHEAD_BOUND_RATIO
    ) + SHARD_NOISE_FLOOR_SECONDS, (
        f"shard recording added {result['overhead_s'] * 1e3:.1f} ms to a "
        f"{result['bare_s'] * 1e3:.1f} ms sweep (best paired round) — over "
        f"the {SHARD_OVERHEAD_BOUND_RATIO:.0%} overhead budget"
    )


def test_jsonl_recorder_counts_events(tmp_path, benchmark):
    """JsonlRecorder on the same 1M-event play: counters match the report."""
    from repro.obs import read_log

    columnar = million_event_trace()
    memory = PartitionedMemory(BANK_SIZES)
    log_path = tmp_path / "play.jsonl"

    def instrumented_play() -> float:
        with JsonlRecorder(log_path) as recorder:
            return memory.play(columnar, recorder=recorder).total

    total_pj = benchmark.pedantic(instrumented_play, rounds=bench_rounds(), iterations=1)
    log = read_log(log_path)
    counters = log.counters()
    assert counters.total("play.events") == len(columnar)
    assert counters.grand_total("play.energy_pj") == total_pj
