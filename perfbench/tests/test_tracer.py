"""Tests of the benchmark's span arithmetic and layer wrappers.

Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))

from tracer import PER_LAYER_METRICS, Tracer, layer_metrics  # noqa: E402


def _play(tracer: Tracer, spans) -> None:
    """Replay ``(time, "enter", kind)`` / ``(time, "exit")`` events in order."""
    for event in spans:
        if event[1] == "enter":
            tracer.enter(event[2], event[0])
        else:
            tracer.exit(event[0])


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer()
    _play(
        tracer,
        [
            (0.0, "enter", "bench"),
            (1.0, "enter", "platforms"),
            (2.0, "enter", "platforms"),  # nested span of the same layer
            (3.0, "enter", "cache"),
            (4.0, "exit"),
            (6.0, "exit"),
            (6.5, "enter", "bus"),
            (7.0, "exit"),
            (9.0, "exit"),
            (9.5, "enter", "isa"),
            (10.0, "exit"),
            (10.0, "exit"),
        ],
    )
    assert tracer.self_seconds == pytest.approx(
        {"bench": 1.5, "platforms": 3.5 + 3.0, "cache": 1.0, "bus": 0.5, "isa": 0.5}
    )
    assert tracer.root_seconds == 10.0
    # Self times partition the root spans' time exactly.
    assert sum(tracer.self_seconds.values()) == pytest.approx(tracer.root_seconds)


def test_sibling_roots_accumulate():
    tracer = Tracer()
    _play(tracer, [(0.0, "enter", "bench"), (2.0, "exit"), (5.0, "enter", "bench"), (6.0, "exit")])
    assert tracer.root_seconds == 3.0
    assert tracer.self_seconds["bench"] == 3.0


def test_call_closes_the_span_when_the_callee_raises():
    ticks = iter([0.0, 1.0, 4.0, 6.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def inner():
        return tracer.call("isa", _boom)

    with pytest.raises(ZeroDivisionError):
        tracer.call("bench", inner)
    assert tracer.self_seconds == pytest.approx({"bench": 3.0, "isa": 3.0})
    assert tracer.root_seconds == 6.0


def _boom():
    return 1 / 0


def test_reset_drops_everything():
    tracer = Tracer()
    _play(tracer, [(0.0, "enter", "bench"), (1.0, "exit")])
    tracer.count("isa.calls")
    tracer.reset()
    assert not tracer.self_seconds and not tracer.counts and tracer.root_seconds == 0.0


def test_layer_metrics_names_every_metric_with_derived_ratios():
    tracer = Tracer()
    _play(tracer, [(0.0, "enter", "isa"), (2.0, "exit")])
    tracer.count("isa.instructions", 4000)
    tracer.count("compress.lines", 4)
    tracer.count("compress.smaller_lines", 3)
    tracer.count("batch.tasks", 10)
    tracer.count("batch.cache_hits", 5)
    values = layer_metrics(tracer)
    assert set(values) == set(PER_LAYER_METRICS)
    assert values["isa.busy_s"] == 2.0
    assert values["isa.kinstr_per_s"] == 2.0
    assert values["compress.useful_ratio"] == 0.75
    assert values["batch.hit_ratio"] == 0.5


def test_installed_wrappers_count_from_stats_and_reconcile():
    # Runs in a fresh interpreter: install() rebinds package functions.
    script = textwrap.dedent(
        f"""
        import sys, time
        sys.path[:0] = [{str(BENCH)!r}, {str(BENCH.parent / "src")!r}]
        from tracer import Tracer, install, layer_metrics
        from repro.compress import DifferentialCodec
        from repro.isa.programs import build_saxpy
        from repro.platforms import risc_platform
        tracer = Tracer()
        install(tracer)
        program = build_saxpy(n=64)
        start = time.perf_counter()
        report = tracer.call("bench", risc_platform(DifferentialCodec()).run_program, program)
        wall = time.perf_counter() - start
        values = layer_metrics(tracer)
        stats = (report.icache_stats, report.dcache_stats)
        assert values["cache.accesses"] == sum(s.accesses for s in stats)
        assert values["cache.misses"] == sum(s.misses for s in stats)
        assert values["compress.lines"] == report.unit_stats.lines_compressed
        assert values["isa.calls"] == 1 and values["platforms.calls"] == 1
        assert values["bus.words"] > 0 and values["isa.instructions"] > 0
        assert abs(sum(tracer.self_seconds.values()) - wall) < 0.02 * wall
        print("ok")
        """
    )
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "ok"
