"""Repository benchmark: time the Session 1B simulators on three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload platform_e2 --seed 0 --seconds 30 --trace 0

Each workload runs in fresh child processes (``child.py``): set-up is
timed in 3 to 9 processes (the median is ``setup_s``), and one process
times passes for ``--seconds`` and checks every simulated result.  With
``--trace 1`` an untraced and a traced process split ``--seconds``; the
traced one reports per-layer self times and counts.  ``wall_s`` and
``warm_s`` are in reference seconds: each timed item is scaled by how slow
a fixed calibration kernel ran around it (``hostspeed.py``), which divides
out the shared host's changing speed.  The last stdout line
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``--write-reference`` runs the given seed once and stores its result
digests in ``reference.json`` (for refreshing the committed reference
after an intended change of results).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("platform_e2", "flow_e1", "sweep_small")
SETUP_MIN_SAMPLES = 3
SETUP_MAX_SAMPLES = 9
SETUP_BUDGET_S = 3.0
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """A child process failed; the run has no result."""


def _child(
    workload: str, seed: int, seconds: float, mode: str, work: Path, timeout: float, min_passes: int = 3
) -> dict:
    """Run one fresh child process; return its JSON report."""
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--mode", mode,
        "--work", str(work),
        "--min-passes", str(min_passes),
        "--t0", repr(time.monotonic()),
    ]
    try:
        completed = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as error:  # run() has killed and reaped the child
        raise BenchError(f"{mode} process for {workload} timed out after {timeout:.0f}s") from error
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if completed.returncode != 0:
        raise BenchError(
            f"{mode} process for {workload} exited {completed.returncode}:\n"
            f"{completed.stderr.strip()[-2000:]}"
        )
    lines = completed.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} process for {workload} printed nothing")
    return json.loads(lines[-1])


def _median_sum(item_seconds: dict, skip: int = 0) -> float:
    """Sum over items of each item's median time (passes before ``skip`` dropped)."""
    return sum(statistics.median(times[skip:]) for times in item_seconds.values())


def pass_times(workload: str, items: dict) -> tuple:
    """``(wall_s, warm_s)`` from per-item times over the passes."""
    if workload == "sweep_small":
        return statistics.median(items["cold"]), statistics.median(items["warm"])
    # wall_s: every pass; warm_s: passes over inputs this process has
    # already run once (equal to wall_s until a change adds reuse).
    return _median_sum(items), _median_sum(items, skip=1)


def end_to_end(workload: str, report: dict, setup_samples: list) -> dict:
    """The end-to-end metrics of one untraced measuring process; pass times
    are in reference seconds (see hostspeed.py)."""
    wall_s, warm_s = pass_times(workload, report["item_ref_seconds"])
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "wall_s": {"value": wall_s, "unit": "s"},
        "warm_s": {"value": warm_s, "unit": "s"},
        "peak_rss_mib": {"value": report["peak_rss_mib"], "unit": "MiB"},
    }


def per_layer(untraced: dict, traced: dict, failed: int, attempted: int) -> dict:
    """The per-layer metrics of a traced run, with reconciliation figures."""
    from tracer import PER_LAYER_METRICS

    metrics = {
        name: {"value": traced["layers"][name], "unit": unit}
        for name, (unit, _source) in PER_LAYER_METRICS.items()
    }
    untraced_wall = statistics.median(untraced["pass_seconds"])
    traced_wall = traced["traced_wall_s"]
    extra = {
        "bench.untraced_wall_s": (untraced_wall, "s"),
        "bench.traced_wall_s": (traced_wall, "s"),
        "bench.tracing_overhead_s": (traced_wall - untraced_wall, "s"),
        "bench.self_time_sum_s": (traced["self_sum_s"], "s"),
        "bench.reconcile_frac": (abs(traced["self_sum_s"] - traced_wall) / traced_wall, "ratio"),
        "bench.fail_frac": (failed / attempted, "ratio"),
    }
    metrics.update({name: {"value": value, "unit": unit} for name, (value, unit) in extra.items()})
    return metrics


def _check_program_present() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    _check_program_present()
    work_root = ROOT / ".perfbench_work"
    tag = f"{workload}-{os.getpid()}"
    started = time.monotonic()

    def budget() -> float:
        return max(10.0, CHILD_TIMEOUT_S - (time.monotonic() - started))

    if trace:
        half = seconds / 2.0
        untraced = _child(
            workload, seed, half, "measure", work_root / f"{tag}-m", budget(), min_passes=2
        )
        traced = _child(workload, seed, half, "trace", work_root / f"{tag}-t", budget(), min_passes=2)
        reports = [untraced, traced]
    else:
        # Cheap set-ups get more samples, so their median is as steady as
        # that of expensive ones.
        setup_samples = []
        while len(setup_samples) < SETUP_MAX_SAMPLES - 1 and (
            len(setup_samples) < SETUP_MIN_SAMPLES - 1 or sum(setup_samples) < SETUP_BUDGET_S
        ):
            work = work_root / f"{tag}-s{len(setup_samples)}"
            setup_samples.append(_child(workload, seed, 0.0, "setup", work, budget())["setup_s"])
        untraced = _child(workload, seed, seconds, "measure", work_root / f"{tag}-m", budget())
        setup_samples.append(untraced["setup_s"])
        reports = [untraced]
        wall_s, warm_s = pass_times(workload, untraced["item_seconds"])
        print(
            f"measured seconds (not host-scaled): wall_s={wall_s:.4f} warm_s={warm_s:.4f} "
            f"over {untraced['passes']} passes"
        )

    attempted = sum(report["attempted"] for report in reports)
    failed = sum(report["failed"] for report in reports)
    problems = [problem for report in reports for problem in report["problems"]]
    if trace and traced["digests"] != untraced["digests"]:
        failed += 1
        attempted += 1
        problems.append("traced run's digests differ from the untraced run's")

    for label, digest in sorted(untraced["digests"].items()):
        print(f"digest {workload} seed={seed} {label} {digest}")
    if untraced["has_reference"]:
        reference = "the committed reference"
    else:
        reference = "the first pass (no committed reference for this seed)"
    print(f"checked {attempted} results against {reference}: {failed} failed")
    for problem in problems:
        print(f"FAILED {problem}")
    if trace:
        metrics = per_layer(untraced, traced, failed, attempted)
    else:
        metrics = end_to_end(workload, untraced, setup_samples)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def write_reference(workload: str, seed: int) -> None:
    """Run ``seed`` once and store its digests in reference.json."""
    path = HERE / "reference.json"
    original = path.read_text()
    references = json.loads(original)
    # The child checks against reference.json, so drop the old entry while it runs.
    references.setdefault(workload, {}).pop(str(seed), None)
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    try:
        work = ROOT / ".perfbench_work" / f"ref-{os.getpid()}"
        report = _child(workload, seed, 0.0, "measure", work, CHILD_TIMEOUT_S, min_passes=2)
        if report["failed"]:
            raise BenchError(f"refusing to store a reference from a failing run: {report['problems']}")
    except BaseException:
        path.write_text(original)
        raise
    references[workload][str(seed)] = report["digests"]
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.write_reference:
            _check_program_present()
            write_reference(args.workload, args.seed)
            return 0
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
