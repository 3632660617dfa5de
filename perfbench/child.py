"""One benchmark process: set up a workload, then time (and check) passes.

Started by ``run.py`` in a fresh interpreter so that set-up time includes
the imports and the peak RSS is this process's own.  Modes:

* ``setup`` — set up and run the warm-up call, report set-up time, exit;
* ``measure`` — set up, then run timed passes for ``--seconds``;
* ``trace`` — as ``measure`` with the layer wrappers of ``tracer.py``
  installed, reporting per-layer self times and counts of the median pass.

Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_PASSES = 200


def _peak_rss_mib() -> float:
    """This process's high-water RSS (VmHWM), in MiB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"repro imported from {source}, not from {ROOT / 'src'}")


class Checker:
    """Digest check of every labelled result against the expected digests.

    Expected digests come from the committed reference for this seed when
    there is one; otherwise the first digest seen for a label becomes the
    expectation, so later passes (and the warm sweep) must reproduce it.
    """

    def __init__(self, reference: dict | None) -> None:
        self.expected = dict(reference or {})
        self.has_reference = reference is not None
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.labels_per_item: dict = {}

    def check(self, label: str, digest: str) -> None:
        self.attempted += 1
        expected = self.expected.setdefault(label, digest)
        if digest != expected:
            self.failed += 1
            self.problems.append(f"{label}: digest {digest[:12]} != expected {expected[:12]}")

    def raised(self, item_label: str, error: Exception) -> None:
        count = self.labels_per_item.get(item_label, 1)
        self.attempted += count
        self.failed += count
        where = traceback.extract_tb(error.__traceback__)[-1]
        self.problems.append(
            f"{item_label}: raised {type(error).__name__} at {where.filename}:{where.lineno}: {error}"
        )


def run_pass(workload, checker: Checker, tracer=None) -> dict:
    """Run every item once; return per-item seconds (measured, and in
    reference seconds) and the pass's digests."""
    from workloads import digest_of

    seconds: dict = {}
    ref_seconds: dict = {}
    payloads: dict = {}
    digests: dict = {}
    for item in workload.items:
        if item.prepare is not None:
            item.prepare()
        sampler = hostspeed.Sampler(interval=None if tracer is not None else hostspeed.INTERVAL_S)
        try:
            with sampler:
                output = item.call() if tracer is None else tracer.call("bench", item.call)
        except Exception as error:  # a raising item counts as failed; the run goes on
            checker.raised(item.label, error)
            continue
        finally:
            seconds[item.label] = sampler.seconds
            ref_seconds[item.label] = sampler.reference_seconds
        results = item.payloads(output)
        checker.labels_per_item[item.label] = len(results)
        for label, payload in results.items():
            digest = digest_of(payload)
            checker.check(label, digest)
            digests[label] = digest
        payloads.update(results)
    for label, consistent in sorted(workload.check_pass(payloads).items()):
        checker.attempted += 1
        if not consistent:
            checker.failed += 1
            checker.problems.append(f"{label}: fails the workload's consistency check")
    return {"seconds": seconds, "ref_seconds": ref_seconds, "digests": digests}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--work", required=True, help="scratch directory for this process")
    parser.add_argument("--min-passes", type=int, default=3)
    args = parser.parse_args(argv)

    _import_program()
    import tracer as tracing
    import workloads

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    workload = workloads.build(args.workload, args.seed, work)
    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload.warmup()
    setup_s = time.monotonic() - args.t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "peak_rss_mib": _peak_rss_mib()}))
        return 0

    references = json.loads((HERE / "reference.json").read_text())
    reference = references.get(args.workload, {}).get(str(args.seed))
    checker = Checker(reference)
    passes = []
    started = time.perf_counter()
    while len(passes) < MAX_PASSES:
        if tracer is not None:
            tracer.reset()
        result = run_pass(workload, checker, tracer)
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer)
            result["self_sum_s"] = sum(tracer.self_seconds.values())
        passes.append(result)
        elapsed = time.perf_counter() - started
        mean_pass = elapsed / len(passes)
        if len(passes) >= args.min_passes and elapsed + mean_pass > args.seconds:
            break
    peak_rss_mib = _peak_rss_mib()
    if workload.final_check is not None:
        problems = workload.final_check(passes[0]["digests"])
        checker.attempted += 1
        checker.failed += bool(problems)
        checker.problems.extend(problems)

    item_seconds, item_ref_seconds = (
        {item.label: [p[key][item.label] for p in passes] for item in workload.items}
        for key in ("seconds", "ref_seconds")
    )
    report = {
        "setup_s": setup_s,
        "item_ref_seconds": item_ref_seconds,
        "peak_rss_mib": peak_rss_mib,
        "passes": len(passes),
        "item_seconds": item_seconds,
        "pass_seconds": [sum(p["seconds"].values()) for p in passes],
        "digests": passes[0]["digests"],
        "has_reference": checker.has_reference,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems[:20],
    }
    if tracer is not None:
        median_pass = statistics.median_low(report["pass_seconds"])
        chosen = passes[report["pass_seconds"].index(median_pass)]
        report["layers"] = chosen["layers"]
        report["traced_wall_s"] = median_pass
        report["self_sum_s"] = chosen["self_sum_s"]
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
