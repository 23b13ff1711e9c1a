"""One command for the whole benchmark.

    python3 perfbench/run.py --workload drive_count --seed 1 --seconds 10 --trace 0

``--trace 0`` runs one gated workload (``drive_count`` or
``paper_clr``) untraced: it prints every end-to-end metric by name and
unit and runs the workload's correctness checks.  ``--trace 1`` runs
the traced profile of all three workloads, ``serve_mix`` included,
whatever ``--workload`` names: every per-layer metric, each measured
on the workload the layer belongs to, the tracing overhead of each
workload, and every workload's correctness checks.  The last line of
standard output is the result object; the line above it is the full
record (provenance, spreads, sample counts, check details) that
``compare.py`` reads.
The exit code is 0 only when every check passed.

Run from the root of a checkout: the program is imported from
``src/``.  See ``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import atexit
import importlib
import json
import signal
import sys
import time

import harness

#: Each workload is the module of that name next to this file.  The
#: gated ones have an untraced run; the traced profile covers all.
GATED = ("drive_count", "paper_clr")
PROFILED = ("drive_count", "serve_mix", "paper_clr")


def metric_names(kind: str):
    """Metric names of ``kind`` (end_to_end or per_layer) in BENCHMARK.json."""
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [metric["name"] for metric in spec[kind]]


def _failed_outcome(workload: str, exc: BaseException) -> harness.Outcome:
    outcome = harness.Outcome(workload)
    outcome.attempted = 1
    outcome.failed = 1
    outcome.check("completed", False, f"{type(exc).__name__}: {exc}")
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=GATED, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", metavar="FILE", help="also append the full record to FILE"
    )
    args = parser.parse_args(argv)
    # A terminated run still stops the server and pool it started: turn
    # SIGTERM into SystemExit so every ``finally`` runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Registered first, so it runs last: after the program's own exit
    # handlers, nothing the run started is left running.
    harness.adopt_orphans()
    atexit.register(harness.stop_descendants)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        harness.require_program()
    except harness.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    prov = harness.provenance(args.seed)

    if args.trace:
        outcomes = []
        for workload in PROFILED:
            started = time.perf_counter()
            try:
                outcome = importlib.import_module(workload).run_traced(args.seed)
            except Exception as exc:  # report the failure, keep profiling
                outcome = _failed_outcome(workload, exc)
            outcome.details["wall_s"] = time.perf_counter() - started
            outcomes.append(outcome)
        names = metric_names("per_layer")
    else:
        try:
            outcome = importlib.import_module(args.workload).run(
                args.seed, args.seconds
            )
        except Exception as exc:
            outcome = _failed_outcome(args.workload, exc)
        if "peak_rss_mb" not in outcome.metrics:
            outcome.metric("peak_rss_mb", harness.peak_rss_mb(), "MB")
        outcomes = [outcome]
        names = metric_names("end_to_end")

    if not all(o.correct for o in outcomes):
        for outcome in outcomes:
            for name, ok in outcome.checks.items():
                if not ok:
                    detail = outcome.details.get(f"check.{name}")
                    print(
                        f"perfbench: {outcome.workload}: check {name} "
                        f"failed: {detail}",
                        file=sys.stderr,
                    )
    try:
        correct = harness.emit(
            outcomes,
            mode="traced" if args.trace else "untraced",
            metric_names=names,
            prov=prov,
            out_path=args.out,
        )
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
