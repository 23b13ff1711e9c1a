"""Self-tests of the benchmark: does a slowdown show up where it should?

    python3 -m pytest perfbench/tests -q      (about ten minutes)

A delay is planted from outside the program, around
``DecisionTableCache.lookup``.  It must show in the traced
``service.tables.lookup_ns``; once it is large enough it must be
flagged on ``adjusted_throughput_per_s`` for ``drive_count``; it must move
nothing on ``paper_clr``, which never looks a table up.  A slowed
Lindley kernel (``simulate_finite_buffer_batch``, in the pool workers
too) must be flagged on ``paper_clr``.  An unchanged rerun must be
flagged nowhere.  Untraced runs are child processes with short windows
(``planted_run.py`` plants the slowdown); flags come from
``compare.py`` with the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

harness.require_program()

import compare  # noqa: E402
import drive_count  # noqa: E402
from planted_run import planted_lookup_delay  # noqa: E402
from tracer import Tracer, busy_wait_ns  # noqa: E402

SECONDS = 2
#: Twice the untraced cost of a decision: clears every bound.
LARGE_DELAY_NS = 50_000
#: For the traced check: well clear of the run-to-run noise in the
#: engine's and loop's self times (about 2 us on a shared host).
TRACE_DELAY_NS = 10_000
#: The kernel takes this many times as long: S's rate roughly halves.
KERNEL_SLOWDOWN = 4.0


def _records(workload, seeds, tmp_path, plant=""):
    """Untraced benchmark runs, each in its own process like a real run."""
    out = tmp_path / f"{workload}-{seeds[0]}-{plant.replace(':', '')}.jsonl"
    env = dict(os.environ, PERFBENCH_PLANT=plant)
    for seed in seeds:
        subprocess.run(
            [
                sys.executable, str(HERE / "planted_run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(SECONDS), "--trace", "0",
                "--out", str(out),
            ],
            cwd=harness.ROOT,
            env=env,
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=300,
        )
    records = compare.load(out)
    assert len(records) == len(seeds) and all(r["correct"] for r in records)
    return records


def _flagged(base, new):
    return {
        row["metric"]
        for row in compare.compare(base, new)["rows"]
        if row["flagged"]
    }


@pytest.fixture(scope="module")
def base_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench")


@pytest.fixture(scope="module")
def drive_base(base_dir):
    return _records("drive_count", [1, 2], base_dir)


@pytest.fixture(scope="module")
def paper_base(base_dir):
    return _records("paper_clr", [1, 2], base_dir)


def test_unchanged_rerun_is_flagged_nowhere(drive_base, paper_base, tmp_path):
    assert _flagged(drive_base, _records("drive_count", [11, 12], tmp_path)) == set()
    assert _flagged(paper_base, _records("paper_clr", [11, 12], tmp_path)) == set()


def test_large_lookup_delay_is_flagged_on_drive_count_only(
    drive_base, paper_base, tmp_path
):
    plant = f"lookup:{LARGE_DELAY_NS}"
    slowed = _records("drive_count", [21, 22], tmp_path, plant)
    assert "adjusted_throughput_per_s" in _flagged(drive_base, slowed)
    untouched = _records("paper_clr", [21, 22], tmp_path, plant)
    assert _flagged(paper_base, untouched) == set()


def test_slow_kernel_is_flagged_on_paper_clr(paper_base, tmp_path):
    slowed = _records("paper_clr", [31, 32], tmp_path, f"kernel:{KERNEL_SLOWDOWN}")
    assert "adjusted_throughput_per_s" in _flagged(paper_base, slowed)


def test_lookup_delay_shows_in_lookup_ns():
    base = drive_count.run_traced(5).metrics
    with planted_lookup_delay(TRACE_DELAY_NS):
        slowed = drive_count.run_traced(5).metrics

    def moved(name):
        return slowed[name]["value"] - base[name]["value"]

    assert moved("service.tables.lookup_ns") >= 0.7 * TRACE_DELAY_NS
    # Charged to the lookup, not to the engine or loop around it.
    assert moved("service.engine.admit_self_ns") < 0.5 * TRACE_DELAY_NS
    assert moved("service.drive.loop_self_ns") < 0.5 * TRACE_DELAY_NS


def test_compare_refuses_different_core_counts(drive_base):
    other = [
        dict(r, provenance=dict(r["provenance"], nproc=r["provenance"]["nproc"] + 2))
        for r in drive_base
    ]
    with pytest.raises(ValueError):
        compare.compare(drive_base, other)


def test_self_time_excludes_children():
    tracer = Tracer()

    def child():
        busy_wait_ns(2_000_000)

    def parent():
        busy_wait_ns(1_000_000)
        traced_child()

    traced_child = tracer.wrap("child", child)
    tracer.wrap("parent", parent)()
    assert tracer.count("parent") == tracer.count("child") == 1
    assert tracer.total_ns("parent") >= tracer.total_ns("child") >= 2_000_000
    assert 1_000_000 <= tracer.self_ns("parent") < 1_500_000 + 1_000_000
    spans = {span[1]: span for span in tracer.spans}
    assert spans["child"][4] == spans["parent"][0]
    assert spans["child"][5] == spans["parent"][5]
