"""Run the benchmark with a slowdown planted around one program function.

    PERFBENCH_PLANT=lookup:50000 python3 perfbench/tests/planted_run.py RUN_ARGS...
    PERFBENCH_PLANT=kernel:3 python3 perfbench/tests/planted_run.py RUN_ARGS...

``RUN_ARGS`` are ``run.py``'s arguments.  The program is not edited:
the function is wrapped before the benchmark starts.  ``lookup:NS`` spins NS nanoseconds before every
``DecisionTableCache.lookup``; ``kernel:K`` makes every
``simulate_finite_buffer_batch`` call as the replication layer makes
it take K times as long.  The wrapper is installed when this module
is imported, so it reaches the warm pool's spawned workers too: they
import the parent's main script before their first task.  Without
``PERFBENCH_PLANT`` the run is a plain ``run.py`` run.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import harness  # noqa: E402
from tracer import busy_wait_ns  # noqa: E402


def delay_lookup(delay_ns: int):
    """Spin ``delay_ns`` before every lookup; returns the original."""
    from repro.service.tables import DecisionTableCache

    original = DecisionTableCache.lookup

    def delayed(self, *args, **kwargs):
        busy_wait_ns(delay_ns)
        return original(self, *args, **kwargs)

    DecisionTableCache.lookup = delayed
    return original


@contextmanager
def planted_lookup_delay(delay_ns: int):
    from repro.service.tables import DecisionTableCache

    original = delay_lookup(delay_ns)
    try:
        yield
    finally:
        DecisionTableCache.lookup = original


def slow_kernel(factor: float) -> None:
    """Make the replication layer's Lindley kernel ``factor`` x slower."""
    import repro.queueing.replication as replication

    original = replication.simulate_finite_buffer_batch

    def slowed(*args, **kwargs):
        started = perf_counter_ns()
        result = original(*args, **kwargs)
        busy_wait_ns(int((factor - 1.0) * (perf_counter_ns() - started)))
        return result

    replication.simulate_finite_buffer_batch = slowed


def plant_from_environment() -> None:
    spec = os.environ.get("PERFBENCH_PLANT")
    if not spec:
        return
    kind, amount = spec.split(":")
    if kind == "lookup":
        delay_lookup(int(amount))
    elif kind == "kernel":
        slow_kernel(float(amount))
    else:
        raise ValueError(f"unknown PERFBENCH_PLANT {spec!r}")


harness.require_program()
plant_from_environment()


def main() -> int:
    import run

    return run.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
