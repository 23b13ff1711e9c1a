"""Shared plumbing for the benchmark: paths, provenance, statistics,
set-up timing, peak memory and the result record.

Everything here is benchmark-side.  The program under test is imported
from ``src/`` of the checkout the benchmark runs in; nothing in this
package is imported by the program.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Root of the checkout: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for table files and trace dumps (git-ignored).
WORK = ROOT / ".perfbench"

#: Set-up is repeated this many times per run and the median reported.
SETUP_REPEATS = 5


class SetupError(RuntimeError):
    """The program could not be found or set up in this checkout."""


def require_program() -> None:
    """Put ``src`` on ``sys.path``; fail loudly when it is missing.

    Also drops the program's telemetry/parallelism switches from the
    environment, so neither this process nor its children inherit them.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in ("REPRO_TRACE", "REPRO_PROGRESS", "REPRO_JOBS", "REPRO_POOL"):
        os.environ.pop(name, None)
    WORK.mkdir(exist_ok=True)


def program_env() -> Dict[str, str]:
    """Environment for child interpreters: ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# -- provenance --------------------------------------------------------------


def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def core_count() -> int:
    """Cores this process may run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def provenance(seed: int) -> dict:
    """Host and build facts every result carries.

    ``nproc`` keys comparisons: results from hosts with different core
    counts are never compared (see ``compare.py``).
    """
    import numpy

    return {
        "nproc": core_count(),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "seed": int(seed),
        "platform": platform.platform(),
    }


# -- statistics --------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> List[float]:
    """First and third quartile (``statistics.quantiles`` n=4)."""
    if len(values) < 2:
        return [float(values[0]), float(values[0])]
    q = statistics.quantiles(values, n=4)
    return [float(q[0]), float(q[2])]


def summary(values: Sequence[float]) -> dict:
    return {
        "median": median(values),
        "quartiles": quartiles(values),
        "n": len(values),
    }


def tail_percentile(n: int) -> Optional[float]:
    """The highest of p90/p99/p99.9/p99.99 with >= 10 samples beyond it."""
    best = None
    for p in (90.0, 99.0, 99.9, 99.99):
        if n * (1.0 - p / 100.0) >= 10.0:
            best = p
    return best


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    n = len(sorted_values)
    rank = max(1, math.ceil(p / 100.0 * n))
    return float(sorted_values[rank - 1])


# -- set-up timing -----------------------------------------------------------


def run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter that can import the program
    and the benchmark's modules.

    A process imports a module (and fills its caches) once, so set-up
    repeats run the part that a process does once in a child each time.
    """
    env = program_env()
    here = str(Path(__file__).resolve().parent)
    env["PYTHONPATH"] = here + os.pathsep + env["PYTHONPATH"]
    subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=120
    )


# -- host speed --------------------------------------------------------------

#: What :func:`loop_rate` reads on the reference host (2-core VM,
#: CPython 3.11) in a typical minute; adjusted figures are scaled to it.
REFERENCE_LOOP_RATE = 7.0e6
#: How long one :func:`loop_rate` sample runs.
LOOP_SECONDS = 0.3


def loop_rate() -> float:
    """Iterations per second of a fixed pure-Python loop.

    A shared host's CPU speed drifts by up to 2x between runs minutes
    apart and swings by about +-15% from second to second.  Sampled
    right before and after a measured step, this loop tracks that
    speed (see :class:`HostSpeed`).
    """
    counts: Dict[int, int] = {}
    iterations = 0
    started = time.perf_counter()
    while True:
        for i in range(2000):
            counts[i & 255] = counts.get(i & 255, 0) + i
        iterations += 2000
        elapsed = time.perf_counter() - started
        if elapsed >= LOOP_SECONDS:
            return iterations / elapsed


class HostSpeed:
    """Loop samples bracketing each measured step of a run.

    Construct it right before the first step and call :meth:`step`
    right after each one.  A rate times the factor :meth:`step`
    returns, or a duration divided by it, reads what the step would
    have measured on the reference host.  A change to the program
    moves an adjusted figure exactly as it moves the measured one: the
    loop is benchmark code no program change touches.
    """

    def __init__(self):
        self.samples = [loop_rate()]

    def step(self) -> float:
        """The host factor over the step that just ended."""
        self.samples.append(loop_rate())
        return REFERENCE_LOOP_RATE / statistics.fmean(self.samples[-2:])


# -- memory ------------------------------------------------------------------


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def descendants(pid: int) -> List[int]:
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parents[int(entry)] = int(fields[1])
    found, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        for child, parent in parents.items():
            if parent == current:
                found.append(child)
                frontier.append(child)
    return found


#: ``prctl`` option that makes a process the reaper of its orphaned
#: descendants (Linux).
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the parent of every descendant that outlives
    its own parent, so :func:`stop_descendants` can reap it.

    ``multiprocessing`` starts a resource tracker that the program never
    waits for; without this, such a process outlives the run.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def stop_descendants() -> None:
    """Stop every process this run started and wait until each has ended.

    Registered with ``atexit`` before the program is imported, so it
    runs after the program's own exit handlers (pool shutdown,
    ``multiprocessing`` finalizers).
    """
    import signal
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except (OSError, ChildProcessError):
            pass
    if os.path.isdir("/proc"):
        for pid in descendants(os.getpid()):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return
        except InterruptedError:
            continue


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live descendants."""
    if not os.path.isdir("/proc"):
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pid = os.getpid()
    total_kb = _vm_hwm_kb(pid) + sum(
        _vm_hwm_kb(child) for child in descendants(pid)
    )
    return total_kb / 1024.0


def process_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of ``pid`` (Linux ``/proc``)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


# -- the result record -------------------------------------------------------


class Outcome:
    """What one workload (or one traced profile) measured and checked."""

    def __init__(self, workload: str):
        self.workload = workload
        self.metrics: Dict[str, dict] = {}
        self.checks: Dict[str, bool] = {}
        self.details: Dict[str, object] = {}
        self.attempted = 0
        self.failed = 0

    def metric(self, name: str, value: float, unit: str, **extra) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit, **extra}

    def check(self, name: str, ok: bool, detail: object = None) -> bool:
        self.checks[name] = bool(ok)
        if detail is not None:
            self.details[f"check.{name}"] = detail
        return bool(ok)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())


def build_record(
    outcomes: Sequence[Outcome],
    *,
    mode: str,
    metric_names: Sequence[str],
    prov: dict,
) -> dict:
    """The full record of one run: what ``compare.py`` reads."""
    merged: Dict[str, dict] = {}
    for outcome in outcomes:
        merged.update(outcome.metrics)
    missing = [name for name in metric_names if name not in merged]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    return {
        "kind": "perfbench",
        "workload": outcomes[0].workload if len(outcomes) == 1 else "all",
        "mode": mode,
        "provenance": prov,
        "correct": all(o.correct for o in outcomes),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 0.0,
        "metrics": {name: merged[name] for name in metric_names},
        "checks": {
            f"{o.workload}.{k}": v for o in outcomes for k, v in o.checks.items()
        },
        "details": {o.workload: o.details for o in outcomes},
    }


def emit(
    outcomes: Sequence[Outcome],
    *,
    mode: str,
    metric_names: Sequence[str],
    prov: dict,
    out_path: Optional[str] = None,
) -> bool:
    """Print the human report, the full record, and the result line.

    The last line of standard output is the one-object result the
    benchmark contract asks for; everything above it is for people
    and for ``compare.py``.
    """
    record = build_record(
        outcomes, mode=mode, metric_names=metric_names, prov=prov
    )
    for outcome in outcomes:
        print(f"== {outcome.workload} ({mode})")
        for name, data in outcome.metrics.items():
            extra = {k: v for k, v in data.items() if k not in ("value", "unit")}
            suffix = f"  {json.dumps(extra, sort_keys=True)}" if extra else ""
            print(f"  {name:40s} {data['value']:.6g} {data['unit']}{suffix}")
        for name, ok in outcome.checks.items():
            print(f"  check {name:34s} {'ok' if ok else 'FAILED'}")
    line = json.dumps(record, sort_keys=True, default=str)
    print(line)
    if out_path:
        with open(out_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
    metrics = record["metrics"]
    result = {
        "correct": record["correct"],
        "attempted": max(int(record["attempted"]), 1),
        "failed": int(record["failed"]),
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
            for name in metric_names
        },
    }
    print(json.dumps(result), flush=True)
    return record["correct"]
