"""Workload ``paper_clr``: the paper's LRD-vs-Markov CLR comparison.

``repro.queueing.replicated_clr_curve`` at ``jobs=2`` on the warm
pool (warmed during set-up), over Fig. 8's buffer grid: 0-20 ms,
N = 30 sources, c = 538 cells/frame each.  Two models, each with its
own depth: Z^0.975 (``make_z(0.975)``, 16 replications x 750 frames)
and its DAR(1) fit S (``make_s(1, 0.975)``, 16 x 40,000 frames).

Why: this is the paper's own comparison and it leaves the service
layers out.  For Z the FBNDP ON/OFF sampler is nearly all the time;
for S sampling is negligible and the 2-D Lindley kernel and pool
dispatch do the work, so a sampler gain and a kernel or dispatch gain
each move one curve's rate and leave the other alone.  The gated
figure is the geometric mean of the two rates, so each curve carries
equal weight: a 2x gain in either moves it by about 41%.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import List

import numpy as np

from harness import (
    SETUP_REPEATS,
    HostSpeed,
    Outcome,
    descendants,
    run_fresh,
    median,
    peak_rss_mb,
    summary,
)
from tracer import Tracer

NAME = "paper_clr"
#: Set-up imports these in a fresh interpreter; the pool warm imports
#: them in each worker.
IMPORTS = "import repro.queueing, repro.models, repro.parallel.backends"

JOBS = 2
N_SOURCES = 30
C_PER_SOURCE = 538.0
DELAYS_MS = (0.0, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0)
#: (label, replications, frames per replication)
LRD = ("Z^0.975", 16, 750)
MARKOV = ("S(DAR1)", 16, 40_000)
MIN_PAIRS = 2
#: The zero-buffer calibration check compares replication CIs at this
#: confidence (t intervals over the replications).
CONFIDENCE = 0.999
#: Seed offset between the two models' replication streams.
MARKOV_SEED_OFFSET = 7919
#: How long :func:`shutdown` waits for pool workers to exit.
WORKER_EXIT_TIMEOUT_S = 20.0


@dataclass
class Curve:
    label: str
    mux: object
    buffers: np.ndarray
    replications: int
    frames: int
    seed_offset: int

    @property
    def work(self) -> int:
        return self.replications * self.frames

    @property
    def batch(self) -> int:
        """Replications per task: what ``jobs=2`` auto-sizes to."""
        return math.ceil(self.replications / (JOBS * 2))


def build() -> List[Curve]:
    from repro.models import make_s, make_z
    from repro.queueing import ATMMultiplexer
    from repro.utils.units import delay_to_buffer_cells

    curves = []
    for (label, replications, frames), model, offset in (
        (LRD, make_z(0.975), 0),
        (MARKOV, make_s(1, 0.975), MARKOV_SEED_OFFSET),
    ):
        mux = ATMMultiplexer(model, N_SOURCES, C_PER_SOURCE, buffer_cells=0.0)
        buffers = np.array(
            [
                delay_to_buffer_cells(d / 1e3, mux.capacity, model.frame_duration)
                for d in DELAYS_MS
            ]
        )
        curves.append(Curve(label, mux, buffers, replications, frames, offset))
    return curves


def _pool_workers() -> List[int]:
    """Live worker processes of this process's pools (spawned children)."""
    workers = []
    for pid in descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                if b"spawn_main" in handle.read():
                    workers.append(pid)
        except OSError:
            continue
    return workers


def warm() -> float:
    """Start the shared warm pool; seconds until its workers are up."""
    from repro.parallel.backends import warm_pool

    started = time.perf_counter()
    warm_pool(JOBS).warm()
    return time.perf_counter() - started


def shutdown() -> None:
    """Stop the warm pool and wait until its workers have exited."""
    from repro.parallel.backends import shutdown_warm_pools

    shutdown_warm_pools()
    deadline = time.monotonic() + WORKER_EXIT_TIMEOUT_S
    while _pool_workers() and time.monotonic() < deadline:
        time.sleep(0.05)


def simulate(curve: Curve, seed: int, *, serial: bool):
    from repro.parallel.backends import SerialBackend
    from repro.queueing import replicated_clr_curve

    kwargs = (
        {"backend": SerialBackend(), "batch": curve.batch}
        if serial
        else {"jobs": JOBS}
    )
    started = time.perf_counter()
    result = replicated_clr_curve(
        curve.mux,
        curve.buffers,
        curve.frames,
        curve.replications,
        rng=seed + curve.seed_offset,
        label=curve.label,
        **kwargs,
    )
    return result, time.perf_counter() - started


def serial_reference(curves: List[Curve], seed: int, tracer: Tracer = None):
    """Serial runs of both curves, recording per-replication zero-buffer
    losses from the batched Lindley kernel."""
    import repro.queueing.replication as replication

    kernel = replication.simulate_finite_buffer_batch
    zero_buffer: List[tuple] = []

    def recording(arrivals, capacity, buffer_size):
        result = kernel(arrivals, capacity, buffer_size)
        if buffer_size == 0.0:
            zero_buffer.append((result.total_lost, result.arrived_cells.copy()))
        return result

    results = []
    replication.simulate_finite_buffer_batch = recording
    try:
        if tracer is not None:
            tracer.patch(
                replication, "simulate_finite_buffer_batch", "queueing.lindley"
            )
        for curve in curves:
            zero_buffer.clear()
            result, wall = simulate(curve, seed, serial=True)
            lost = np.concatenate([z[0] for z in zero_buffer])
            arrived = np.concatenate([z[1] for z in zero_buffer])
            results.append((result, wall, lost / arrived))
    finally:
        if tracer is not None:
            tracer.restore()
        replication.simulate_finite_buffer_batch = kernel
    return results


def _ci(values: np.ndarray):
    from scipy import stats

    mean = float(values.mean())
    half = float(
        stats.t.ppf(0.5 + CONFIDENCE / 2.0, df=len(values) - 1)
        * values.std(ddof=1)
        / math.sqrt(len(values))
    )
    return mean, half


def zero_buffer_oracle(curve: Curve) -> float:
    """S's zero-buffer CLR in closed form: E[(A - C)+] / E[A].

    At zero buffer each frame loses max(A - C, 0) cells, so the CLR
    depends only on the aggregate marginal.  S's sources are stationary
    DAR(1) chains with an unclipped Gaussian marginal, so the aggregate
    frame A is exactly N(N mu, N sigma^2).
    """
    from scipy import stats

    model = curve.mux.model
    mean = N_SOURCES * model.mean
    sd = math.sqrt(N_SOURCES * model.variance)
    gap = curve.mux.capacity - mean
    return float(
        (sd * stats.norm.pdf(gap / sd) - gap * stats.norm.sf(gap / sd)) / mean
    )


def check(out: Outcome, curves, parallel_runs, reference) -> None:
    """Correctness of the measured curves.

    * every ``jobs=2`` curve is bit-identical to the serial run of the
      same batched code path;
    * each curve is non-increasing in buffer size;
    * zero-buffer calibration (both models have the same marginal):
      S's replication CI must hold the closed-form zero-buffer CLR
      (two-sided), and Z's zero-buffer CLR must not lie significantly
      above S's.  Z is checked one-sided only: at this depth its
      per-replication CLR is so skewed by long-range dependence that
      its t interval often sits below the true value (see README).
    """
    identical = all(
        np.array_equal(result.clr, reference[i][0].clr)
        and result.total_arrived == reference[i][0].total_arrived
        for run in parallel_runs
        for i, result in enumerate(run)
    )
    out.check("jobs2_bit_identical_to_serial", identical)
    monotone = all(
        bool(np.all(np.diff(ref[0].clr) <= 0.0)) for ref in reference
    )
    out.check(
        "clr_non_increasing",
        monotone,
        {c.label: ref[0].clr.tolist() for c, ref in zip(curves, reference)},
    )
    (z_mean, z_half), (s_mean, s_half) = (_ci(ref[2]) for ref in reference)
    oracle = zero_buffer_oracle(curves[1])
    out.check(
        "markov_zero_buffer_oracle",
        abs(s_mean - oracle) <= s_half,
        {"confidence": CONFIDENCE, "markov_clr0": [s_mean, s_half],
         "closed_form": oracle},
    )
    overlap = abs(z_mean - s_mean) <= z_half + s_half
    not_above = z_mean - z_half <= s_mean + s_half
    out.check(
        "zero_buffer_calibration",
        not_above,
        {
            "confidence": CONFIDENCE,
            "lrd_clr0": [z_mean, z_half],
            "markov_clr0": [s_mean, s_half],
            "two_sided_overlap": overlap,
            "lrd_zero_replications": int(np.sum(reference[0][2] == 0.0)),
        },
    )


def run(seed: int, seconds: float) -> Outcome:
    """The untraced run: end-to-end metrics and every check."""
    out = Outcome(NAME)
    setups, raw_setups = [], []
    try:
        shutdown()
        host = HostSpeed()
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            run_fresh(IMPORTS)
            curves = build()
            warm()
            raw_setups.append(time.perf_counter() - started)
            setups.append(raw_setups[-1] / host.step())
            if len(setups) < SETUP_REPEATS:
                shutdown()
        walls, factors, runs = [], [], []
        deadline = time.perf_counter() + seconds
        while len(walls) < MIN_PAIRS or time.perf_counter() < deadline:
            pair = []
            for curve in curves:
                pair.append(simulate(curve, seed, serial=False))
                factors.append(host.step())
            (z, z_wall), (s, s_wall) = pair
            runs.append((z, s))
            walls.append((z_wall, s_wall))
            out.attempted += sum(c.replications for c in curves)
        out.metric("peak_rss_mb", peak_rss_mb(), "MB")
    finally:
        shutdown()
    lrd, markov = curves
    lrd_rates = [lrd.work / z for z, _ in walls]
    markov_rates = [markov.work / s for _, s in walls]
    adjusted = [
        math.sqrt(a * factors[2 * i] * b * factors[2 * i + 1])
        for i, (a, b) in enumerate(zip(lrd_rates, markov_rates))
    ]
    raw = [math.sqrt(a * b) for a, b in zip(lrd_rates, markov_rates)]
    out.metric("setup_s", median(setups), "s", **summary(setups),
               raw=summary(raw_setups))
    out.metric("adjusted_throughput_per_s", median(adjusted), "1/s",
               **summary(adjusted), raw=summary(raw))
    out.details["host_loop_rate"] = summary(host.samples)
    out.details["lrd_frames_per_s"] = summary(lrd_rates)
    out.details["markov_frames_per_s"] = summary(markov_rates)
    out.details["frames"] = {
        c.label: {"replications": c.replications, "frames": c.frames}
        for c in curves
    }
    check(out, curves, runs, serial_reference(curves, seed))
    return out


def run_traced(seed: int) -> Outcome:
    """Per-layer metrics: parallel walls, then serial runs untraced and
    traced (samplers and the Lindley kernel wrapped)."""
    from repro.models.dar import DARModel
    from repro.models.fbndp import FBNDPModel

    out = Outcome(NAME)
    curves = build()
    try:
        shutdown()
        out.metric("setup.pool_warm_s", warm(), "s", n=1)
        parallel = [simulate(curve, seed, serial=False) for curve in curves]
    finally:
        shutdown()
    plain = serial_reference(curves, seed)
    tracer = Tracer()
    tracer.patch(FBNDPModel, "sample_aggregate", "models.fbndp.sample")
    tracer.patch(DARModel, "sample_aggregate", "models.dar.sample")
    traced = serial_reference(curves, seed, tracer)
    out.attempted += 3 * sum(c.replications for c in curves)

    check(out, curves, [[r for r, _ in parallel], [r[0] for r in traced]], plain)
    parallel_wall = sum(wall for _, wall in parallel)
    compute_ns = sum(
        tracer.self_ns(name)
        for name in ("models.fbndp.sample", "models.dar.sample", "queueing.lindley")
    )
    out.metric("models.fbndp.sample_s", tracer.self_ns("models.fbndp.sample") / 1e9,
               "s", n=tracer.count("models.fbndp.sample"))
    out.metric("models.dar.sample_s", tracer.self_ns("models.dar.sample") / 1e9,
               "s", n=tracer.count("models.dar.sample"))
    out.metric("queueing.lindley_s", tracer.self_ns("queueing.lindley") / 1e9,
               "s", n=tracer.count("queueing.lindley"))
    out.metric("parallel.efficiency", compute_ns / 1e9 / (JOBS * parallel_wall),
               "ratio", parallel_wall_s=parallel_wall, compute_s=compute_ns / 1e9)
    out.metric("parallel.overhead_s", parallel_wall - compute_ns / 1e9 / JOBS, "s",
               n=len(curves))
    out.metric("parallel.tasks",
               sum(math.ceil(c.replications / c.batch) for c in curves), "count",
               n=len(curves))
    plain_wall = sum(r[1] for r in plain)
    traced_wall = sum(r[1] for r in traced)
    out.metric("trace.paper_clr.overhead_ratio", traced_wall / plain_wall - 1.0,
               "ratio", untraced_s=plain_wall, traced_s=traced_wall)
    out.details["lrd_frames_per_s"] = curves[0].work / parallel[0][1]
    out.details["markov_frames_per_s"] = curves[1].work / parallel[1][1]
    return out
