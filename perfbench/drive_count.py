"""Workload ``drive_count``: the admit hot path under a count policy.

``repro.service.drive.drive`` runs serially (one process, one shard):
Bahadur-Rao count policy, one class ``dar1`` (``make_s(1, 0.975)``),
4 links at C = 30 x 538 cells/frame, 20 ms / 1e-6 QoS (boundary
N = 30), exponential holding, one point at rho = 0.95.  Open loop on
the workload clock, processed as fast as possible; the metric is
decisions per second at 4 x 25,000 requests, adjusted to the reference
host speed.

Why: every admit-path layer works here (workload generation, the
argsort merge, the departure-heap drain, table lookup, engine
bookkeeping, telemetry) and no wire, sampler or pool does.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

from harness import (
    SETUP_REPEATS,
    WORK,
    HostSpeed,
    Outcome,
    run_fresh,
    median,
    summary,
)
from tracer import Tracer

NAME = "drive_count"

N_LINKS = 4
CAPACITY = 30 * 538.0
DELAY_SECONDS = 0.020
MAX_CLR = 1e-6
RHO = 0.95
POLICY = "bahadur-rao"
FALLBACK = "peak-rate"
EXPECTED_BOUNDARY = 30
MEAN_HOLDING = 90.0
REQUESTS_PER_LINK = 25_000
#: Batch-means CI for the Erlang-B oracle: 10 batches per link, and a
#: confidence level at which a correct program fails about once in a
#: thousand seeds.
BATCHES_PER_LINK = 10
ERLANG_CONFIDENCE = 0.999
MIN_CALLS = 3


@dataclass
class Context:
    classes: tuple
    qos: object
    table_path: Path
    table_compute_s: float


def build(table_path: Path) -> Context:
    """Set-up: the class model and the decision-table warm.

    The B-R inversion (and the peak-rate fallback drive also stages)
    is computed once and written as a table file that every ``drive``
    call loads, so no inversion lands in the measured region.
    """
    from repro.atm.qos import QoSRequirement
    from repro.models import make_s
    from repro.service.tables import DecisionTableCache
    from repro.service.workload import ConnectionClass

    qos = QoSRequirement(max_delay_seconds=DELAY_SECONDS, max_clr=MAX_CLR)
    classes = (ConnectionClass(name="dar1", model=make_s(1, 0.975)),)
    staging = DecisionTableCache(persist=False)
    started = time.perf_counter()
    for method in (POLICY, FALLBACK):
        staging.lookup(classes[0].model, CAPACITY, qos, method)
    compute_s = time.perf_counter() - started
    table_path.write_text(staging.dump_text(), encoding="utf-8")
    return Context(classes, qos, table_path, compute_s)


def call_drive(ctx: Context, seed: int, n_shards=None):
    from repro.service.drive import drive

    return drive(
        ctx.classes,
        n_links=N_LINKS,
        capacity=CAPACITY,
        qos=ctx.qos,
        policy=POLICY,
        rho_grid=(RHO,),
        requests_per_link=REQUESTS_PER_LINK,
        mean_holding_time=MEAN_HOLDING,
        holding="exponential",
        seed=seed,
        n_shards=n_shards,
        table_path=ctx.table_path,
    )


def _counters(point) -> Tuple[int, ...]:
    return (
        point.n_requests,
        point.admitted,
        point.blocked,
        point.shed,
        point.fallbacks,
        point.boundary_violations,
    )


def erlang_b(servers: int, erlangs: float) -> float:
    """Erlang-B blocking by the standard recursion."""
    blocking = 1.0
    for k in range(1, servers + 1):
        blocking = erlangs * blocking / (k + erlangs * blocking)
    return blocking


def _separating_shards(n_links: int) -> int:
    """Smallest shard count >= n_links that gives each link a shard."""
    from repro.service.frontend import ConsistentHashRing

    for n_shards in range(n_links, 8 * n_links):
        ring = ConsistentHashRing(n_shards)
        placed = {ring.shard_for(f"link-{i}") for i in range(n_links)}
        if len(placed) == n_links:
            return n_shards
    raise RuntimeError("no shard count separates the links")


def check(out: Outcome, ctx: Context, seed: int, reports) -> None:
    """Correctness of the measured ``drive`` calls.

    * every call made the same decisions, with no boundary violation;
    * per-link counters equal a serial ``replay_link`` of the same
      seed (per-link counts come from one extra ``drive`` call whose
      shard count puts each link on its own shard, which the drive
      contract says must not change any counter);
    * pooled blocking lies in a batch-means CI around Erlang-B(30,
      0.95 x 30), an oracle independent of the program.
    """
    import numpy as np

    from repro.queueing.batch_means import batch_means
    from repro.service.drive import derive_arrival_rate
    from repro.service.engine import AdmissionEngine
    from repro.service.replay import replay_link
    from repro.service.workload import WorkloadSpec
    from repro.utils.rng import spawn_generators

    points = [r.points[0] for r in reports]
    first = _counters(points[0])
    out.check("calls_identical", all(_counters(p) == first for p in points))
    out.check(
        "boundary",
        reports[0].admissible == EXPECTED_BOUNDARY
        and all(p.boundary_violations == 0 for p in points),
        {"admissible": reports[0].admissible},
    )

    n_shards = _separating_shards(N_LINKS)
    split = call_drive(ctx, seed, n_shards=n_shards)
    from repro.service.frontend import ConsistentHashRing

    ring = ConsistentHashRing(n_shards)
    by_link = {
        i: split.points[0].shards[ring.shard_for(f"link-{i}")]
        for i in range(N_LINKS)
    }

    spec = WorkloadSpec(
        n_requests=REQUESTS_PER_LINK,
        arrival_rate=derive_arrival_rate(RHO, EXPECTED_BOUNDARY, MEAN_HOLDING),
        mean_holding_time=MEAN_HOLDING,
        holding="exponential",
    )
    original = AdmissionEngine.admit
    outcomes: List[bool] = []

    def recording(self, *args, **kwargs):
        decision = original(self, *args, **kwargs)
        outcomes.append(decision.admitted)
        return decision

    AdmissionEngine.admit = recording
    try:
        links = [
            replay_link(
                spec,
                ctx.classes,
                capacity=CAPACITY,
                qos=ctx.qos,
                policy=POLICY,
                rng=generator,
                link_index=i,
                table_path=ctx.table_path,
            )
            for i, generator in enumerate(spawn_generators(seed, N_LINKS))
        ]
    finally:
        AdmissionEngine.admit = original

    mismatches = []
    for i, stats in enumerate(links):
        shard = by_link[i]
        ours = (shard.n_requests, shard.admitted, shard.blocked, shard.shed,
                shard.fallbacks, shard.boundary_violations, shard.peak_occupancy)
        theirs = (stats.n_requests, stats.admitted, stats.blocked, stats.shed,
                  stats.fallbacks, stats.boundary_violations,
                  stats.peak_occupancy)
        if ours != theirs:
            mismatches.append({"link": i, "drive": ours, "replay": theirs})
    totals = (
        sum(s.n_requests for s in links),
        sum(s.admitted for s in links),
        sum(s.blocked for s in links),
    )
    out.check(
        "per_link_equals_replay",
        not mismatches and totals == first[:3] and _counters(split.points[0]) == first,
        {"mismatches": mismatches},
    )

    blocked = 1.0 - np.asarray(outcomes, dtype=float)
    estimate = batch_means(
        blocked, N_LINKS * BATCHES_PER_LINK, confidence=ERLANG_CONFIDENCE
    )
    oracle = erlang_b(EXPECTED_BOUNDARY, RHO * EXPECTED_BOUNDARY)
    pooled = first[2] / first[0]
    out.check(
        "erlang_b",
        len(outcomes) == first[0]
        and abs(estimate.mean - pooled) < 1e-12
        and abs(oracle - pooled) <= estimate.half_width,
        {
            "pooled_blocking": pooled,
            "erlang_b": oracle,
            "ci_half_width": estimate.half_width,
            "confidence": ERLANG_CONFIDENCE,
            "batches": estimate.n_batches,
        },
    )


def run(seed: int, seconds: float) -> Outcome:
    """The untraced run: end-to-end metrics and every check."""
    out = Outcome(NAME)
    table_path = WORK / f"{NAME}-table.jsonl"
    setups, raw_setups = [], []
    host = HostSpeed()
    # A process imports the program once, so each set-up (imports +
    # decision-table warm) runs in a fresh interpreter.
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        run_fresh(
            "import repro.service.drive, repro.service.replay, drive_count; "
            f"drive_count.build(drive_count.WORK / {table_path.name!r})"
        )
        raw_setups.append(time.perf_counter() - started)
        setups.append(raw_setups[-1] / host.step())
    ctx = build(table_path)

    rates, adjusted_rates, reports = [], [], []
    deadline = time.perf_counter() + seconds
    while len(rates) < MIN_CALLS or time.perf_counter() < deadline:
        # Start every call from the same collector state: a full
        # collection landing inside some calls but not others is noise.
        gc.collect()
        started = time.perf_counter()
        report = call_drive(ctx, seed)
        wall = time.perf_counter() - started
        point = report.points[0]
        out.attempted += point.n_requests
        rates.append(point.n_requests / wall)
        adjusted_rates.append(rates[-1] * host.step())
        reports.append(report)

    out.metric("setup_s", median(setups), "s", **summary(setups),
               raw=summary(raw_setups))
    out.metric("adjusted_throughput_per_s", median(adjusted_rates), "1/s",
               **summary(adjusted_rates), raw=summary(rates))
    out.details["decisions_per_s"] = summary(rates)
    out.details["host_loop_rate"] = summary(host.samples)
    out.details["decisions_per_call"] = reports[0].points[0].n_requests
    check(out, ctx, seed, reports)
    return out


def run_traced(seed: int) -> Outcome:
    """Per-layer metrics: one untraced and one traced ``drive`` call."""
    import importlib

    import repro.obs.metrics as obs_metrics
    from repro.service.engine import AdmissionEngine
    from repro.service.tables import DecisionTableCache

    # ``repro.service`` re-exports the ``drive`` function under the
    # submodule's name, so fetch the module itself.
    drive_module = importlib.import_module("repro.service.drive")
    out = Outcome(NAME)
    ctx = build(WORK / f"{NAME}-table.jsonl")
    out.metric("setup.table_compute_s", ctx.table_compute_s, "s", n=2)

    gc.collect()
    started = time.perf_counter()
    plain = call_drive(ctx, seed)
    plain_wall = time.perf_counter() - started

    caches = []
    original_init = DecisionTableCache.__init__

    def remembering_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        caches.append(self)

    tracer = Tracer()
    DecisionTableCache.__init__ = remembering_init
    try:
        with tracer:
            tracer.patch(drive_module, "generate_workload", "service.workload.generate")
            tracer.patch(AdmissionEngine, "admit", "service.engine.admit")
            tracer.patch(AdmissionEngine, "release", "service.engine.release")
            tracer.patch(DecisionTableCache, "lookup", "service.tables.lookup")
            tracer.patch(obs_metrics, "observe_sketch", "obs.observe_sketch")
            tracer.patch(obs_metrics, "add", "obs.add")
            gc.collect()
            started = time.perf_counter()
            traced = call_drive(ctx, seed)
            traced_wall = time.perf_counter() - started
    finally:
        DecisionTableCache.__init__ = original_init
    tracer.dump(WORK / f"trace-{NAME}.jsonl", workload=NAME, seed=seed)

    point = traced.points[0]
    decisions = point.n_requests
    out.attempted += plain.points[0].n_requests + decisions
    out.check(
        "traced_equals_untraced",
        _counters(point) == _counters(plain.points[0])
        and point.boundary_violations == 0,
    )

    loop_ns = point.shards[0].elapsed_seconds * 1e9
    generate_ns = tracer.total_ns("service.workload.generate")
    admit_total = tracer.total_ns("service.engine.admit")
    release_total = tracer.total_ns("service.engine.release")
    merge_ns = traced_wall * 1e9 - generate_ns - loop_ns
    loop_self = loop_ns - admit_total - release_total
    admits = tracer.count("service.engine.admit")
    releases = tracer.count("service.engine.release")
    lookups = tracer.count("service.tables.lookup")
    telemetry_calls = tracer.count("obs.observe_sketch") + tracer.count("obs.add")
    telemetry_ns = tracer.self_ns("obs.observe_sketch") + tracer.self_ns("obs.add")
    hits = sum(c.stats()["hits"] for c in caches)
    misses = sum(c.stats()["misses"] for c in caches)

    out.metric("service.workload.generate_s", generate_ns / 1e9, "s",
               n=tracer.count("service.workload.generate"))
    out.metric("service.drive.merge_s", merge_ns / 1e9, "s", n=1)
    out.metric("service.drive.loop_self_ns", loop_self / decisions, "ns", n=decisions)
    out.metric("service.engine.admit_self_ns",
               tracer.self_ns("service.engine.admit") / max(admits, 1), "ns", n=admits)
    out.metric("service.engine.release_self_ns",
               tracer.self_ns("service.engine.release") / max(releases, 1), "ns",
               n=releases)
    out.metric("service.engine.releases_per_decision", releases / decisions,
               "count", n=decisions)
    out.metric("service.tables.lookup_ns",
               tracer.self_ns("service.tables.lookup") / max(lookups, 1), "ns",
               n=lookups)
    out.metric("service.tables.lookups_per_decision", lookups / decisions,
               "count", n=decisions)
    out.metric("service.tables.hit_ratio", hits / max(hits + misses, 1), "ratio",
               n=hits + misses)
    out.metric("obs.telemetry_ns", telemetry_ns / decisions, "ns", n=telemetry_calls)
    out.metric("obs.calls_per_decision", telemetry_calls / decisions, "count",
               n=decisions)

    per_decision = traced_wall * 1e9 / decisions
    accounted = (
        generate_ns + merge_ns + loop_self
        + tracer.self_ns("service.engine.admit")
        + tracer.self_ns("service.engine.release")
        + tracer.self_ns("service.tables.lookup")
        + telemetry_ns
    ) / decisions
    out.metric("trace.drive_count.overhead_ratio", traced_wall / plain_wall - 1.0,
               "ratio", untraced_s=plain_wall, traced_s=traced_wall)
    out.metric("trace.drive_count.accounted_share", accounted / per_decision,
               "ratio", traced_ns_per_decision=per_decision, n=decisions)
    return out
