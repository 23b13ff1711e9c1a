"""Batched admit-path telemetry reports what per-event calls would.

The admission engine and the decision-table cache record into
per-owner :class:`~repro.obs.metrics.BatchRecorder` buffers that fold
into the metrics registry in batches.  The contract under test: the
deterministic part of every snapshot — counters, occupancy sketches,
latency-sketch counts — is exactly what one registry call per event
produces, across mid-stream resets, after the engine is gone, and
identically for serial and pooled ``drive`` runs.
"""

import gc
import json
import weakref

import numpy as np
import pytest

from repro import obs
from repro.atm.qos import QoSRequirement
from repro.models import make_s
from repro.obs import metrics
from repro.obs.metrics import BATCH_LIMIT, MetricsRegistry
from repro.parallel.backends import ProcessPoolBackend
from repro.service.drive import drive
from repro.service.engine import REASON_SHED, AdmissionEngine
from repro.service.overload import OverloadPolicy
from repro.service.workload import ConnectionClass

CAPACITY = 30 * 538.0
LINKS = ("oc3-a", "oc3-b")


@pytest.fixture
def qos():
    return QoSRequirement(max_delay_seconds=0.020, max_clr=1e-6)


@pytest.fixture
def model():
    return make_s(1, 0.975)


@pytest.fixture
def telemetry():
    obs.enable()
    obs.reset()
    try:
        yield
    finally:
        obs.reset()
        obs.disable()


def make_engine(qos, overload=None):
    engine = AdmissionEngine(
        "bahadur-rao",
        overload=overload or OverloadPolicy(
            max_queue_depth=2, decision_seconds=0.02
        ),
    )
    for link_id in LINKS:
        engine.add_link(link_id, CAPACITY, qos)
    return engine


class Operations:
    """A seeded admit/release mix, mirrored as per-event registry calls.

    Every event the engine records is replayed into ``expected`` with
    one ``add``/``observe`` call, the way the engine recorded before
    it batched.  Latency sketches are wall-clock, so they are compared
    by count only (one placeholder observation per admit).
    """

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.live = {link_id: [] for link_id in LINKS}
        self.next_id = 0
        self.now = 0.0

    def run(self, engine, model, n_events, expected: MetricsRegistry):
        rng = self.rng
        for _ in range(n_events):
            link_id = LINKS[int(rng.integers(len(LINKS)))]
            live = self.live[link_id]
            if live and rng.random() < 0.45:
                connection_id = live.pop(int(rng.integers(len(live))))
                engine.release(link_id, connection_id)
                expected.counter("service.released").add(1)
                continue
            self.now += float(rng.exponential(0.02))
            connection_id = f"c{self.next_id}"
            self.next_id += 1
            hits = engine.tables.hits
            decision = engine.admit(
                link_id,
                model,
                connection_id,
                now=self.now,
                force_fallback=bool(rng.random() < 0.05),
            )
            if decision.reason == REASON_SHED:
                expected.counter("service.shed").add(1)
            else:
                expected.counter(
                    "service.admitted" if decision.admitted
                    else "service.blocked"
                ).add(1)
                for name in (
                    "service.admit_latency_ns",
                    f"service.admit_latency_ns.{link_id}",
                ):
                    expected.sketch(name).observe(1.0)
            if decision.fallback:
                expected.counter("service.fallback_decisions").add(1)
            if engine.tables.hits > hits:
                expected.counter("service.table_hits").add(
                    engine.tables.hits - hits
                )
            expected.sketch(f"service.occupancy.{link_id}").observe(
                decision.occupancy
            )
            if decision.admitted:
                live.append(connection_id)


def deterministic(snapshot):
    """Counters and occupancy sketches verbatim; latency by count."""
    out = {}
    for data in snapshot:
        name = data["name"]
        if not name.startswith("service.") or name == "service.table_misses":
            continue
        if name.startswith("service.admit_latency_ns"):
            out[name] = data["count"]
        else:
            out[name] = json.dumps(data, sort_keys=True)
    return out


class TestPerEventEquivalence:
    def test_snapshot_equals_per_event_calls(self, telemetry, qos, model):
        engine = make_engine(qos)
        expected = MetricsRegistry()
        Operations(1).run(engine, model, 6000, expected)
        actual = deterministic(metrics.snapshot())
        assert actual == deterministic(expected.snapshot())
        # The mix exercised every recorded path, past a buffer fold.
        for name in (
            "service.admitted",
            "service.blocked",
            "service.released",
            "service.shed",
            "service.fallback_decisions",
            "service.table_hits",
        ):
            assert name in actual
        assert actual["service.admit_latency_ns"] > BATCH_LIMIT

    def test_reset_mid_stream_drops_only_pending(
        self, telemetry, qos, model
    ):
        engine = make_engine(qos)
        ops = Operations(2)
        ops.run(engine, model, 1500, MetricsRegistry())
        metrics.reset_metrics()
        expected = MetricsRegistry()
        ops.run(engine, model, 2500, expected)
        assert deterministic(metrics.snapshot()) == deterministic(
            expected.snapshot()
        )

    def test_no_observation_lost_when_engine_is_collected(
        self, telemetry, qos, model
    ):
        expected = MetricsRegistry()

        def run_and_drop():
            engine = make_engine(qos)
            Operations(3).run(engine, model, 700, expected)
            return weakref.ref(engine)

        engine_ref = run_and_drop()
        gc.collect()
        assert engine_ref() is None
        assert deterministic(metrics.snapshot()) == deterministic(
            expected.snapshot()
        )

    def test_snapshot_twice_does_not_double_count(
        self, telemetry, qos, model
    ):
        engine = make_engine(qos)
        Operations(4).run(engine, model, 500, MetricsRegistry())
        first = deterministic(metrics.snapshot())
        assert deterministic(metrics.snapshot()) == first

    def test_disabled_records_nothing(self, qos, model):
        obs.disable()
        obs.reset()
        engine = make_engine(qos)
        Operations(5).run(engine, model, 500, MetricsRegistry())
        assert deterministic(metrics.snapshot()) == {}


class TestBoundedBuffers:
    def test_link_buffers_stay_below_the_limit(self, telemetry, qos, model):
        engine = make_engine(qos)
        Operations(6).run(engine, model, 8 * BATCH_LIMIT, MetricsRegistry())
        for link_id in LINKS:
            recorder = engine.link(link_id).telemetry
            assert all(len(b) < BATCH_LIMIT for b in recorder.buffers)
        # Full buffers were folded before any snapshot asked for them.
        occupancy = metrics.sketch(f"service.occupancy.{LINKS[0]}")
        assert occupancy.count >= BATCH_LIMIT

    def test_flush_telemetry_leaves_nothing_pending(
        self, telemetry, qos, model
    ):
        engine = make_engine(qos)
        Operations(7).run(engine, model, 300, MetricsRegistry())
        engine.flush_telemetry()
        for link_id in LINKS:
            recorder = engine.link(link_id).telemetry
            assert not recorder.pending
            assert not any(recorder.buffers)
        # Folded recorders are no longer held by the registry.
        assert not metrics.REGISTRY._pending


class TestDriveSnapshots:
    @staticmethod
    def _drive_snapshot(**extra):
        drive(
            (ConnectionClass("dar1", make_s(1, 0.975)),),
            n_links=3,
            capacity=CAPACITY,
            qos=QoSRequirement(max_delay_seconds=0.020, max_clr=1e-6),
            rho_grid=(0.95,),
            requests_per_link=1500,
            n_shards=2,
            seed=17,
            **extra,
        )
        return deterministic(metrics.snapshot())

    def test_serial_and_pooled_drive_snapshots_identical(self):
        try:
            serial = self._drive_snapshot()
            pooled = self._drive_snapshot(backend=ProcessPoolBackend(2))
        finally:
            obs.reset()
        assert serial == pooled
        assert serial["service.admit_latency_ns"] == 3 * 1500
        assert "service.occupancy.link-2" in serial
