"""Tests for repro.obs.metrics: instruments, registry, no-op path."""

from __future__ import annotations

import math
import threading

import pytest

import repro.obs as obs
from repro.obs import metrics
from repro.obs.metrics import (
    BATCH_LIMIT,
    BatchRecorder,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    _bucket_index,
)


class TestCounter:
    def test_accumulates(self):
        c = Counter("frames")
        c.add()
        c.add(41)
        assert c.value == 42

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            Counter("x").add(-1)

    def test_to_dict(self):
        c = Counter("frames")
        c.add(7)
        assert c.to_dict() == {
            "type": "counter",
            "name": "frames",
            "value": 7.0,
        }


class TestGauge:
    def test_last_value_wins(self):
        g = Gauge("util")
        assert g.value is None
        g.set(0.5)
        g.set(0.87)
        assert g.value == 0.87


class TestHistogram:
    def test_summary_stats(self):
        h = Histogram("busy")
        h.observe_many([1, 2, 3, 10])
        assert h.count == 4
        assert h.sum == 16.0
        assert h.mean == 4.0
        assert h.min == 1.0
        assert h.max == 10.0

    def test_empty_stats_are_nan(self):
        h = Histogram("busy")
        assert math.isnan(h.mean)
        assert math.isnan(h.min)

    def test_power_of_two_buckets(self):
        assert _bucket_index(0.5) == 0
        assert _bucket_index(1.0) == 0
        assert _bucket_index(2.0) == 1
        assert _bucket_index(3.0) == 2
        assert _bucket_index(1024.0) == 10
        h = Histogram("busy")
        h.observe_many([1, 2, 2, 3, 100])
        assert h.buckets() == {1.0: 1, 2.0: 2, 4.0: 1, 128.0: 1}

    def test_to_dict_buckets_are_json_keys(self):
        h = Histogram("busy")
        h.observe(5)
        d = h.to_dict()
        assert d["buckets"] == {"8": 1}
        assert d["count"] == 1


class TestRegistry:
    def test_same_name_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("a")

    def test_snapshot_sorted_and_plain(self):
        reg = MetricsRegistry()
        reg.counter("b").add(1)
        reg.counter("a").add(2)
        reg.gauge("z").set(3)
        snap = reg.snapshot()
        assert [m["name"] for m in snap] == ["a", "b", "z"]
        assert all(isinstance(m, dict) for m in snap)

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("a").add(1)
        reg.reset()
        assert reg.snapshot() == []


class TestModuleHelpers:
    def test_disabled_helpers_record_nothing(self):
        assert not obs.is_enabled()
        metrics.reset_metrics()
        metrics.add("frames", 100)
        metrics.set_gauge("util", 0.9)
        metrics.observe("busy", 4)
        metrics.observe_many("busy", [1, 2])
        assert metrics.snapshot() == []

    def test_enabled_helpers_record(self, telemetry):
        metrics.add("frames", 100)
        metrics.add("frames", 20)
        metrics.set_gauge("util", 0.9)
        metrics.observe_many("busy", [1, 8])
        snap = {m["name"]: m for m in metrics.snapshot()}
        assert snap["frames"]["value"] == 120
        assert snap["util"]["value"] == 0.9
        assert snap["busy"]["count"] == 2

    def test_counter_thread_safety(self, telemetry):
        def work():
            for _ in range(1000):
                metrics.add("hits")

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert metrics.counter("hits").value == 4000


class TestMergeSnapshot:
    def test_counters_add_and_gauges_adopt(self, telemetry):
        from repro.obs import metrics

        metrics.add("cells_lost", 3)
        metrics.merge_snapshot(
            [
                {"type": "counter", "name": "cells_lost", "value": 2.0},
                {"type": "gauge", "name": "utilization", "value": 0.9},
            ]
        )
        snap = {d["name"]: d for d in metrics.snapshot()}
        assert snap["cells_lost"]["value"] == 5.0
        assert snap["utilization"]["value"] == 0.9

    def test_histograms_merge_counts_extrema_buckets(self, telemetry):
        from repro.obs import metrics

        metrics.observe_many("busy", [1.0, 3.0])
        local = metrics.histogram("busy")
        foreign = {
            "type": "histogram",
            "name": "busy",
            "count": 2,
            "sum": 40.0,
            "min": 0.5,
            "max": 32.0,
            "buckets": {"1": 1, "32": 1},
        }
        metrics.merge_snapshot([foreign])
        assert local.count == 4
        assert local.sum == pytest.approx(44.0)
        assert local.min == 0.5
        assert local.max == 32.0
        assert local.buckets()[1.0] == 2  # 1.0 obs + bucket "1"
        assert local.buckets()[32.0] == 1

    def test_disabled_is_noop(self):
        from repro.obs import metrics, spans

        assert not spans.is_enabled()
        metrics.merge_snapshot(
            [{"type": "counter", "name": "ghost", "value": 9.0}]
        )
        assert all(d["name"] != "ghost" for d in metrics.snapshot())

    def test_empty_snapshot_is_noop(self, telemetry):
        from repro.obs import metrics

        metrics.add("hits", 1)
        before = metrics.snapshot()
        metrics.merge_snapshot([])
        assert metrics.snapshot() == before

    def test_zero_valued_counter_still_registers(self, telemetry):
        from repro.obs import metrics

        # A worker that saw zero boundary violations must still
        # register the instrument, so merged and serial snapshots
        # expose the same metric set.
        metrics.merge_snapshot(
            [{"type": "counter", "name": "violations", "value": 0.0}]
        )
        snap = {d["name"]: d for d in metrics.snapshot()}
        assert snap["violations"]["value"] == 0.0

    def test_duplicate_name_with_mismatched_type_raises(self, telemetry):
        from repro.obs import metrics

        metrics.add("busy", 1)
        with pytest.raises(TypeError, match="already registered"):
            metrics.merge_snapshot(
                [
                    {
                        "type": "histogram",
                        "name": "busy",
                        "count": 1,
                        "sum": 2.0,
                        "min": 2.0,
                        "max": 2.0,
                        "buckets": {"2": 1},
                    }
                ]
            )

    def test_sketch_snapshots_merge(self, telemetry):
        from repro.obs import metrics

        metrics.observe_sketch_many("lat", [1.0, 2.0])
        foreign = {
            "type": "sketch",
            "name": "lat",
            "relative_accuracy": 0.01,
            "count": 2,
            "zero_count": 0,
            "min": 10.0,
            "max": 20.0,
            "sum_estimate": 30.0,
            "buckets": {},
        }
        metrics.merge_snapshot([foreign])
        sketch = metrics.sketch("lat")
        assert sketch.count == 4
        assert sketch.max == 20.0


class TestBatchRecorder:
    def test_flush_folds_count_growth_and_buffers(self, telemetry):
        recorder = BatchRecorder(("hits",), (("lat", "lat.a"),))
        recorder.counts[0] += 3
        recorder.buffers[0].extend([5, 7])
        recorder.note()
        assert metrics.snapshot()[0] == {
            "type": "counter",
            "name": "hits",
            "value": 3.0,
        }
        recorder.counts[0] += 2
        recorder.flush()
        assert metrics.counter("hits").value == 5.0
        assert metrics.sketch("lat").count == 2
        assert metrics.sketch("lat.a").to_dict()["buckets"] == (
            metrics.sketch("lat").to_dict()["buckets"]
        )

    def test_unnoted_recorder_is_not_folded_by_snapshot(self, telemetry):
        recorder = BatchRecorder(("hits",))
        recorder.counts[0] += 1
        assert metrics.snapshot() == []
        recorder.note()
        assert metrics.snapshot()[0]["value"] == 1.0

    def test_full_buffer_folds_at_the_limit(self, telemetry):
        recorder = BatchRecorder((), (("occ",),))
        buffer = recorder.buffers[0]
        for value in range(2 * BATCH_LIMIT + 2):
            buffer.append(value)
            recorder.note(buffer)
        assert len(buffer) == 2
        assert metrics.sketch("occ").count == 2 * BATCH_LIMIT

    def test_fold_and_discard_unregister_the_recorder(self, telemetry):
        recorder = BatchRecorder(("hits",), (("occ",),))
        recorder.counts[0] += 1
        recorder.note()
        assert metrics.REGISTRY._pending == {recorder}
        recorder.flush()
        assert not recorder.pending and not metrics.REGISTRY._pending
        buffer = recorder.buffers[0]
        for value in range(BATCH_LIMIT):
            buffer.append(value)
            recorder.note(buffer)
        assert not recorder.pending and not metrics.REGISTRY._pending
        recorder.counts[0] += 1
        recorder.note()
        recorder.discard()
        assert not recorder.pending and not metrics.REGISTRY._pending

    def test_reset_discards_pending(self, telemetry):
        recorder = BatchRecorder(("hits",), (("occ",),))
        recorder.counts[0] += 4
        recorder.buffers[0].append(1)
        recorder.note()
        metrics.reset_metrics()
        assert not recorder.pending and not recorder.buffers[0]
        recorder.counts[0] += 1
        recorder.note()
        assert metrics.snapshot() == [
            {"type": "counter", "name": "hits", "value": 1.0}
        ]

    def test_pending_data_outlives_the_recorder_owner(self, telemetry):
        import gc

        def record_and_drop():
            recorder = BatchRecorder(("hits",))
            recorder.counts[0] += 1
            recorder.note()

        record_and_drop()
        gc.collect()
        assert metrics.counter("hits").value == 0.0
        metrics.REGISTRY.flush_pending()
        assert metrics.counter("hits").value == 1.0
