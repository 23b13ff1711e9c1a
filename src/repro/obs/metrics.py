"""Counters, gauges, and histograms for simulation accounting.

The instruments answer the questions the paper's replication runs
raise: how many frames were actually simulated, how many cells were
offered and lost, how many RNG streams were spawned, how long the
busy periods were.  All updates share the global on/off switch of
:mod:`repro.obs.spans`, so the disabled cost of the module-level
helpers is one attribute read and an early return::

    from repro.obs import metrics

    metrics.add("frames_simulated", n_frames)
    metrics.observe_many("busy_period_frames", run_lengths)

Histograms keep summary statistics plus geometric (power-of-two)
buckets — the right resolution for heavy-tailed quantities like FBNDP
busy periods, where linear bins either clip the tail or drown the
body.

Hot paths that record per event (the admission engine, the decision
table cache) keep a :class:`BatchRecorder` instead of calling the
helpers: plain counts and bounded observation buffers that fold into
the registry's instruments in batches.  Counter sums and sketch
states are order-independent, so a folded batch leaves exactly the
state the per-event calls would have, and every
:meth:`MetricsRegistry.snapshot` folds what is still pending first.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

import numpy as np

from repro.obs import spans as _spans
from repro.obs.sketch import DEFAULT_RELATIVE_ACCURACY, QuantileSketch

__all__ = [
    "BatchRecorder",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QuantileSketch",
    "add",
    "counter",
    "gauge",
    "histogram",
    "merge_snapshot",
    "observe",
    "observe_many",
    "observe_sketch",
    "observe_sketch_many",
    "reset_metrics",
    "set_gauge",
    "sketch",
    "snapshot",
]

Number = Union[int, float]


class Counter:
    """A monotonically increasing sum (e.g. cells lost)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def add(self, value: Number = 1) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name!r}: increment must be >= 0")
        with self._lock:
            self._value += value

    @property
    def value(self) -> float:
        return self._value

    def to_dict(self) -> dict:
        return {"type": "counter", "name": self.name, "value": self._value}


class Gauge:
    """A last-value instrument (e.g. current utilization)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value: Optional[float] = None

    def set(self, value: Number) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> Optional[float]:
        return self._value

    def to_dict(self) -> dict:
        return {"type": "gauge", "name": self.name, "value": self._value}


def _bucket_index(value: float) -> int:
    """Geometric bucket index: 0 for values <= 1, else ceil(log2(v))."""
    if value <= 1.0:
        return 0
    return max(0, math.ceil(math.log2(value)))


class Histogram:
    """Summary stats + power-of-two buckets of observed values.

    Bucket ``i`` counts observations in ``(2^(i-1), 2^i]`` (bucket 0
    holds everything <= 1).  Exposed as ``{upper_bound: count}``.
    """

    __slots__ = ("name", "_lock", "_count", "_sum", "_min", "_max", "_buckets")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._buckets: Dict[int, int] = {}

    def observe(self, value: Number) -> None:
        self.observe_many((value,))

    def observe_many(self, values: Iterable[Number]) -> None:
        vals = [float(v) for v in values]
        if not vals:
            return
        with self._lock:
            for v in vals:
                self._count += 1
                self._sum += v
                if v < self._min:
                    self._min = v
                if v > self._max:
                    self._max = v
                idx = _bucket_index(v)
                self._buckets[idx] = self._buckets.get(idx, 0) + 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else math.nan

    @property
    def min(self) -> float:
        return self._min if self._count else math.nan

    @property
    def max(self) -> float:
        return self._max if self._count else math.nan

    def buckets(self) -> Dict[float, int]:
        """Counts keyed by bucket upper bound (2^i), ascending."""
        with self._lock:
            return {float(2**i): n for i, n in sorted(self._buckets.items())}

    def to_dict(self) -> dict:
        with self._lock:
            buckets = {str(2**i): n for i, n in sorted(self._buckets.items())}
            return {
                "type": "histogram",
                "name": self.name,
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
                "buckets": buckets,
            }

    def merge_dict(self, data: dict) -> None:
        """Fold a ``to_dict`` snapshot (e.g. from a worker) into this
        histogram: counts and sums add, extrema widen, buckets add."""
        count = int(data.get("count", 0))
        if count == 0:
            return
        with self._lock:
            self._count += count
            self._sum += float(data.get("sum", 0.0))
            low = data.get("min")
            high = data.get("max")
            if low is not None and float(low) < self._min:
                self._min = float(low)
            if high is not None and float(high) > self._max:
                self._max = float(high)
            for bound, n in (data.get("buckets") or {}).items():
                # Bucket keys serialize as str(2**i); invert exactly.
                idx = max(0, int(bound).bit_length() - 1)
                self._buckets[idx] = self._buckets.get(idx, 0) + int(n)


class MetricsRegistry:
    """A named collection of instruments, created on first use."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}
        #: Recorders holding data not yet folded in (strong references,
        #: so a recorder outlives its owner until its data is folded).
        self._pending: Set["BatchRecorder"] = set()

    def _get(self, name: str, cls: type):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def sketch(
        self,
        name: str,
        relative_accuracy: Optional[float] = None,
    ) -> QuantileSketch:
        """The quantile sketch ``name``, created on first use.

        ``relative_accuracy`` only matters at creation; asking for an
        existing sketch with a *different* accuracy is a registration
        error (the buckets would be incompatible).
        """
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = QuantileSketch(
                    name,
                    DEFAULT_RELATIVE_ACCURACY
                    if relative_accuracy is None
                    else relative_accuracy,
                )
                self._metrics[name] = metric
            elif not isinstance(metric, QuantileSketch):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not QuantileSketch"
                )
            elif (
                relative_accuracy is not None
                and metric.relative_accuracy != relative_accuracy
            ):
                raise TypeError(
                    f"sketch {name!r} already registered with "
                    f"relative_accuracy={metric.relative_accuracy}, "
                    f"not {relative_accuracy}"
                )
            return metric

    def _set_pending(self, recorder: "BatchRecorder", pending: bool) -> None:
        """Register ``recorder`` as holding unfolded data, or drop it."""
        with self._lock:
            recorder.pending = pending
            if pending:
                self._pending.add(recorder)
            else:
                self._pending.discard(recorder)

    def flush_pending(self) -> None:
        """Fold every recorder's pending data into the instruments."""
        with self._lock:
            pending, self._pending = self._pending, set()
        for recorder in pending:
            recorder.flush()

    def snapshot(self) -> List[dict]:
        """All instruments as plain dicts, sorted by (type, name).

        Pending :class:`BatchRecorder` data is folded in first.
        """
        self.flush_pending()
        with self._lock:
            metrics = list(self._metrics.values())
        return sorted(
            (m.to_dict() for m in metrics),
            key=lambda d: (d["type"], d["name"]),
        )

    def merge_snapshot(self, metric_dicts: Iterable[dict]) -> None:
        """Fold a :meth:`snapshot` from elsewhere into this registry.

        Counters add, gauges adopt the shipped value (last write wins,
        as for local sets), histograms and sketches merge counts /
        extrema / buckets.  A shipped metric whose name is registered
        under a different type raises :class:`TypeError`.
        """
        for data in metric_dicts:
            kind = data.get("type")
            name = data.get("name")
            if not name:
                continue
            if kind == "counter":
                # Register even a zero-valued counter: a parallel
                # run's snapshot must list the same instruments a
                # serial run would.
                value = float(data.get("value") or 0.0)
                self.counter(name).add(value)
            elif kind == "gauge":
                if data.get("value") is not None:
                    self.gauge(name).set(data["value"])
            elif kind == "histogram":
                self.histogram(name).merge_dict(data)
            elif kind == "sketch":
                self.sketch(
                    name, data.get("relative_accuracy")
                ).merge_dict(data)

    def reset(self) -> None:
        """Drop every instrument and whatever recorders hold pending."""
        with self._lock:
            pending, self._pending = self._pending, set()
            self._metrics.clear()
        for recorder in pending:
            recorder.discard()


#: The process-wide registry used by the module-level helpers.
REGISTRY = MetricsRegistry()

#: Observations a recorder buffers before folding them in.
BATCH_LIMIT = 1024


class BatchRecorder:
    """Per-event telemetry of one hot-path owner, folded in batches.

    ``counters`` names one counter per slot of :attr:`counts`; the
    owner bumps ``counts[i]`` (cumulative) and each fold adds the
    growth since the last one.  ``streams`` names, per buffer of
    :attr:`buffers`, the sketches its observations fold into — one
    latency value can feed an aggregate and a per-link sketch.

    The owner records only while telemetry is enabled, then calls
    :meth:`note` once per event.  That registers the recorder with
    :data:`REGISTRY` while it holds unfolded data and folds a buffer
    once it reaches :data:`BATCH_LIMIT` entries, so memory stays
    bounded; a fold or discard unregisters it again.  The registry
    folds pending recorders before every snapshot — also recorders
    whose owner has since been garbage-collected — and
    :meth:`MetricsRegistry.reset` discards what they hold.

    One thread records; a snapshot may fold from another.
    """

    __slots__ = (
        "counter_names",
        "stream_names",
        "counts",
        "buffers",
        "pending",
        "_folded",
        "_lock",
    )

    def __init__(
        self,
        counters: Sequence[str] = (),
        streams: Sequence[Sequence[str]] = (),
    ):
        self.counter_names = tuple(counters)
        self.stream_names = tuple(tuple(names) for names in streams)
        self.counts: List[int] = [0] * len(self.counter_names)
        self.buffers = tuple([] for _ in self.stream_names)
        #: True while this recorder is registered with unfolded data.
        self.pending = False
        self._folded = [0] * len(self.counter_names)
        self._lock = threading.Lock()

    def note(self, buffer: Optional[list] = None) -> None:
        """Mark recorded data pending; fold ``buffer`` once it is full."""
        if not self.pending:
            REGISTRY._set_pending(self, True)
        if buffer is not None and len(buffer) >= BATCH_LIMIT:
            self.flush()

    def flush(self) -> None:
        """Fold every count and observation recorded so far."""
        registry = REGISTRY
        with self._lock:
            # Unregister before reading: an event recorded during the
            # fold then registers the recorder again.
            registry._set_pending(self, False)
            counts = self.counts
            folded = self._folded
            for slot, name in enumerate(self.counter_names):
                total = counts[slot]
                if total != folded[slot]:
                    registry.counter(name).add(total - folded[slot])
                    folded[slot] = total
            for names, buffer in zip(self.stream_names, self.buffers):
                n = len(buffer)
                if n:
                    sketches = [registry.sketch(name) for name in names]
                    # Bucket the batch once, then merge it into each
                    # sketch of the stream.
                    batch = QuantileSketch(
                        names[0], sketches[0].relative_accuracy
                    )
                    batch.observe_many(np.array(buffer[:n], dtype=float))
                    del buffer[:n]
                    for sketch in sketches:
                        sketch.merge(batch)

    def discard(self) -> None:
        """Drop everything recorded but not yet folded."""
        with self._lock:
            REGISTRY._set_pending(self, False)
            self._folded[:] = self.counts
            for buffer in self.buffers:
                del buffer[:]


def counter(name: str) -> Counter:
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    return REGISTRY.histogram(name)


def sketch(
    name: str, relative_accuracy: Optional[float] = None
) -> QuantileSketch:
    return REGISTRY.sketch(name, relative_accuracy)


def add(name: str, value: Number = 1) -> None:
    """Increment counter ``name``; no-op while telemetry is disabled."""
    if not _spans._ENABLED:
        return
    REGISTRY.counter(name).add(value)


def set_gauge(name: str, value: Number) -> None:
    """Set gauge ``name``; no-op while telemetry is disabled."""
    if not _spans._ENABLED:
        return
    REGISTRY.gauge(name).set(value)


def observe(name: str, value: Number) -> None:
    """Record one histogram observation; no-op while disabled."""
    if not _spans._ENABLED:
        return
    REGISTRY.histogram(name).observe(value)


def observe_many(name: str, values: Iterable[Number]) -> None:
    """Record many histogram observations; no-op while disabled."""
    if not _spans._ENABLED:
        return
    REGISTRY.histogram(name).observe_many(values)


def observe_sketch(name: str, value: Number) -> None:
    """Record one sketch observation; no-op while disabled."""
    if not _spans._ENABLED:
        return
    REGISTRY.sketch(name).observe(value)


def observe_sketch_many(name: str, values: Iterable[Number]) -> None:
    """Record many sketch observations; no-op while disabled."""
    if not _spans._ENABLED:
        return
    REGISTRY.sketch(name).observe_many(values)


def snapshot() -> List[dict]:
    """All metrics in the global registry as plain dicts."""
    return REGISTRY.snapshot()


def merge_snapshot(metric_dicts: Iterable[dict]) -> None:
    """Fold a :func:`snapshot` from another process into the registry.

    Used by the parallel backends to merge per-worker metric buffers
    into the parent exporter (see
    :meth:`MetricsRegistry.merge_snapshot` for the per-type merge
    semantics).  No-op while telemetry is disabled.
    """
    if not _spans._ENABLED:
        return
    REGISTRY.merge_snapshot(metric_dicts)


def reset_metrics() -> None:
    """Clear the global registry."""
    REGISTRY.reset()
