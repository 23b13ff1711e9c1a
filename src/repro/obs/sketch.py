"""Mergeable relative-error quantile sketch (DDSketch-style).

The power-of-two histograms of :mod:`repro.obs.metrics` answer "what
is the body of this distribution" at ~2x resolution — far too coarse
for tail questions such as p99/p999 admit latency as utilization
approaches 1.  A :class:`QuantileSketch`
keeps log-spaced buckets of ratio ``gamma = (1 + a) / (1 - a)`` so
that any quantile estimate is within relative error ``a`` of the
exact order statistic, at ~1000 buckets for nine decades of dynamic
range at the default 1% accuracy.

Three properties the rest of the observability layer leans on:

* **mergeable** — ``merge()`` adds bucket counts, so sharded sketches
  (one per worker process, one per link) combine into exactly the
  sketch a single-process run would have produced;
* **deterministic** — the state is integer bucket counts plus exact
  min/max, all order-independent, so the canonical serialization of
  ``merge(a, b)`` is byte-identical to the unsharded sketch no matter
  the merge order (the bit-identity contract of the parallel
  backends extends to telemetry);
* **canonical JSON** — :meth:`to_json` emits one stable byte string
  per logical state: fixed key order, bucket keys ascending.

Observations must be finite and non-negative (they are latencies,
occupancies, durations); zeros land in a dedicated bucket.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Dict, Iterable, Optional, Tuple, Union

import numpy as np

from repro.exceptions import ParameterError

__all__ = [
    "DEFAULT_RELATIVE_ACCURACY",
    "QuantileSketch",
]

Number = Union[int, float]

#: Default relative accuracy: estimates within 1% of the exact value.
DEFAULT_RELATIVE_ACCURACY = 0.01

#: Quantiles the human-readable reports print.
REPORT_QUANTILES = (0.5, 0.9, 0.99, 0.999)

#: Inputs at least this long are bucketed by one vectorized search.
#: Measured break-even: the search costs ~14 us even for one value
#: (per-value ``log``: ~1.3 us) and wins from ~20 values on (1.1-1.2x
#: at 24, ~15x at a full 1024-value recorder buffer).
_VECTOR_MIN = 24

#: gamma -> (first index, ``gamma**i`` for consecutive ``i`` from it).
_BOUNDS: Dict[float, Tuple[int, np.ndarray]] = {}


def _bucket_bounds(gamma: float, low: int, high: int) -> np.ndarray:
    """``[gamma**low, ..., gamma**high]``, cached and widened on demand."""
    first, bounds = _BOUNDS.get(gamma, (low, np.empty(0)))
    last = first + bounds.size - 1
    if low < first or high > last or not bounds.size:
        first = min(first, low)
        last = max(last, high)
        bounds = np.array([gamma**i for i in range(first, last + 1)])
        _BOUNDS[gamma] = (first, bounds)
    return bounds[low - first : high - first + 1]


class QuantileSketch:
    """Log-bucketed quantile sketch with bounded relative error.

    Bucket ``i`` covers ``(gamma^(i-1), gamma^i]`` with
    ``gamma = (1 + a) / (1 - a)``; the estimate for any value in a
    bucket is the bucket midpoint ``2 * gamma^i / (gamma + 1)``, which
    is within relative error ``a`` of every value in the bucket.
    Exact minimum and maximum are tracked so ``quantile(0)`` and
    ``quantile(1)`` are exact and every estimate is clamped into
    ``[min, max]``.
    """

    __slots__ = (
        "name",
        "relative_accuracy",
        "_gamma",
        "_log_gamma",
        "_midpoint_scale",
        "_lock",
        "_count",
        "_zero_count",
        "_min",
        "_max",
        "_buckets",
    )

    def __init__(
        self,
        name: str,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
    ):
        if not 0.0 < relative_accuracy < 1.0:
            raise ParameterError(
                f"relative_accuracy must be in (0, 1), got "
                f"{relative_accuracy}"
            )
        self.name = name
        self.relative_accuracy = float(relative_accuracy)
        self._gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        self._midpoint_scale = 2.0 / (self._gamma + 1.0)
        self._lock = threading.Lock()
        self._count = 0
        self._zero_count = 0
        self._min = math.inf
        self._max = -math.inf
        self._buckets: Dict[int, int] = {}

    # -- ingestion -----------------------------------------------------------

    def _bucket_index(self, value: float) -> int:
        """Smallest ``i`` with ``gamma^i >= value`` (value > 0)."""
        index = math.ceil(math.log(value) / self._log_gamma)
        # Guard the representable boundary: float log/ceil can land one
        # bucket off either way when value is at or next to a bucket
        # upper bound.
        if self._gamma**index < value:
            index += 1
        elif self._gamma ** (index - 1) >= value:
            index -= 1
        return index

    def _bucket_counts(self, positive: np.ndarray) -> Dict[int, int]:
        """Bucket index -> count for an array of positive values.

        Short inputs take :meth:`_bucket_index` per value.  Longer ones
        search the exact bucket upper bounds ``gamma**i`` (the same
        float power :meth:`_bucket_index` checks against), which gives
        the identical smallest ``i`` for every value at a fraction of
        the cost of one ``log`` each.
        """
        if positive.size < _VECTOR_MIN:
            counts: Dict[int, int] = {}
            for value in positive.tolist():
                index = self._bucket_index(value)
                counts[index] = counts.get(index, 0) + 1
            return counts
        low = self._bucket_index(float(positive.min()))
        high = self._bucket_index(float(positive.max()))
        bounds = _bucket_bounds(self._gamma, low, high)
        counts = np.bincount(np.searchsorted(bounds, positive, side="left"))
        (offsets,) = np.nonzero(counts)
        return dict(zip((offsets + low).tolist(), counts[offsets].tolist()))

    def observe(self, value: Number) -> None:
        self.observe_many((value,))

    def observe_many(self, values: Iterable[Number]) -> None:
        if not isinstance(values, (list, tuple, np.ndarray)):
            values = list(values)
        vals = np.asarray(values, dtype=float).ravel()
        if not vals.size:
            return
        invalid = ~np.isfinite(vals) | (vals < 0.0)
        if invalid.any():
            raise ParameterError(
                f"sketch {self.name!r}: observations must be finite "
                f"and >= 0, got {vals[invalid][0]}"
            )
        positive = vals[vals > 0.0]
        counts = self._bucket_counts(positive) if positive.size else {}
        self._fold(
            int(vals.size),
            int(vals.size - positive.size),
            float(vals.min()),
            float(vals.max()),
            counts.items(),
        )

    def _fold(self, count, zero_count, low, high, buckets) -> None:
        """Add counts, widen the extrema, add ``(index, n)`` buckets."""
        with self._lock:
            self._count += count
            self._zero_count += zero_count
            if low < self._min:
                self._min = low
            if high > self._max:
                self._max = high
            mine = self._buckets
            for index, n in buckets:
                mine[index] = mine.get(index, 0) + n

    # -- queries -------------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def min(self) -> float:
        return self._min if self._count else math.nan

    @property
    def max(self) -> float:
        return self._max if self._count else math.nan

    @property
    def sum_estimate(self) -> float:
        """Approximate sum (within relative accuracy), bucket-derived.

        Derived rather than accumulated so the sketch state stays
        order-independent — a float running sum would make merged and
        unsharded sketches differ in the last bits.
        """
        with self._lock:
            return self._sum_estimate_locked()

    def _sum_estimate_locked(self) -> float:
        total = 0.0
        for idx in sorted(self._buckets):
            total += self._buckets[idx] * self._midpoint(idx)
        return total

    @property
    def mean_estimate(self) -> float:
        return self.sum_estimate / self._count if self._count else math.nan

    def _midpoint(self, index: int) -> float:
        return self._gamma**index * self._midpoint_scale

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0 <= q <= 1) of the data seen.

        Returns the value of the order statistic at rank
        ``floor(q * (count - 1))`` to within the configured relative
        accuracy; NaN while the sketch is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ParameterError(f"quantile q must be in [0, 1], got {q}")
        with self._lock:
            if self._count == 0:
                return math.nan
            target = math.floor(q * (self._count - 1))
            # The first and last order statistics are tracked exactly.
            if target <= 0:
                return self._min
            if target >= self._count - 1:
                return self._max
            cumulative = self._zero_count
            if cumulative > target:
                estimate = 0.0
            else:
                estimate = self._max
                for idx in sorted(self._buckets):
                    cumulative += self._buckets[idx]
                    if cumulative > target:
                        estimate = self._midpoint(idx)
                        break
            low, high = self._min, self._max
        return max(low, min(high, estimate))

    def quantiles(self, qs: Iterable[float]) -> Dict[float, float]:
        return {float(q): self.quantile(q) for q in qs}

    # -- merging and serialization -------------------------------------------

    def merge(self, other: "QuantileSketch") -> None:
        """Fold another sketch of the same accuracy into this one."""
        if other.relative_accuracy != self.relative_accuracy:
            raise ParameterError(
                f"cannot merge sketches of different accuracy "
                f"({self.relative_accuracy} vs {other.relative_accuracy})"
            )
        with other._lock:
            state = (
                other._count,
                other._zero_count,
                other._min,
                other._max,
                list(other._buckets.items()),
            )
        self._fold(*state)

    def merge_dict(self, data: dict) -> None:
        """Fold a :meth:`to_dict` snapshot (e.g. from a worker) in."""
        count = int(data.get("count", 0))
        if count == 0:
            return
        accuracy = data.get("relative_accuracy")
        if accuracy is not None and float(accuracy) != self.relative_accuracy:
            raise ParameterError(
                f"sketch {self.name!r}: cannot merge snapshot of "
                f"accuracy {accuracy} into sketch of accuracy "
                f"{self.relative_accuracy}"
            )
        low = data.get("min")
        high = data.get("max")
        self._fold(
            count,
            int(data.get("zero_count", 0)),
            math.inf if low is None else float(low),
            -math.inf if high is None else float(high),
            [
                (int(key), int(n))
                for key, n in (data.get("buckets") or {}).items()
            ],
        )

    def to_dict(self) -> dict:
        """Plain-dict snapshot; bucket keys ascending by index."""
        with self._lock:
            return {
                "type": "sketch",
                "name": self.name,
                "relative_accuracy": self.relative_accuracy,
                "count": self._count,
                "zero_count": self._zero_count,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
                "sum_estimate": self._sum_estimate_locked(),
                "buckets": {
                    str(i): self._buckets[i] for i in sorted(self._buckets)
                },
            }

    def to_json(self) -> str:
        """Canonical one-line JSON: one byte string per logical state."""
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> "QuantileSketch":
        """Rebuild a sketch from a :meth:`to_dict` snapshot."""
        sketch = cls(
            data.get("name", ""),
            float(
                data.get("relative_accuracy", DEFAULT_RELATIVE_ACCURACY)
            ),
        )
        sketch.merge_dict(data)
        return sketch

    @classmethod
    def window(
        cls, start: Optional[dict], end: dict
    ) -> "QuantileSketch":
        """The sketch of observations between two cumulative snapshots.

        Bucket counts subtract exactly (the sketch only ever grows),
        which is what window-based SLO burn rates need.  The window's
        true min/max are unrecoverable from cumulative extrema, so the
        result keeps the ``end`` extrema as clamp bounds — a superset
        of the window's range, preserving the relative-error bound.
        """
        window = cls.from_dict(end)
        if start is None or int(start.get("count", 0)) == 0:
            return window
        if float(
            start.get("relative_accuracy", DEFAULT_RELATIVE_ACCURACY)
        ) != window.relative_accuracy:
            raise ParameterError(
                "cannot window sketches of different relative accuracy"
            )
        window._count -= int(start.get("count", 0))
        window._zero_count -= int(start.get("zero_count", 0))
        for key, n in (start.get("buckets") or {}).items():
            idx = int(key)
            remaining = window._buckets.get(idx, 0) - int(n)
            if remaining < 0:
                raise ParameterError(
                    "window start snapshot is not a prefix of the end "
                    f"snapshot (bucket {idx} would go negative)"
                )
            if remaining:
                window._buckets[idx] = remaining
            else:
                window._buckets.pop(idx, None)
        if window._count < 0 or window._zero_count < 0:
            raise ParameterError(
                "window start snapshot is not a prefix of the end snapshot"
            )
        return window

    def __repr__(self) -> str:
        return (
            f"QuantileSketch(name={self.name!r}, "
            f"relative_accuracy={self.relative_accuracy}, "
            f"count={self._count})"
        )
