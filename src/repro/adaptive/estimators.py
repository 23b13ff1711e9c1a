"""Incremental (streaming) estimators with batch-equivalent answers.

Decision tables are keyed on *offline* model
statistics, but a live admission service only ever sees a stream of
per-request observations.  These estimators maintain windowed
first/second-order statistics, autocorrelations, and Hurst estimates
**incrementally** — O(1) amortized work per sample — while remaining
provably equivalent to the batch estimators of :mod:`repro.analysis`
evaluated on the same window (the hypothesis suite in
``tests/adaptive/test_streaming_properties.py`` pins the documented
tolerances; ``docs/ADAPTIVE.md`` derives the math).

Equivalence contracts
---------------------

* :class:`StreamingMoments` — windowed Welford updates (add a sample,
  retire the evicted one).  Mean and variance match ``np.mean`` /
  ``np.var`` of the window within a relative tolerance of ``1e-9``
  (numpy's pairwise summation and the sequential Welford recurrence
  round differently; neither is "the" exact answer).
* :class:`StreamingACF` — ring-buffer lag-product sums around a fixed
  offset (the first sample), reconstructing the biased centered
  estimator of :func:`repro.analysis.acf.sample_acf` within ``1e-8``
  relative (the batch path computes through an FFT).
* :class:`IncrementalHurst` — per-scale *aligned block* statistics on
  a power-of-two scale grid.  At stream positions that are multiples
  of the largest scale the estimate is **bit-equal** to
  :func:`repro.analysis.hurst.aggregated_variance_hurst` /
  :func:`repro.analysis.hurst.rs_hurst` called with the same
  ``sizes=`` grid on the trailing window: completed blocks are
  reduced with the same numpy kernels on the same values, and the
  final log-log fit is literally the shared
  :func:`repro.analysis.hurst.fit_loglog`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Tuple

import numpy as np

from repro.analysis.hurst import (
    HurstEstimate,
    fit_loglog,
    rs_window_ratio,
)
from repro.exceptions import DegenerateSeriesError, ParameterError
from repro.utils.validation import check_integer

__all__ = [
    "IncrementalHurst",
    "StreamingACF",
    "StreamingMoments",
    "power_of_two_scales",
]


class _Ring:
    """A fixed-size ring buffer of floats with ordered window reads."""

    def __init__(self, window: int):
        self.window = window
        self._data = np.zeros(window, dtype=float)
        self._next = 0
        self.count = 0

    def push(self, value: float) -> float:
        """Store ``value``; return the evicted sample (NaN when none)."""
        evicted = float("nan")
        if self.count == self.window:
            evicted = float(self._data[self._next])
        else:
            self.count += 1
        self._data[self._next] = value
        self._next = (self._next + 1) % self.window
        return evicted

    def last(self, n: int) -> np.ndarray:
        """The most recent ``n`` samples, oldest first (a copy)."""
        if n > self.count:
            raise ParameterError(
                f"ring holds {self.count} samples, asked for {n}"
            )
        end = self._next
        start = (end - n) % self.window
        if start < end or end == 0:
            stop = end if end else self.window
            return self._data[start:stop].copy()
        return np.concatenate((self._data[start:], self._data[:end]))

    def first(self, n: int) -> np.ndarray:
        """The oldest ``n`` samples, oldest first (a copy)."""
        if n > self.count:
            raise ParameterError(
                f"ring holds {self.count} samples, asked for {n}"
            )
        start = (self._next - self.count) % self.window
        stop = start + n
        if stop <= self.window:
            return self._data[start:stop].copy()
        return np.concatenate(
            (self._data[start:], self._data[: stop - self.window])
        )

    def values(self) -> np.ndarray:
        """The full window, oldest first."""
        return self.last(self.count)


class StreamingMoments:
    """Windowed mean/variance via add-and-retire Welford updates.

    The classical Welford recurrence extended with exact sample
    retirement: pushing into a full window first folds the new sample
    in, then removes the evicted one, so ``mean`` and ``m2`` always
    describe exactly the samples currently in the ring.  Equivalent to
    ``np.mean`` / ``np.var`` of the window within ``1e-9`` relative.
    """

    def __init__(self, window: int):
        self.window = check_integer(window, "window", minimum=2)
        self._ring = _Ring(self.window)
        self._mean = 0.0
        self._m2 = 0.0

    @property
    def count(self) -> int:
        return self._ring.count

    @property
    def is_full(self) -> bool:
        return self._ring.count == self.window

    def push(self, value: float) -> None:
        value = float(value)
        if not np.isfinite(value):
            raise DegenerateSeriesError(
                f"streaming moments fed a non-finite sample ({value})"
            )
        evicted = self._ring.push(value)
        n = self._ring.count
        if evicted != evicted:  # NaN: the window was not yet full
            delta = value - self._mean
            self._mean += delta / n
            self._m2 += delta * (value - self._mean)
            return
        # Full window: fold the new sample in over n+1 virtual samples,
        # then retire the evicted one back down to n.
        delta = value - self._mean
        grown = self._mean + delta / (n + 1)
        m2 = self._m2 + delta * (value - grown)
        delta = evicted - grown
        self._mean = grown - delta / n
        self._m2 = max(0.0, m2 - delta * (evicted - self._mean))

    @property
    def mean(self) -> float:
        if self._ring.count == 0:
            raise DegenerateSeriesError("streaming moments are empty")
        return self._mean

    def variance(self, ddof: int = 0) -> float:
        n = self._ring.count
        if n <= ddof:
            raise DegenerateSeriesError(
                f"variance(ddof={ddof}) needs more than {ddof} samples, "
                f"have {n}"
            )
        return self._m2 / (n - ddof)

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance(ddof=0)))

    def values(self) -> np.ndarray:
        """The current window, oldest first (for batch cross-checks)."""
        return self._ring.values()


class StreamingACF:
    """Windowed sample autocorrelations from incremental lag products.

    For each lag ``k <= max_lag`` the sum of products
    ``sum_i (x_i - c)(x_{i+k} - c)`` over pairs inside the window is
    maintained incrementally (push adds the new pair, eviction
    subtracts the retired one — its partner is still buffered because
    ``k < window``), around a fixed offset ``c`` (the first sample)
    that bounds cancellation for large-mean streams.  ``acf()``
    reconstructs the biased centered estimator of
    :func:`repro.analysis.acf.sample_acf` exactly in real arithmetic:

    ``n * autocov(k) = C_k + m'(head_k + tail_k) - (n + k) m'^2``

    with ``m' = mean - c`` and ``head_k`` / ``tail_k`` the shifted
    sums of the window's first / last ``k`` samples (read directly
    from the ring at query time — queries are rare, pushes are not).
    """

    def __init__(self, window: int, max_lag: int):
        self.window = check_integer(window, "window", minimum=4)
        self.max_lag = check_integer(max_lag, "max_lag", minimum=1)
        if self.max_lag >= self.window:
            raise ParameterError(
                f"max_lag must be < window, got {max_lag} >= {window}"
            )
        self._moments = StreamingMoments(self.window)
        self._products = np.zeros(self.max_lag, dtype=float)
        self._offset: Optional[float] = None

    @property
    def count(self) -> int:
        return self._moments.count

    @property
    def is_full(self) -> bool:
        return self._moments.is_full

    def push(self, value: float) -> None:
        value = float(value)
        if self._offset is None:
            self._offset = value
        ring = self._moments._ring
        count_before = ring.count
        if count_before:
            # Products with the samples still in the window, newest
            # pairs first: (x_{t-k} - c)(x_t - c) for k = 1..max_lag.
            depth = min(self.max_lag, count_before)
            partners = ring.last(depth)  # oldest first
            shifted = (value - self._offset) * (partners - self._offset)
            # partners[-1] is lag 1, partners[-2] lag 2, ...
            self._products[:depth] += shifted[::-1]
        if count_before == self.window:
            # Peek the sample about to retire and remove the products
            # it anchors: (x_old - c)(x_{old+k} - c), partners still
            # buffered since k <= max_lag < window.
            oldest_first = ring.first(self.max_lag + 1)
            evicted = oldest_first[0]
            partners = oldest_first[1:]
            self._products[: partners.shape[0]] -= (
                evicted - self._offset
            ) * (partners - self._offset)
        self._moments.push(value)

    def acf(self, max_lag: Optional[int] = None) -> np.ndarray:
        """``[r(1), ..., r(max_lag)]`` of the current window."""
        if max_lag is None:
            max_lag = self.max_lag
        max_lag = check_integer(max_lag, "max_lag", minimum=1)
        if max_lag > self.max_lag:
            raise ParameterError(
                f"asked for lag {max_lag}, tracking only {self.max_lag}"
            )
        n = self._moments.count
        if n <= max_lag:
            raise DegenerateSeriesError(
                f"need more than max_lag = {max_lag} samples, got {n}"
            )
        variance = self._moments.variance(ddof=0)
        if variance <= 0.0:
            raise DegenerateSeriesError("window is constant; ACF undefined")
        window = self._moments.values() - self._offset
        shifted_mean = self._moments.mean - self._offset
        lags = np.arange(1, max_lag + 1)
        heads = np.cumsum(window[:max_lag])
        tails = np.cumsum(window[::-1][:max_lag])
        autocov = (
            self._products[:max_lag]
            + shifted_mean * (heads + tails)
            - (n + lags) * shifted_mean**2
        ) / n
        return autocov / variance

    def values(self) -> np.ndarray:
        return self._moments.values()


def power_of_two_scales(window: int, largest_fraction: int) -> Tuple[int, ...]:
    """Power-of-two block sizes ``1, 2, ... window // largest_fraction``.

    Power-of-two scales dividing a power-of-two window keep every
    scale's aligned blocks flush with the window boundary — the
    property the incremental Hurst estimators' exact-equivalence
    proof rests on.
    """
    window = check_integer(window, "window", minimum=2)
    largest_fraction = check_integer(
        largest_fraction, "largest_fraction", minimum=1
    )
    if window & (window - 1):
        raise ParameterError(
            f"window must be a power of two, got {window}"
        )
    largest = window // largest_fraction
    scales = []
    m = 1
    while m <= largest:
        scales.append(m)
        m *= 2
    if len(scales) < 3:
        raise ParameterError(
            f"window {window} yields only {len(scales)} scales "
            f"(need >= 3 for a log-log fit); use a larger window"
        )
    return tuple(scales)


class IncrementalHurst:
    """Incremental aggregated-variance and R/S Hurst estimation.

    Maintains, for every scale ``m`` in a power-of-two grid, the
    statistics of the trailing ``window // m`` *aligned* blocks:
    block sums (aggregated variance) and per-block R/S ratios.  A
    block completes every ``m`` pushes and costs one O(m) numpy
    reduction — O(log window) amortized work per sample across all
    scales.  Estimates call the same :func:`fit_loglog` as the batch
    estimators; at stream positions divisible by the largest scale
    the answers are bit-equal to the batch functions on the trailing
    window with the same ``sizes=`` grid.

    Parameters
    ----------
    window:
        Trailing window length; must be a power of two, >= 128 (so
        both estimators have >= 3 usable scales).
    """

    def __init__(self, window: int):
        self.window = check_integer(window, "window", minimum=128)
        #: Scales of the aggregated-variance fit (1 .. window/8).
        self.variance_scales = power_of_two_scales(self.window, 8)
        #: Scales of the R/S fit (8 .. window/4).
        self.rs_scales = tuple(
            m for m in power_of_two_scales(self.window, 4) if m >= 8
        )
        self._ring = _Ring(self.window)
        self.total = 0
        self._block_sums: Dict[int, deque] = {
            m: deque(maxlen=self.window // m) for m in self.variance_scales
        }
        self._rs_ratios: Dict[int, deque] = {
            m: deque(maxlen=self.window // m) for m in self.rs_scales
        }

    @property
    def count(self) -> int:
        return self._ring.count

    @property
    def is_full(self) -> bool:
        return self._ring.count == self.window

    @property
    def aligned(self) -> bool:
        """True when every scale's blocks are flush with the window."""
        largest = max(
            self.variance_scales[-1],
            self.rs_scales[-1] if self.rs_scales else 1,
        )
        return self.is_full and self.total % largest == 0

    def push(self, value: float) -> None:
        value = float(value)
        if not np.isfinite(value):
            raise DegenerateSeriesError(
                f"incremental Hurst fed a non-finite sample ({value})"
            )
        self._ring.push(value)
        self.total += 1
        for m in self.variance_scales:
            if self.total % m == 0:
                block = self._ring.last(m)
                self._block_sums[m].append(float(block.sum()))
        for m in self.rs_scales:
            if self.total % m == 0:
                self._rs_ratios[m].append(
                    rs_window_ratio(self._ring.last(m))
                )

    def aggregated_variance(self) -> HurstEstimate:
        """The aggregated-variance estimate over the tracked blocks.

        Bit-equal to ``aggregated_variance_hurst(window_values,
        sizes=self.variance_scales)`` whenever :attr:`aligned` holds.
        """
        sizes = []
        points = []
        for m in self.variance_scales:
            blocks = self._block_sums[m]
            if len(blocks) < 2:
                continue
            sums = np.asarray(blocks, dtype=float)
            sizes.append(float(m))
            points.append(float(sums.var(ddof=1)) / float(m) ** 2)
        if len(sizes) < 3:
            raise DegenerateSeriesError(
                "incremental aggregated-variance: fewer than 3 scales "
                f"have >= 2 blocks (seen {self.total} samples)"
            )
        return fit_loglog(
            np.asarray(sizes),
            np.asarray(points),
            "aggregated-variance",
            lambda s: 1.0 + s / 2.0,
        )

    def rs(self) -> HurstEstimate:
        """The R/S estimate over the tracked blocks.

        Bit-equal to ``rs_hurst(window_values, sizes=self.rs_scales)``
        whenever :attr:`aligned` holds.
        """
        sizes = []
        points = []
        for m in self.rs_scales:
            ratios = np.asarray(self._rs_ratios[m], dtype=float)
            if ratios.shape[0] == 0:
                continue
            usable = ~np.isnan(ratios)
            if not usable.any():
                raise DegenerateSeriesError(
                    f"R/S: all windows constant at m = {m}"
                )
            sizes.append(float(m))
            points.append(float(ratios[usable].mean()))
        if len(sizes) < 3:
            raise DegenerateSeriesError(
                "incremental R/S: fewer than 3 scales have blocks "
                f"(seen {self.total} samples)"
            )
        return fit_loglog(
            np.asarray(sizes), np.asarray(points), "R/S", lambda s: s
        )

    def values(self) -> np.ndarray:
        """The current window, oldest first (for batch cross-checks)."""
        return self._ring.values()
