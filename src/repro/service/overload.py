"""Explicit overload semantics: shedding, queueing, circuit breaking.

An admission service needs documented backpressure behavior past
saturation.  Before this module the admission service had none: every
request paid a full table lookup no matter how far past saturation the
offered load ran, and a failing table lookup took the whole shard
down.  This module gives overload three defined, *deterministic*
behaviors:

* **bounded admission queue** — each decision occupies a virtual
  decision server for ``decision_seconds``; a request arriving to a
  full queue (``max_queue_depth`` waiting) is **shed** before any
  table work, counted on ``service.shed``.  The queue is virtual-time
  bookkeeping over the workload's own arrival clock, so shedding
  depends only on the seed — never on wall-clock noise — and the
  shed count is part of the byte-identity contract.
* **circuit breaker** — table lookups that raise (corrupt table file,
  injected chaos, a policy whose offline inversion diverges) trip the
  breaker after ``breaker_failure_threshold`` consecutive failures.
  While OPEN, requests skip the primary policy entirely and are
  decided by the conservative **fallback** (peak-rate allocation — the
  paper's zero-risk bound); after ``breaker_cooldown`` requests a
  probe retries the primary (HALF_OPEN) and success closes the
  breaker.  Transitions are counted on ``service.breaker_opened`` /
  ``service.breaker_recovered``; every fallback decision on
  ``service.fallback_decisions`` and flagged on the decision itself.

Both mechanisms snapshot and restore exactly (hex floats, integer
counters), so a shard recovered from its journal sheds and trips
byte-identically to a shard that never crashed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.exceptions import ParameterError
from repro.utils.validation import check_integer

__all__ = [
    "AdmissionQueue",
    "CircuitBreaker",
    "OverloadPolicy",
    "OverloadState",
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

_BREAKER_STATES = (BREAKER_CLOSED, BREAKER_OPEN, BREAKER_HALF_OPEN)


@dataclass(frozen=True)
class OverloadPolicy:
    """The knob bundle for overload behavior (picklable, frozen).

    Parameters
    ----------
    max_queue_depth:
        Requests that may wait for the virtual decision server before
        arrivals are shed.
    decision_seconds:
        Virtual service time one admission decision occupies.  The
        default 0.0 makes the queue infinitely fast — nothing is ever
        shed — so engines constructed with a policy but no explicit
        rate keep legacy behavior.
    breaker_failure_threshold:
        Consecutive primary-lookup failures that trip the breaker.
    breaker_cooldown:
        Requests decided by the fallback before a HALF_OPEN probe
        retries the primary policy.  Counted in requests, not seconds,
        so recovery is deterministic under replay.
    fallback_method:
        The conservative policy served while the breaker is open
        (default ``peak-rate`` — zero statistical-multiplexing risk).
    """

    max_queue_depth: int = 64
    decision_seconds: float = 0.0
    breaker_failure_threshold: int = 1
    breaker_cooldown: int = 64
    fallback_method: str = "peak-rate"

    def __post_init__(self) -> None:
        check_integer(self.max_queue_depth, "max_queue_depth", minimum=1)
        if self.decision_seconds < 0:
            raise ParameterError(
                f"decision_seconds must be >= 0, got {self.decision_seconds!r}"
            )
        check_integer(
            self.breaker_failure_threshold,
            "breaker_failure_threshold",
            minimum=1,
        )
        check_integer(self.breaker_cooldown, "breaker_cooldown", minimum=1)


class AdmissionQueue:
    """A virtual M/D/1-style decision queue over the workload clock.

    ``offer(now)`` drains virtual completions up to ``now``, then
    either enqueues the request (returning True) or sheds it (False)
    when ``max_depth`` decisions are already waiting.  All arithmetic
    runs on the workload's deterministic arrival times.
    """

    def __init__(self, max_depth: int, decision_seconds: float):
        self.max_depth = check_integer(max_depth, "max_depth", minimum=1)
        if decision_seconds < 0:
            raise ParameterError(
                f"decision_seconds must be >= 0, got {decision_seconds!r}"
            )
        self.decision_seconds = float(decision_seconds)
        self._completions: Deque[float] = deque()
        self.shed_total = 0

    def offer(self, now: float) -> bool:
        """Admit one request to the decision server, or shed it."""
        completions = self._completions
        while completions and completions[0] <= now:
            completions.popleft()
        if len(completions) >= self.max_depth:
            self.shed_total += 1
            return False
        start = completions[-1] if completions else now
        completions.append(max(start, now) + self.decision_seconds)
        return True

    @property
    def depth(self) -> int:
        """Decisions currently occupying the virtual server."""
        return len(self._completions)

    def state_dict(self) -> dict:
        return {
            "completions": [t.hex() for t in self._completions],
            "shed_total": self.shed_total,
        }

    def restore_state(self, state: dict) -> None:
        self._completions = deque(
            float.fromhex(t) for t in state["completions"]
        )
        self.shed_total = int(state["shed_total"])


class CircuitBreaker:
    """Consecutive-failure breaker with request-counted cooldown.

    State machine: CLOSED -> (``failure_threshold`` consecutive
    failures) -> OPEN -> (``cooldown`` denied primaries) -> HALF_OPEN
    -> success closes / failure reopens.  Purely counter-driven, so a
    replayed request stream drives identical transitions.
    """

    def __init__(self, failure_threshold: int = 1, cooldown: int = 64):
        self.failure_threshold = check_integer(
            failure_threshold, "failure_threshold", minimum=1
        )
        self.cooldown = check_integer(cooldown, "cooldown", minimum=1)
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self.cooldown_left = 0
        self.opens = 0
        self.recoveries = 0

    def allow_primary(self) -> bool:
        """Whether the next decision may consult the primary policy."""
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_HALF_OPEN:
            return True
        self.cooldown_left -= 1
        if self.cooldown_left <= 0:
            self.state = BREAKER_HALF_OPEN
        return False

    def record_success(self) -> bool:
        """Primary lookup succeeded; returns True on a CLOSED recovery."""
        recovered = self.state != BREAKER_CLOSED
        if recovered:
            self.recoveries += 1
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        return recovered

    def record_failure(self) -> bool:
        """Primary lookup failed; returns True when the breaker opens."""
        self.consecutive_failures += 1
        if (
            self.state == BREAKER_HALF_OPEN
            or self.consecutive_failures >= self.failure_threshold
        ):
            self.state = BREAKER_OPEN
            self.cooldown_left = self.cooldown
            self.opens += 1
            return True
        return False

    def state_dict(self) -> dict:
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "cooldown_left": self.cooldown_left,
            "opens": self.opens,
            "recoveries": self.recoveries,
        }

    def restore_state(self, state: dict) -> None:
        if state["state"] not in _BREAKER_STATES:
            raise ParameterError(
                f"unknown breaker state {state['state']!r}"
            )
        self.state = state["state"]
        self.consecutive_failures = int(state["consecutive_failures"])
        self.cooldown_left = int(state["cooldown_left"])
        self.opens = int(state["opens"])
        self.recoveries = int(state["recoveries"])


class OverloadState:
    """The live queue + breaker pair one engine owns."""

    def __init__(self, policy: OverloadPolicy):
        self.policy = policy
        self.queue = AdmissionQueue(
            policy.max_queue_depth, policy.decision_seconds
        )
        self.breaker = CircuitBreaker(
            policy.breaker_failure_threshold, policy.breaker_cooldown
        )
        self.fallback_total = 0

    def state_dict(self) -> dict:
        return {
            "queue": self.queue.state_dict(),
            "breaker": self.breaker.state_dict(),
            "fallback_total": self.fallback_total,
        }

    def restore_state(self, state: dict) -> None:
        self.queue.restore_state(state["queue"])
        self.breaker.restore_state(state["breaker"])
        self.fallback_total = int(state["fallback_total"])
