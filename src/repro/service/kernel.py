"""The one per-link admission step behind replay, drive and adapt.

:func:`~repro.service.replay.replay_link`,
:func:`~repro.service.drive.drive` and
:func:`~repro.adaptive.recompute.adaptive_replay_link` all process a
link's requests the same way: release the connections whose holding
time ended before the arrival, integrate the carried load up to it,
ask the engine, count the outcome, check it against the offline
boundary, and schedule the admitted connection's departure.
:class:`LinkLoop` is that bookkeeping, written once; each driver keeps
only what is really its own around :meth:`LinkLoop.step` — journaling
and fault cues (replay), the merged multi-link stream (drive), table
swaps and drift/CLR accounting (adapt).

Every decision goes through ``AdmissionEngine.admit``/``release``
bound when the loop is built, so instrumentation that patches the
engine class beforehand sees every call.  Departure heap entries are
``(time, connection_id)`` pairs: ties release in connection-id order,
which the carried-load float sums (and with them the byte-identity
contracts) depend on.

:class:`FlatRecord` is the matching transport: a frozen stats
dataclass encoded as the float vector a worker ships back through
:class:`~repro.parallel.worker.WorkerResult`.
"""

from __future__ import annotations

import re
import typing
from dataclasses import dataclass, fields
from heapq import heappop, heappush
from typing import Callable, List, Tuple

import numpy as np

from repro.exceptions import ParameterError
from repro.service.engine import REASON_SHED, AdmissionDecision
from repro.service.tables import EFFECTIVE_BANDWIDTH_METHOD

__all__ = ["COUNTS", "FlatRecord", "LinkLoop", "LinkTask", "pool_totals"]

#: The per-request outcome counters every driver sums over links.
COUNTS = ("admitted", "blocked", "shed", "fallbacks", "boundary_violations")


def pool_totals(records, names=COUNTS) -> dict:
    """``{name: sum of record.name}`` over ``records``, in order."""
    return {name: sum(getattr(r, name) for r in records) for name in names}


class LinkLoop:
    """One link's event-loop state and its admission :meth:`step`."""

    __slots__ = (
        "engine",
        "link_id",
        "link",
        "departures",
        "admitted",
        "blocked",
        "shed",
        "fallbacks",
        "peak_occupancy",
        "boundary_violations",
        "carried_load_seconds",
        "last_event_time",
        "_admit",
        "_release",
        "_count_policy",
        "_timed",
    )

    def __init__(self, engine, link_id: str):
        self.engine = engine
        self.link_id = link_id
        self.link = engine.link(link_id)
        self.departures: List[Tuple[float, str]] = []
        self.admitted = 0
        self.blocked = 0
        #: Requests dropped by the overload policy before any table work.
        self.shed = 0
        #: Decisions served by the breaker's conservative fallback.
        self.fallbacks = 0
        self.peak_occupancy = 0
        #: Decisions inconsistent with the offline boundary (must be 0).
        self.boundary_violations = 0
        #: Integral of carried mean load over time (cells/frame x s).
        self.carried_load_seconds = 0.0
        self.last_event_time = 0.0
        self._admit = engine.admit
        self._release = engine.release
        # Only count policies have an occupancy boundary to check.
        self._count_policy = engine.policy != EFFECTIVE_BANDWIDTH_METHOD
        # The overload queue runs on the workload clock.
        self._timed = engine.overload is not None

    def step(
        self,
        now: float,
        departs_at: float,
        model,
        connection_id: str,
        force_fallback: bool = False,
    ) -> AdmissionDecision:
        """Decide one request arriving at ``now``.

        ``departs_at`` is when the connection leaves if admitted;
        ``force_fallback`` re-applies a journaled breaker decision.
        Shed and fallback decisions are decided against the overload
        policy, not the primary boundary, so they are not checked.
        """
        link = self.link
        link_id = self.link_id
        departures = self.departures
        carried = self.carried_load_seconds
        last = self.last_event_time
        while departures and departures[0][0] <= now:
            departed_at, departing = heappop(departures)
            carried += link.admitted_mean_load * (departed_at - last)
            last = departed_at
            self._release(link_id, departing)
        self.carried_load_seconds = carried + link.admitted_mean_load * (
            now - last
        )
        self.last_event_time = now

        occupancy_before = len(link.connections)
        # Only an overload policy sheds; the common path passes no
        # keywords (they cost measurably per decision).
        if self._timed or force_fallback:
            decision = self._admit(
                link_id,
                model,
                connection_id,
                now=now if self._timed else None,
                force_fallback=force_fallback,
            )
            if decision.reason == REASON_SHED:
                self.shed += 1
                return decision
        else:
            decision = self._admit(link_id, model, connection_id)
        admitted = decision.admitted
        if admitted:
            self.admitted += 1
            if decision.occupancy > self.peak_occupancy:
                self.peak_occupancy = decision.occupancy
            heappush(departures, (departs_at, connection_id))
        else:
            self.blocked += 1
        if decision.fallback:
            self.fallbacks += 1
        elif self._count_policy and admitted != (
            occupancy_before < decision.admissible
        ):
            self.boundary_violations += 1
        return decision

    # -- exact state capture for journal recovery ---------------------------

    _COUNTERS = COUNTS + ("peak_occupancy",)

    def capture(self, seq: int, tables) -> dict:
        """The full link state after event ``seq``, exactly.

        Floats as hex round-trips; the departure list in its live heap
        order (heap order is deterministic, so restoring the raw list
        reproduces identical pop sequences); accumulators as stored —
        a recovered attempt must never re-sum them.
        """
        engine = self.engine
        state = {name: getattr(self, name) for name in self._COUNTERS}
        state.update(
            seq=int(seq),
            carried_load_seconds=self.carried_load_seconds.hex(),
            last_event_time=self.last_event_time.hex(),
            departures=[[t.hex(), c] for t, c in self.departures],
            link=engine.export_link_state(self.link_id),
            tables=tables.snapshot_state(),
            overload=(
                engine.overload.state_dict()
                if engine.overload is not None
                else None
            ),
        )
        return state

    def restore(self, state: dict, tables) -> None:
        """Restore :meth:`capture` output exactly."""
        for name in self._COUNTERS:
            setattr(self, name, int(state[name]))
        self.carried_load_seconds = float.fromhex(
            state["carried_load_seconds"]
        )
        self.last_event_time = float.fromhex(state["last_event_time"])
        self.departures = [
            (float.fromhex(t), c) for t, c in state["departures"]
        ]
        engine = self.engine
        engine.restore_link_state(self.link_id, state["link"])
        tables.restore_state(state["tables"])
        if state.get("overload") is not None and engine.overload is not None:
            engine.overload.restore_state(state["overload"])


class FlatRecord:
    """Float-vector transport for a frozen stats dataclass.

    The first field is the record's index, supplied by the receiver;
    every other field ships in declaration order — a scalar as one
    float, a tuple field as ``items`` floats — and decodes back to its
    annotated type.
    """

    def as_array(self) -> np.ndarray:
        """Encode as the float vector a worker ships back."""
        values: List[float] = []
        for name, _, is_tuple in self._layout():
            value = getattr(self, name)
            if is_tuple:
                values.extend(float(v) for v in value)
            else:
                values.append(float(value))
        return np.asarray(values, dtype=float)

    @classmethod
    def from_array(cls, index: int, values, items: int = 0):
        """Decode :meth:`as_array` output; tuple fields hold ``items``."""
        layout = cls._layout()
        n_tuples = sum(1 for _, _, is_tuple in layout if is_tuple)
        expected = len(layout) - n_tuples + n_tuples * items
        values = np.asarray(values, dtype=float)
        if values.shape != (expected,):
            label = re.sub(r"(?<!^)(?=[A-Z])", "-", cls.__name__).lower()
            raise ParameterError(
                f"{label} vector must have shape ({expected},), "
                f"got {values.shape}"
            )
        data = {fields(cls)[0].name: index}
        position = 0
        for name, kind, is_tuple in layout:
            if is_tuple:
                chunk = values[position : position + items]
                data[name] = tuple(kind(v) for v in chunk)
                position += items
            else:
                data[name] = kind(values[position])
                position += 1
        return cls(**data)

    @classmethod
    def zeros(cls, index: int):
        """The all-zero record, tuple fields empty (no work ran)."""
        scalars = sum(1 for _, _, is_tuple in cls._layout() if not is_tuple)
        return cls.from_array(index, np.zeros(scalars))

    @classmethod
    def _layout(cls) -> Tuple[Tuple[str, type, bool], ...]:
        """``(name, element type, is tuple)`` per shipped field."""
        layout = cls.__dict__.get("_flat_layout")
        if layout is None:
            hints = typing.get_type_hints(cls)
            entries = []
            for field in fields(cls)[1:]:
                hint = hints[field.name]
                is_tuple = typing.get_origin(hint) is tuple
                kind = typing.get_args(hint)[0] if is_tuple else hint
                entries.append((field.name, kind, is_tuple))
            layout = tuple(entries)
            cls._flat_layout = layout
        return layout


@dataclass(frozen=True, eq=False)
class LinkTask:
    """Picklable body of one link's run, for any backend.

    Calls ``function(rng=generator, link_index=index, **kwargs)`` —
    a module-level per-link driver returning a :class:`FlatRecord` —
    and ships the record back as its float vector.
    """

    function: Callable
    kwargs: dict

    def __call__(self, index: int, generator: np.random.Generator):
        stats = self.function(rng=generator, link_index=index, **self.kwargs)
        return stats.as_array(), float(stats.n_requests)
