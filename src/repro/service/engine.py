"""The event-driven admission-control engine.

An :class:`AdmissionEngine` is the operational form of the paper's
motivating application: it holds the admitted-connection mix of one or
more links and answers ``admit()`` / ``release()`` queries online,
delegating every capacity question to a
:class:`~repro.service.tables.DecisionTableCache` so the per-request
cost is a cache probe, not a Bahadur-Rao inversion.

Two admission disciplines:

* **count policies** (``peak-rate``, ``mean-rate``, ``bahadur-rao``,
  ``large-n``) — the link carries one homogeneous class and a request
  is admitted while the occupancy is below the offline admissible N
  for that (model, capacity, QoS, policy).  Mixing classes under a
  count policy is a configuration error and raises
  :class:`~repro.exceptions.ParameterError`.
* **effective-bandwidth** — each class is charged its CTS effective
  bandwidth ``e_i`` (the paper's resolution of the "infinite effective
  bandwidth of LRD sources" myth) and a request is admitted while
  ``sum of admitted e_i + e_new <= C``.  This is the policy that
  serves heterogeneous mixes.

Telemetry (when :mod:`repro.obs` is enabled): ``service.admitted`` /
``service.blocked`` / ``service.released`` / ``service.shed`` /
``service.fallback_decisions`` counters, a
``service.admit_latency_ns`` quantile sketch (aggregate and per
link), a per-link ``service.occupancy.<link>`` sketch, plus the table
cache's ``service.table_hits`` / ``service.table_misses``.  Each link
records into its own :class:`~repro.obs.metrics.BatchRecorder`, which
folds into the registry in batches (and before every snapshot), so an
admit pays list appends rather than registry calls.  Disabled, each
admit pays a single boolean check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Dict, NamedTuple, Optional

from repro.atm.cac import PEAK_SIGMA
from repro.atm.qos import QoSRequirement
from repro.exceptions import ParameterError, ReproError
from repro.models.base import TrafficModel
from repro.obs import metrics as _metrics
from repro.obs import spans as _spans
from repro.service.overload import OverloadPolicy, OverloadState
from repro.service.tables import (
    EFFECTIVE_BANDWIDTH_METHOD,
    SERVICE_METHODS,
    DecisionTableCache,
    decision_key,
    model_fingerprint,
)
from repro.utils.validation import check_positive

__all__ = ["AdmissionDecision", "AdmissionEngine", "LinkState"]

#: Blocked/admitted reasons reported on every decision.
REASON_ADMITTED = "admitted"
REASON_CAPACITY = "capacity"
#: The request was load-shed before any capacity question was asked.
REASON_SHED = "shed"


class AdmissionDecision(NamedTuple):
    """The outcome of one admission query (an immutable record).

    ``occupancy`` is the connection count on the link *after* the
    decision took effect; ``admissible`` is the table boundary the
    decision was checked against (the homogeneous maximum N).
    """

    admitted: bool
    link_id: str
    connection_id: str
    policy: str
    reason: str
    admissible: int
    occupancy: int
    effective_bandwidth: Optional[float] = None
    #: True when the breaker served this decision from the fallback
    #: policy instead of the configured primary.
    fallback: bool = False


class _Connection(NamedTuple):
    """Book-keeping for one admitted connection."""

    fingerprint: str
    mean: float
    effective_bandwidth: Optional[float]


# Records are built positionally on the hot path, skipping the
# generated keyword ``__new__``.
_new_record = tuple.__new__

#: :attr:`LinkState.telemetry` count slots and buffers.
_ADMITTED, _BLOCKED, _RELEASED, _SHED, _FALLBACK = range(5)
_LATENCY, _OCCUPANCY = range(2)


@dataclass
class LinkState:
    """Mutable admitted-mix state of one link."""

    link_id: str
    capacity: float
    qos: QoSRequirement
    connections: Dict[str, _Connection] = field(default_factory=dict)
    class_counts: Dict[str, int] = field(default_factory=dict)
    #: Sum of admitted effective bandwidths (effective-bandwidth policy).
    admitted_bandwidth: float = 0.0
    #: Sum of admitted mean rates (cells/frame) — the carried load.
    admitted_mean_load: float = 0.0
    #: The link's telemetry, folded into the metrics registry in batches.
    telemetry: _metrics.BatchRecorder = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.telemetry = _metrics.BatchRecorder(
            (
                "service.admitted",
                "service.blocked",
                "service.released",
                "service.shed",
                "service.fallback_decisions",
            ),
            (
                (
                    "service.admit_latency_ns",
                    f"service.admit_latency_ns.{self.link_id}",
                ),
                (f"service.occupancy.{self.link_id}",),
            ),
        )

    @property
    def occupancy(self) -> int:
        """Number of currently admitted connections."""
        return len(self.connections)


class AdmissionEngine:
    """Per-link admission control served from cached decision tables.

    Parameters
    ----------
    policy:
        One of :data:`~repro.service.tables.SERVICE_METHODS`.
    tables:
        The decision-table cache to consult; a fresh private cache by
        default.  Sharing one cache across engines shares the computed
        tables (and their hit/miss accounting).
    overload:
        Optional :class:`~repro.service.overload.OverloadPolicy`.
        When set (and ``admit`` is given the arrival time) requests
        past the bounded decision queue are shed, and primary-lookup
        failures trip a circuit breaker that serves the conservative
        fallback policy instead of taking the shard down.  Without it
        the engine keeps its legacy fail-fast semantics.
    """

    def __init__(
        self,
        policy: str = "bahadur-rao",
        *,
        tables: Optional[DecisionTableCache] = None,
        overload: Optional[OverloadPolicy] = None,
    ):
        if policy not in SERVICE_METHODS:
            raise ParameterError(
                f"unknown admission policy {policy!r}; choose from "
                f"{', '.join(SERVICE_METHODS)}"
            )
        self.policy = policy
        self.tables = tables if tables is not None else DecisionTableCache()
        self.overload = (
            OverloadState(overload) if overload is not None else None
        )
        self._links: Dict[str, LinkState] = {}
        # Admission hot-path caches.  Serializing a decision key (model
        # fingerprint + QoS/capacity float hexes) per request dominates
        # the admit cost once the table itself is warm, and the key for
        # a (model, link, method) never changes while the link exists —
        # so it is built once per link, not once per request.  Models
        # are kept strongly referenced so the ``id()`` keys stay valid.
        self._decision_keys: Dict[tuple, str] = {}
        #: id(model) -> (fingerprint, mean rate).
        self._fingerprints: Dict[int, tuple] = {}
        self._key_refs: Dict[int, TrafficModel] = {}

    # -- topology ------------------------------------------------------------

    def add_link(
        self,
        link_id: str,
        capacity: float,
        qos: Optional[QoSRequirement] = None,
    ) -> LinkState:
        """Register a link (capacity in cells/frame) and return its state."""
        check_positive(capacity, "capacity")
        if link_id in self._links:
            raise ParameterError(f"link {link_id!r} already registered")
        state = LinkState(
            link_id=link_id,
            capacity=float(capacity),
            qos=qos if qos is not None else QoSRequirement(),
        )
        self._links[link_id] = state
        return state

    def link(self, link_id: str) -> LinkState:
        try:
            return self._links[link_id]
        except KeyError:
            raise ParameterError(
                f"unknown link {link_id!r}; registered: "
                f"{sorted(self._links)}"
            ) from None

    @property
    def links(self) -> Dict[str, LinkState]:
        """Read-only view of registered links (do not mutate)."""
        return dict(self._links)

    # -- hot-path caches -----------------------------------------------------

    def _decision_key(
        self, model: TrafficModel, link: LinkState, method: str
    ) -> str:
        cache_key = (id(model), link.link_id, method)
        key = self._decision_keys.get(cache_key)
        if key is None:
            key = decision_key(model, link.capacity, link.qos, method)
            self._decision_keys[cache_key] = key
            self._key_refs[id(model)] = model
        return key

    def _info_for(self, model: TrafficModel) -> tuple:
        """``(fingerprint, mean rate)`` of ``model``, memoized."""
        info = self._fingerprints.get(id(model))
        if info is None:
            info = (model_fingerprint(model), float(model.mean))
            self._fingerprints[id(model)] = info
            self._key_refs[id(model)] = model
        return info

    def invalidate_decision_caches(self) -> None:
        """Drop every memoized decision key and model fingerprint.

        The hot-path caches are keyed by ``id(model)`` and pinned by
        strong references, which is sound only while the engine's
        world stays put.  Journal recovery breaks that premise: it
        swaps link state and table entries wholesale, and the model
        objects a recovered attempt admits against are *new* Python
        objects — if a stale cache entry survived recovery and a new
        model landed on a recycled ``id()``, the engine would serve
        decisions against the dead model's fingerprint.  Recovery
        (:meth:`restore_link_state`) therefore invalidates the caches;
        the next admit per (model, link, method) re-derives its key
        once and re-warms.
        """
        self._decision_keys.clear()
        self._fingerprints.clear()
        self._key_refs.clear()

    # -- the service surface -------------------------------------------------

    def admit(
        self,
        link_id: str,
        model: TrafficModel,
        connection_id: str,
        *,
        now: Optional[float] = None,
        force_fallback: bool = False,
    ) -> AdmissionDecision:
        """Decide one connection request against the link's free capacity.

        ``now`` is the request's arrival time on the workload clock;
        with an overload policy configured it drives the bounded
        decision queue (omitted, nothing is ever shed).
        ``force_fallback`` serves the decision from the fallback
        policy unconditionally — journal recovery uses it to re-apply
        a decision that was originally made while the breaker was
        open, without re-raising the fault that opened it.
        """
        enabled = _spans._ENABLED
        started = perf_counter_ns() if enabled else 0
        link = self.link(link_id)
        connections = link.connections
        if connection_id in connections:
            raise ParameterError(
                f"connection {connection_id!r} already admitted on "
                f"link {link_id!r}"
            )
        overload = self.overload
        if overload is None and not force_fallback:
            # Legacy fail-fast path: no breaker, lookup errors
            # propagate to the caller.
            decision = self.tables.lookup(
                model,
                link.capacity,
                link.qos,
                self.policy,
                key=self._decision_key(model, link, self.policy),
            )
            fallback = False
        else:
            if (
                overload is not None
                and now is not None
                and not overload.queue.offer(float(now))
            ):
                # Shed before any table work: overload protection must
                # not cost a lookup per rejected request.
                if enabled:
                    recorder = link.telemetry
                    recorder.counts[_SHED] += 1
                    occupancy = recorder.buffers[_OCCUPANCY]
                    occupancy.append(len(connections))
                    recorder.note(occupancy)
                return _new_record(
                    AdmissionDecision,
                    (
                        False,
                        link_id,
                        connection_id,
                        self.policy,
                        REASON_SHED,
                        -1,
                        len(connections),
                        None,
                        False,
                    ),
                )
            decision, fallback = self._guarded_lookup(
                model, link, force_fallback, enabled
            )

        fingerprint, mean = self._info_for(model)
        bandwidth = decision.effective_bandwidth
        class_counts = link.class_counts
        if fallback:
            # The fallback boundary is a peak-allocation count: total
            # occupancy below it is safe for *any* admitted mix, so no
            # homogeneity guard applies here.
            admitted = len(connections) < decision.admissible
            if admitted and self.policy == EFFECTIVE_BANDWIDTH_METHOD:
                # Keep effective-bandwidth bookkeeping conservative:
                # charge the peak allocation, symmetric on release.
                bandwidth = float(model.mean) + float(model.std) * PEAK_SIGMA
        elif self.policy == EFFECTIVE_BANDWIDTH_METHOD:
            admitted = (
                link.admitted_bandwidth + bandwidth <= link.capacity
            )
        else:
            if class_counts and fingerprint not in class_counts:
                raise ParameterError(
                    f"link {link_id!r} carries class "
                    f"{next(iter(class_counts))} but policy "
                    f"{self.policy!r} is homogeneous-only; use the "
                    f"{EFFECTIVE_BANDWIDTH_METHOD!r} policy for mixes"
                )
            admitted = class_counts.get(fingerprint, 0) < decision.admissible
        if admitted:
            connections[connection_id] = _new_record(
                _Connection, (fingerprint, mean, bandwidth)
            )
            class_counts[fingerprint] = class_counts.get(fingerprint, 0) + 1
            if bandwidth is not None:
                link.admitted_bandwidth += bandwidth
            link.admitted_mean_load += mean
        occupancy = len(connections)
        if enabled:
            recorder = link.telemetry
            counts = recorder.counts
            counts[_ADMITTED if admitted else _BLOCKED] += 1
            if fallback:
                counts[_FALLBACK] += 1
            buffers = recorder.buffers
            buffers[_LATENCY].append(perf_counter_ns() - started)
            # Occupancy after the decision is deterministic for a
            # given seed, so its sketch is part of the serial-vs-jobs
            # bit-identity contract (latency sketches are not).  Every
            # decision, shed or not, lands in this buffer, so it is
            # the one that fills first.
            buffers[_OCCUPANCY].append(occupancy)
            recorder.note(buffers[_OCCUPANCY])
        return _new_record(
            AdmissionDecision,
            (
                admitted,
                link_id,
                connection_id,
                self.policy,
                REASON_ADMITTED if admitted else REASON_CAPACITY,
                decision.admissible,
                occupancy,
                bandwidth,
                fallback,
            ),
        )

    def _guarded_lookup(
        self,
        model: TrafficModel,
        link: LinkState,
        force_fallback: bool,
        enabled: bool,
    ) -> tuple:
        """``(decision, fallback)`` behind the overload breaker."""
        overload = self.overload
        fallback = bool(force_fallback)
        decision = None
        if not fallback:
            # Only reached with an overload policy (admit serves the
            # breaker-less primary lookup itself).
            if overload.breaker.allow_primary():
                try:
                    decision = self.tables.lookup(
                        model,
                        link.capacity,
                        link.qos,
                        self.policy,
                        key=self._decision_key(model, link, self.policy),
                    )
                except ReproError:
                    opened = overload.breaker.record_failure()
                    fallback = True
                    if enabled:
                        _metrics.add("service.table_lookup_failures")
                        if opened:
                            _metrics.add("service.breaker_opened")
                else:
                    if overload.breaker.record_success() and enabled:
                        _metrics.add("service.breaker_recovered")
            else:
                fallback = True
        if fallback:
            fallback_method = (
                overload.policy.fallback_method
                if overload is not None
                else "peak-rate"
            )
            decision = self.tables.lookup(
                model,
                link.capacity,
                link.qos,
                fallback_method,
                key=self._decision_key(model, link, fallback_method),
            )
            if overload is not None:
                overload.fallback_total += 1
        return decision, fallback

    def release(self, link_id: str, connection_id: str) -> None:
        """Tear down an admitted connection, freeing its allocation."""
        link = self.link(link_id)
        try:
            connection = link.connections.pop(connection_id)
        except KeyError:
            raise ParameterError(
                f"connection {connection_id!r} is not admitted on "
                f"link {link_id!r}"
            ) from None
        class_counts = link.class_counts
        remaining = class_counts[connection.fingerprint] - 1
        if remaining:
            class_counts[connection.fingerprint] = remaining
        else:
            del class_counts[connection.fingerprint]
        if connection.effective_bandwidth is not None:
            link.admitted_bandwidth -= connection.effective_bandwidth
        link.admitted_mean_load -= connection.mean
        if _spans._ENABLED:
            recorder = link.telemetry
            recorder.counts[_RELEASED] += 1
            recorder.note()

    def flush_telemetry(self) -> None:
        """Fold every link's (and the table cache's) pending telemetry."""
        for link in self._links.values():
            link.telemetry.flush()
        self.tables.flush_telemetry()

    # -- exact state transport (journal snapshots) ---------------------------

    def export_link_state(self, link_id: str) -> dict:
        """The link's admitted mix as exact, JSON-serializable data.

        Floats travel as ``float.hex()`` and the running accumulators
        are exported *as stored* — never recomputed by summation on
        restore, because float addition order matters and recovery
        must be byte-identical to a run that never crashed.
        """
        link = self.link(link_id)
        return {
            "connections": [
                [
                    connection_id,
                    connection.fingerprint,
                    connection.mean.hex(),
                    (
                        None
                        if connection.effective_bandwidth is None
                        else connection.effective_bandwidth.hex()
                    ),
                ]
                for connection_id, connection in link.connections.items()
            ],
            "admitted_bandwidth": link.admitted_bandwidth.hex(),
            "admitted_mean_load": link.admitted_mean_load.hex(),
        }

    def restore_link_state(self, link_id: str, state: dict) -> None:
        """Restore :meth:`export_link_state` output exactly.

        Also invalidates the decision-key/fingerprint caches: the
        restored world may pair recycled ``id()`` values with
        different models, and a recovered shard must never serve a
        decision against a stale fingerprint.
        """
        self.invalidate_decision_caches()
        link = self.link(link_id)
        link.connections.clear()
        link.class_counts.clear()
        for connection_id, fingerprint, mean_hex, bandwidth_hex in state[
            "connections"
        ]:
            link.connections[connection_id] = _Connection(
                fingerprint=fingerprint,
                mean=float.fromhex(mean_hex),
                effective_bandwidth=(
                    None
                    if bandwidth_hex is None
                    else float.fromhex(bandwidth_hex)
                ),
            )
            link.class_counts[fingerprint] = (
                link.class_counts.get(fingerprint, 0) + 1
            )
        link.admitted_bandwidth = float.fromhex(state["admitted_bandwidth"])
        link.admitted_mean_load = float.fromhex(state["admitted_mean_load"])

    # -- introspection -------------------------------------------------------

    def occupancy(self, link_id: str) -> int:
        return self.link(link_id).occupancy

    def utilization(self, link_id: str) -> float:
        """Carried mean load as a fraction of the link capacity."""
        link = self.link(link_id)
        return link.admitted_mean_load / link.capacity

    def __repr__(self) -> str:
        return (
            f"AdmissionEngine(policy={self.policy!r}, "
            f"links={len(self._links)}, tables={self.tables!r})"
        )
