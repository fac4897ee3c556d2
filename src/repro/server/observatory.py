"""The serve observatory: continuous observation of a query server.

:class:`ServeObservatory` bundles the three observability surfaces —
windowed time-series (:mod:`repro.telemetry.timeseries`), the structured
ops log (:mod:`repro.telemetry.oplog`) and per-tenant SLO tracking
(:mod:`repro.server.slo`) — plus the cache reuse recorder, and feeds
them from one subscription to the engine's event stream
(:mod:`repro.cluster.stream`): admission-queue depth, breaker edges,
shared-cache operations and accesses, and the server's query lifecycle
(submit, queue, evict, admit, slots, deadline, fault, retry, terminal).
The server owns *when* an event happens; the observatory owns *what*
gets recorded where, so instrument naming lives in exactly one place.

The contract that keeps this honest is the stream's: every handler is
**passive**.  None schedules an engine event, draws randomness, or
mutates server state — observability reads the serve, never steers it —
so a serve with the observatory attached is event-for-event identical
to one without, and the serve digest cannot move (the acceptance suite
and the CLI sanitizer both assert exactly this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.cluster.stream import (
    AttemptFailed,
    BreakerEdge,
    CacheAccess,
    CacheOp,
    DeadlineHit,
    QueryAdmitted,
    QueryEvicted,
    QueryQueued,
    QuerySubmitted,
    QueryTerminal,
    QueueDepth,
    RetryScheduled,
    SlotsChanged,
)
from repro.observe.reuse import AccessTraceRecorder
from repro.server.resilience import (
    COMPLETED,
    DEADLINE_EXCEEDED,
    FAILED,
    SHED,
)
from repro.server.slo import SLOObjective, SLOTracker
from repro.telemetry.oplog import OpLog
from repro.telemetry.timeseries import TimeSeriesRecorder, window_edges

__all__ = ["ObservabilityConfig", "ServeObservatory"]

#: disposition -> oplog terminal event name
_TERMINAL_EVENT = {
    COMPLETED: "complete",
    DEADLINE_EXCEEDED: "deadline",
    SHED: "shed",
    FAILED: "failed",
}


@dataclass(frozen=True)
class ObservabilityConfig:
    """Knobs for one serve's observability layer.

    ``slo`` maps tenant name → :class:`SLOObjective`; the burn-rate
    alert parameters are shared across tenants (window lengths in
    simulated seconds, threshold as a multiple of budget-neutral burn).
    """

    window: float = 1.0
    slo: Mapping[str, SLOObjective] = field(default_factory=dict)
    short_window: float = 5.0
    long_window: float = 20.0
    burn_threshold: float = 2.0
    min_events: int = 4
    #: record per-entry cache access traces and emit the reuse analysis
    #: (miss-ratio curves, working set, materialization advisor) under
    #: ``observability.reuse``; passive like everything else here
    reuse: bool = True

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")


class ServeObservatory:
    """Continuous observation of one serve, on the simulated clock.

    ``breaker`` says the serve has a circuit breaker, whose open/closed
    gauge then starts at t=0 like the other level gauges.
    """

    def __init__(
        self,
        config: ObservabilityConfig,
        clock: Callable[[], float],
        slots: int,
        span_source: Optional[Callable[[], Optional[int]]] = None,
        breaker: bool = False,
    ) -> None:
        self.config = config
        self._clock = clock
        self._slots = slots
        self.series = TimeSeriesRecorder(clock, window=config.window)
        self.oplog = OpLog(clock, span_source=span_source)
        self.slo = SLOTracker(
            dict(config.slo),
            short_window=config.short_window,
            long_window=config.long_window,
            threshold=config.burn_threshold,
            min_events=config.min_events,
        )
        #: key-granular access recorder feeding the reuse analysis
        #: (None when config.reuse is off)
        self.reuse: Optional[AccessTraceRecorder] = (
            AccessTraceRecorder(clock, window=config.window)
            if config.reuse
            else None
        )
        # level gauges start at their true t=0 values so the first
        # window's time-weighted means are defined from the origin
        self.series.set("server.queue_depth", 0.0)
        self.series.set("server.inflight", 0.0)
        self.series.set("server.slot_utilization", 0.0)
        if breaker:
            self.series.set("server.breaker_open", 0.0)

    def subscribe(self, stream) -> None:
        """Observe the serve through its engine's event stream."""
        if self.reuse is not None:
            self.reuse.subscribe(stream)
        for kind, fn in (
            (QueueDepth, self._on_depth),
            (BreakerEdge, self._on_breaker),
            (CacheOp, self._on_cache_op),
            (CacheAccess, self._on_cache_access),
            (QuerySubmitted, self._on_submit),
            (QueryQueued, self._on_queue),
            (QueryEvicted, self._on_evict),
            (QueryAdmitted, self._on_admit),
            (SlotsChanged, self._on_slots),
            (DeadlineHit, self._on_deadline),
            (AttemptFailed, self._on_fault),
            (RetryScheduled, self._on_retry),
            (QueryTerminal, self._on_terminal),
        ):
            stream.subscribe(kind, fn)

    # -- queue, breaker and caches ---------------------------------------

    def _on_depth(self, ev: QueueDepth) -> None:
        self.series.set("server.queue_depth", float(ev.depth))

    def _on_breaker(self, ev: BreakerEdge) -> None:
        self.series.set("server.breaker_open", 1.0 if ev.is_open else 0.0)
        self.oplog.emit("breaker_open" if ev.is_open else "breaker_close")

    def _on_cache_op(self, ev: CacheOp) -> None:
        """Sample one compute node's shared cache at each state change
        (and at bind, which opens its tracks)."""
        prefix = f"cache.j{ev.node}"
        self.series.set(f"{prefix}.occupancy_bytes", float(ev.cache.used_bytes))
        self.series.set(f"{prefix}.staged_bytes", float(ev.cache.prefetch_bytes))

    def _on_cache_access(self, ev: CacheAccess) -> None:
        if ev.op == "hit":
            self.series.inc(f"cache.j{ev.node}.hits")
        elif ev.op == "miss":
            self.series.inc(f"cache.j{ev.node}.misses")

    # -- query lifecycle --------------------------------------------------

    def _on_submit(self, ev: QuerySubmitted) -> None:
        entry = ev.entry
        self.series.inc("server.submitted")
        self.oplog.emit(
            "submit",
            qid=entry.qid,
            tenant=entry.tenant,
            kind=entry.planned.kind,
            predicted=entry.predicted_time,
        )

    def _on_queue(self, ev: QueryQueued) -> None:
        self.oplog.emit(
            "queue", qid=ev.entry.qid, tenant=ev.entry.tenant, depth=ev.depth
        )

    def _on_evict(self, ev: QueryEvicted) -> None:
        self.oplog.emit(
            "evict", qid=ev.entry.qid, tenant=ev.entry.tenant, reason=ev.reason
        )

    def _on_admit(self, ev: QueryAdmitted) -> None:
        entry = ev.entry
        self.series.inc("server.admitted")
        self._sample_slots(ev.slots_free)
        self.oplog.emit(
            "admit",
            qid=entry.qid,
            tenant=entry.tenant,
            wait=self._clock() - entry.submitted_at,
            depth=ev.depth,
            slots_in_use=self._slots - ev.slots_free,
        )

    def _on_slots(self, ev: SlotsChanged) -> None:
        self._sample_slots(ev.slots_free)

    def _sample_slots(self, slots_free: int) -> None:
        in_use = self._slots - slots_free
        self.series.set("server.inflight", float(in_use))
        self.series.set("server.slot_utilization", in_use / self._slots)

    def _on_deadline(self, ev: DeadlineHit) -> None:
        self.oplog.emit(
            "deadline", qid=ev.entry.qid, tenant=ev.entry.tenant, where=ev.where
        )

    def _on_fault(self, ev: AttemptFailed) -> None:
        self.series.inc("server.faults")
        self.oplog.emit(
            "fault",
            qid=ev.entry.qid,
            tenant=ev.entry.tenant,
            attempt=ev.attempt,
            cause=type(ev.cause).__name__,
        )

    def _on_retry(self, ev: RetryScheduled) -> None:
        entry = ev.entry
        self.series.inc("server.retries")
        self.oplog.emit(
            "retry", qid=entry.qid, tenant=entry.tenant, attempt=ev.attempt
        )
        self.oplog.emit(
            "backoff", qid=entry.qid, tenant=entry.tenant, delay=ev.delay
        )

    def _on_terminal(self, ev: QueryTerminal) -> None:
        """Account one terminal disposition: series, SLO budget, oplog."""
        record = ev.record
        self._sample_slots(ev.slots_free)
        self.series.inc(f"server.disposition.{record.disposition}")
        if record.disposition == COMPLETED and record.retries > 0:
            self.oplog.emit(
                "recovery",
                qid=record.qid,
                tenant=record.tenant,
                retries=record.retries,
            )
        fields: Dict[str, Any] = {}
        if record.disposition == COMPLETED:
            fields["latency"] = record.latency
        elif record.failure is not None:
            fields["reason"] = record.failure
        self.oplog.emit(
            _TERMINAL_EVENT[record.disposition],
            qid=record.qid,
            tenant=record.tenant,
            **fields,
        )
        for kind, alert in self.slo.record(
            self._clock(), record.tenant, record.disposition, record.latency
        ):
            self.oplog.emit(
                kind,
                tenant=alert.tenant,
                short_burn=alert.short_burn,
                long_burn=alert.long_burn,
                threshold=alert.threshold,
            )

    # -- reporting ------------------------------------------------------

    def _derived_hit_rate(
        self, payload: Dict[str, Any], makespan: float
    ) -> List[Dict[str, Any]]:
        """Per-window shared-cache hit rate across every watched node."""
        edges = window_edges(self.config.window, makespan)
        hits = [0.0] * len(edges)
        misses = [0.0] * len(edges)
        for name, track in payload["counters"].items():
            target = None
            if name.startswith("cache.") and name.endswith(".hits"):
                target = hits
            elif name.startswith("cache.") and name.endswith(".misses"):
                target = misses
            if target is None:
                continue
            for i, win in enumerate(track["windows"]):
                target[i] += win["count"]
        out = []
        for (t0, t1), h, m in zip(edges, hits, misses):
            accesses = h + m
            out.append(
                {
                    "t0": t0,
                    "t1": t1,
                    "hits": h,
                    "misses": m,
                    "rate": h / accesses if accesses else None,
                }
            )
        return out

    def finalize(self, makespan: float) -> Dict[str, Any]:
        """Roll every track over ``[0, makespan]`` and assemble the
        ``observability`` section of the server report."""
        timeseries = self.series.to_payload(makespan)
        payload = {
            "timeseries": timeseries,
            "derived": {
                "cache_hit_rate": self._derived_hit_rate(timeseries, makespan)
            },
            "slo": self.slo.summary(),
            "alerts": self.slo.alert_payload(),
            "oplog": {
                "records": len(self.oplog),
                "events": self.oplog.counts(),
            },
        }
        if self.reuse is not None:
            payload["reuse"] = self.reuse.analyze(makespan)
        return payload
