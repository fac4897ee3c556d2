"""Causal span telemetry and metrics for the simulated join stack.

:class:`Telemetry` bundles the per-run observability state: a
:class:`~repro.telemetry.spans.SpanRecorder` (the causal span DAG), a
:class:`~repro.telemetry.metrics.MetricsRegistry` (counters, gauges,
histograms), and the resource→node mapping the exporters use to group
tracks.  A :class:`~repro.cluster.cluster.ClusterSim` built with
``telemetry=True`` owns one instance, reachable from every component as
``engine.telemetry``; when the flag is off the attribute is ``None`` and
every span site short-circuits without allocating (see
:func:`~repro.telemetry.spans.maybe_span`).  The metrics are fed by
subscribing the hub to the engine's event stream
(:mod:`repro.cluster.stream`): resource busy intervals, fabric
transfers, injected faults and cache accesses/operations.

Everything recorded is a pure function of the simulation: spans stamp
``engine.now``, metrics are fed simulated timestamps, and no telemetry
code schedules events — a traced run is byte-identical in query output
to an untraced one.
"""

from __future__ import annotations

from typing import Dict

from repro.cluster.stream import Busy, CacheAccess, CacheOp, FaultInjected, NetTransfer
from repro.telemetry.latency import LatencyTracker, percentile
from repro.telemetry.metrics import (
    DEFAULT_BYTE_BUCKETS,
    DEFAULT_SECONDS_BUCKETS,
    MetricsRegistry,
)
from repro.telemetry.oplog import OpLog, validate_oplog
from repro.telemetry.spans import (
    NULL_SPAN,
    Span,
    SpanRecorder,
    maybe_span,
)
from repro.telemetry.timeseries import (
    CounterTrack,
    GaugeTrack,
    TimeSeriesRecorder,
    roll_counter,
    roll_gauge,
)

__all__ = [
    "Telemetry",
    "Span",
    "SpanRecorder",
    "LatencyTracker",
    "MetricsRegistry",
    "CounterTrack",
    "GaugeTrack",
    "TimeSeriesRecorder",
    "OpLog",
    "maybe_span",
    "percentile",
    "roll_counter",
    "roll_gauge",
    "validate_oplog",
    "NULL_SPAN",
]


class Telemetry:
    """Per-run telemetry hub: span recorder + metrics + node mapping."""

    def __init__(self, engine=None, label: str = "") -> None:
        self.engine = engine
        self.label = label
        self.recorder = SpanRecorder(engine)
        self.metrics = MetricsRegistry()
        #: resource name (``s0.disk``, ``nic7``, ``backplane``) → logical
        #: node (``storage0``, ``compute2``, ``network``); populated by
        #: the cluster at construction, consumed by the exporters.
        self.resource_nodes: Dict[str, str] = {}

    def now(self) -> float:
        return self.recorder.now()

    def node_of(self, resource: str) -> str:
        return self.resource_nodes.get(resource, "global")

    # -- the metrics feed, subscribed to the engine's event stream --------

    def subscribe(self, stream) -> None:
        """Feed the registry (and fault marker spans) from ``stream``."""
        stream.subscribe(Busy, self._on_busy)
        stream.subscribe(NetTransfer, self._on_transfer)
        stream.subscribe(FaultInjected, self._on_fault)
        stream.subscribe(CacheAccess, self._on_cache_access)
        stream.subscribe(CacheOp, self._on_cache_op)

    def _on_busy(self, ev: Busy) -> None:
        # ``start - queued_at`` is the time the request sat behind earlier
        # reservations — the FIFO queue delay — so convoys show up as
        # sustained non-zero queue depth
        self.metrics.gauge(f"queue.{ev.resource}").set(
            ev.queued_at, ev.start - ev.queued_at
        )
        self.metrics.histogram(
            "resource.request_bytes", bounds=DEFAULT_BYTE_BUCKETS
        ).observe(ev.nbytes)

    def _on_transfer(self, ev: NetTransfer) -> None:
        self.metrics.counter("net.transfers").inc()
        self.metrics.histogram(
            "net.transfer_bytes", bounds=DEFAULT_BYTE_BUCKETS
        ).observe(ev.nbytes)

    def _on_fault(self, ev: FaultInjected) -> None:
        self.metrics.counter(ev.counter).inc()
        # zero-length marker span: visible as an instant in the trace
        span = self.recorder.begin(
            ev.name, category="fault", node="global", track="faults",
            parent=None, detached=True, **ev.attrs,
        )
        self.recorder.finish(span)

    def _on_cache_access(self, ev: CacheAccess) -> None:
        if ev.op == "hit":
            self.metrics.counter(f"cache.j{ev.node}.hits").inc()
        elif ev.op == "miss":
            self.metrics.counter(f"cache.j{ev.node}.misses").inc()

    def _on_cache_op(self, ev: CacheOp) -> None:
        prefix = f"cache.j{ev.node}"
        if ev.op == "bind":
            self.metrics.counter(f"{prefix}.hits")
            self.metrics.counter(f"{prefix}.misses")
        self.metrics.gauge(f"{prefix}.occupancy_bytes").set(
            self.now(), float(ev.cache.used_bytes)
        )

    def span_until(self, event, span: Span) -> None:
        """Close ``span`` when ``event`` fires (at the firing time).

        Used for fire-and-forget work whose completion is observed only
        through an event callback (e.g. Grace Hash scratch writes posted
        by a storage streamer that does not wait for them).
        """

        def _close(_ev) -> None:
            if span.end is None:
                self.recorder.finish(span)

        event.callbacks.append(_close)


# re-exported for convenient bucket choices at call sites
Telemetry.BYTE_BUCKETS = DEFAULT_BYTE_BUCKETS
Telemetry.SECONDS_BUCKETS = DEFAULT_SECONDS_BUCKETS
