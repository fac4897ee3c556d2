"""The engine's observation stream, end to end.

Three contracts of the one observation channel (``engine.stream``):

* **reconciliation** — what a subscriber sees adds up to what the run
  reports: cache hit/miss events to the caches' counters, busy events to
  every resource's request count, terminal events to the dispositions;
* **one run, one stream** — a warm cache reused by a later run notifies
  only that run's subscribers;
* **passivity** — any set of subscribers leaves every digest, makespan
  and report byte exactly as an unwatched run produces them.
"""

import collections
import json

import pytest

from repro.analysis.sanitizer import RunSanitizer, full_digest
from repro.cluster import paper_cluster
from repro.cluster.stream import (
    Busy,
    CacheAccess,
    CacheOp,
    ClockAdvance,
    QueryTerminal,
)
from repro.joins import GraceHashQES, IndexedJoinQES
from repro.server import ObservabilityConfig, QueryServer, ServeObservatory
from repro.workloads import TenantSpec, generate_workload
from repro.workloads.generator import GridSpec
from repro.workloads.oilres import build_oil_reservoir_dataset

SERVE_SPEC = GridSpec(g=(16, 16), p=(4, 4), q=(2, 2))
JOIN_SPEC = GridSpec(g=(16, 16), p=(4, 4), q=(4, 4))
TENANTS = (
    TenantSpec(
        name="alice", rate=6.0, num_queries=6,
        mix=(("scan", 2.0), ("join", 1.0), ("aggregate", 1.0)),
    ),
    TenantSpec(
        name="bob", rate=5.0, num_queries=5, process="bursty",
        mix=(("scan", 1.0), ("join", 1.0)),
    ),
)
#: a storage node crashes mid-stream; replication lets reads fail over
FAULTS = "seed=7,storage_crash=0.3"


class Recorder:
    """Subscriber that keeps every event of the kinds it is given."""

    def __init__(self, stream, *kinds):
        self.events = collections.defaultdict(list)
        for kind in kinds:
            stream.subscribe(kind, self.events[kind].append)


def chaos_server(sanitize=False, telemetry=False, observe=False):
    dataset = build_oil_reservoir_dataset(
        SERVE_SPEC, num_storage=2, functional=True, seed=7, replication=2
    )
    return QueryServer(
        dataset, num_compute=2, slots=2, faults=FAULTS,
        sanitize=sanitize, telemetry=telemetry, observe=observe,
    )


def test_subscriber_reconciles_with_the_serve_report():
    server = chaos_server(sanitize=True, observe=True)
    seen = Recorder(server.cluster.engine.stream, CacheAccess, Busy, QueryTerminal)
    report = server.serve(generate_workload(TENANTS, seed=7))
    assert report.observability is not None

    ops = collections.Counter(ev.op for ev in seen.events[CacheAccess])
    assert ops["hit"] == sum(c.stats.hits for c in server.caches) == report.cache_hits
    assert ops["miss"] == sum(c.stats.misses for c in server.caches) \
        == report.cache_misses
    assert ops["miss"] > 0 and ops["hit"] > 0

    busy = collections.Counter(ev.resource for ev in seen.events[Busy])
    requests = {
        name: int(row["requests"])
        for name, row in server.cluster.resource_report().items()
        if row["requests"]
    }
    assert dict(busy) == requests
    assert sum(busy.values()) == sum(requests.values()) > 0

    terminal = collections.Counter(
        ev.record.disposition for ev in seen.events[QueryTerminal]
    )
    assert dict(terminal) == {
        d: n for d, n in report.disposition_counts.items() if n
    }
    assert sum(terminal.values()) == len(report.records)


def test_warm_cache_notifies_only_the_current_run():
    ds = build_oil_reservoir_dataset(JOIN_SPEC, num_storage=2, functional=True)
    first, second = RunSanitizer("first"), RunSanitizer("second")
    cluster1 = paper_cluster(2, 2)
    qes1 = IndexedJoinQES(
        cluster1, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider,
        sanitizer=first,
    )
    first.after_run(cluster1.engine, qes1.run())
    checks_after_first = first.checks["cache"]
    assert checks_after_first > 0
    old = Recorder(cluster1.engine.stream, CacheAccess, CacheOp)

    cluster2 = paper_cluster(2, 2)
    new = Recorder(cluster2.engine.stream, CacheAccess, CacheOp)
    qes2 = IndexedJoinQES(
        cluster2, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider,
        caches=qes1.caches, sanitizer=second,
    )
    report = qes2.run()
    second.after_run(cluster2.engine, report)

    assert first.checks["cache"] == checks_after_first
    assert not any(old.events.values())
    assert second.checks["cache"] > 0
    assert new.events[CacheAccess] and new.events[CacheOp]
    # the rebinding itself is an event of the second run only
    assert [ev.node for ev in new.events[CacheOp] if ev.op == "bind"] == [0, 1]
    assert sum(cs.hits for cs in report.cache_stats) > 0  # the cache was warm


# -- passivity: one parametrised on/off identity test ---------------------------

SUBSCRIBERS = {
    "none": {},
    "sanitizer": {"sanitize": True},
    "telemetry": {"telemetry": True},
    "observatory": {"observe": ObservabilityConfig(reuse=False)},
    "observatory+reuse": {"observe": ObservabilityConfig(reuse=True)},
    "all": {"sanitize": True, "telemetry": True,
            "observe": ObservabilityConfig(reuse=True)},
}


def serve_outcome(sanitize=False, telemetry=False, observe=False):
    server = chaos_server(sanitize=sanitize, telemetry=telemetry, observe=observe)
    report = server.serve(generate_workload(TENANTS, seed=7))
    payload = report.to_payload()
    payload.pop("observability", None)
    if observe:
        assert report.observability is not None
        assert ("reuse" in report.observability) == observe.reuse
    return report.digest(), report.makespan, json.dumps(payload, sort_keys=True)


def join_outcome(sanitize=False, telemetry=False, observe=False):
    """IJ then GH on one dataset; the observatory, when asked for, watches
    the Indexed Join's caches through the same stream wiring."""
    ds = build_oil_reservoir_dataset(
        JOIN_SPEC, num_storage=2, functional=True, replication=2
    )
    out = []
    for cls in (IndexedJoinQES, GraceHashQES):
        cluster = paper_cluster(2, 2, faults=FAULTS, telemetry=telemetry)
        sanitizer = RunSanitizer(cls.__name__) if sanitize else None
        if observe:
            observatory = ServeObservatory(
                observe, clock=lambda c=cluster: c.engine.now, slots=1
            )
            cluster.observe(observatory=observatory)
        report = cls(
            cluster, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider,
            sanitizer=sanitizer,
        ).run()
        if sanitizer is not None:
            sanitizer.after_run(cluster.engine, report)
        if observe and cls is IndexedJoinQES:
            assert observatory.finalize(report.total_time)["timeseries"]["counters"]
        out.append((
            full_digest(report),
            report.total_time,
            sorted(cluster.resource_report().items()),
        ))
    return out


SCENARIOS = {"chaos-serve": serve_outcome, "traced-ij-gh": join_outcome}
_BASELINES = {}


@pytest.mark.parametrize("subscribers", list(SUBSCRIBERS))
@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_subscribers_change_nothing(scenario, subscribers):
    run = SCENARIOS[scenario]
    if scenario not in _BASELINES:
        _BASELINES[scenario] = run()
    assert run(**SUBSCRIBERS[subscribers]) == _BASELINES[scenario]


def test_clock_events_follow_every_dispatch():
    cluster = paper_cluster(2, 2)
    assert ClockAdvance not in cluster.engine.stream  # nobody watches by default
    seen = Recorder(cluster.engine.stream, ClockAdvance)
    ds = build_oil_reservoir_dataset(JOIN_SPEC, num_storage=2, functional=False)
    GraceHashQES(
        cluster, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider
    ).run()
    times = [ev.now for ev in seen.events[ClockAdvance]]
    assert times == sorted(times) and times[-1] == cluster.engine.now
