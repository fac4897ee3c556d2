"""Unit tests for the engine's observation stream."""

from collections import namedtuple

from repro.cluster.events import SimEngine
from repro.cluster.resources import BandwidthResource
from repro.cluster.stream import Busy, ClockAdvance, EventStream


class Probe(namedtuple("Probe", "value")):
    """An event type that counts how often it is built."""

    built = 0

    def __new__(cls, value):
        Probe.built += 1
        return super().__new__(cls, value)


def test_emit_without_a_subscriber_builds_no_event():
    stream = EventStream()
    before = Probe.built
    stream.emit(Probe, 1)
    assert Probe.built == before
    assert not stream and Probe not in stream


def test_handlers_run_in_subscription_order_and_once_each():
    stream = EventStream()
    seen = []

    def first(ev):
        seen.append(("first", ev.value))

    def second(ev):
        seen.append(("second", ev.value))

    stream.subscribe(Probe, first)
    stream.subscribe(Probe, second)
    stream.subscribe(Probe, first)  # idempotent: no second registration
    stream.emit(Probe, 7)
    assert seen == [("first", 7), ("second", 7)]


def test_events_of_other_types_are_not_delivered():
    stream = EventStream()
    seen = []
    stream.subscribe(Busy, seen.append)
    stream.emit(ClockAdvance, 1.0)
    assert seen == []


def test_reservation_emits_one_busy_interval_per_resource():
    eng = SimEngine()
    seen = []
    eng.stream.subscribe(Busy, seen.append)
    a = BandwidthResource(eng, bandwidth=10.0, name="a")
    b = BandwidthResource(eng, bandwidth=20.0, name="b")

    def proc():
        yield a.reserve(50)
        yield BandwidthResource.reserve_pipeline([a, b], 100)

    eng.run_process(proc())
    assert [(ev.resource, ev.queued_at, ev.start, ev.end, ev.nbytes) for ev in seen] \
        == [("a", 0.0, 0.0, 5.0, 50), ("a", 5.0, 5.0, 15.0, 100),
            ("b", 5.0, 5.0, 10.0, 100)]
