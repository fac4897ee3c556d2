"""The engine's observation stream: one typed, synchronous event channel.

Every observer of a run — the runtime sanitizer, the busy-interval
:class:`~repro.cluster.trace.Tracer`, the telemetry metrics feed, the
serve observatory and the cache reuse recorder — subscribes to
``engine.stream``, and the simulation emits to it.  That is the only way
observation enters a run, so one argument covers every observer:

* **Passive.** An emit site hands an immutable event to the subscribers
  of its type and carries on.  No subscriber may schedule an engine
  event, draw randomness or mutate simulation state; it only reads the
  event and the objects the event names.  A run with any set of
  subscribers is therefore event-for-event the run without them.
* **Synchronous, retaining nothing.** :meth:`EventStream.emit` calls the
  handlers in subscription order and drops the event; what is kept is
  each subscriber's business.
* **Free when unwatched.** The stream is a dict from event type to its
  handlers; an event type nobody subscribed to costs its emit site one
  dict lookup and builds no event object.

Subscribing is idempotent (a handler already registered for a type is
not added twice), so wiring that runs again for the same run — a QES
begun inside a query server — registers nothing new.

The vocabulary (every event is a named tuple; fields in order):

====================  ========================================================
``ClockAdvance``      ``now`` — the engine is about to dispatch at ``now``
``Busy``              ``resource, queued_at, start, end, nbytes`` — one
                      reservation on a serial resource, served over
                      ``[start, end]``
``NetTransfer``       ``src, dst, nbytes`` — a fabric transfer
``TransferSettled``   ``storage, nbytes, ok`` — a storage transfer a QES
                      waits on succeeded (or failed)
``FaultInjected``     ``name, counter, attrs`` — the fault injector fired
``CacheAccess``       ``op, key, nbytes, origin, qid, node`` — ``op`` is
                      ``hit``/``miss``/``insert``/``drop`` (a drop is an
                      explicit remove, never a capacity eviction);
                      ``nbytes``/``origin`` are ``None`` on a miss; ``qid``
                      is the query a view attributed the access to
``CacheOp``           ``op, cache, node`` — a cache finished a state-changing
                      operation, or (``op == "bind"``) was bound to the
                      stream as compute ``node``
``QueueDepth``        ``depth`` — the admission queue changed length
``BreakerEdge``       ``is_open`` — the circuit breaker opened or closed
``QuerySubmitted``    ``entry``
``QueryQueued``       ``entry, depth``
``QueryEvicted``      ``entry, reason`` — a queued query was shed
``QueryAdmitted``     ``entry, slots_free, depth``
``SlotsChanged``      ``slots_free``
``DeadlineHit``       ``entry, where`` — queued, executing or backoff
``AttemptFailed``     ``entry, attempt, cause``
``RetryScheduled``    ``entry, attempt, delay``
``QueryTerminal``     ``record, slots_free`` — the query's one disposition
====================  ========================================================
"""

from __future__ import annotations

from collections import namedtuple
from typing import Any, Callable

__all__ = [
    "EventStream",
    "ClockAdvance",
    "Busy",
    "NetTransfer",
    "TransferSettled",
    "FaultInjected",
    "CacheAccess",
    "CacheOp",
    "QueueDepth",
    "BreakerEdge",
    "QuerySubmitted",
    "QueryQueued",
    "QueryEvicted",
    "QueryAdmitted",
    "SlotsChanged",
    "DeadlineHit",
    "AttemptFailed",
    "RetryScheduled",
    "QueryTerminal",
]


class EventStream(dict):
    """Event type → tuple of handlers (see the module docstring)."""

    def subscribe(self, kind: type, fn: Callable[[Any], None]) -> None:
        handlers = self.get(kind, ())
        if fn not in handlers:
            self[kind] = handlers + (fn,)

    def emit(self, kind: type, *fields: Any) -> None:
        """Build ``kind(*fields)`` and hand it to each subscriber of
        ``kind`` — only when there is one."""
        handlers = self.get(kind)
        if handlers:
            event = kind(*fields)
            for fn in handlers:
                fn(event)


ClockAdvance = namedtuple("ClockAdvance", "now")
Busy = namedtuple("Busy", "resource queued_at start end nbytes")
NetTransfer = namedtuple("NetTransfer", "src dst nbytes")
TransferSettled = namedtuple("TransferSettled", "storage nbytes ok")
FaultInjected = namedtuple("FaultInjected", "name counter attrs")
CacheAccess = namedtuple("CacheAccess", "op key nbytes origin qid node")
CacheOp = namedtuple("CacheOp", "op cache node")
QueueDepth = namedtuple("QueueDepth", "depth")
BreakerEdge = namedtuple("BreakerEdge", "is_open")
QuerySubmitted = namedtuple("QuerySubmitted", "entry")
QueryQueued = namedtuple("QueryQueued", "entry depth")
QueryEvicted = namedtuple("QueryEvicted", "entry reason")
QueryAdmitted = namedtuple("QueryAdmitted", "entry slots_free depth")
SlotsChanged = namedtuple("SlotsChanged", "slots_free")
DeadlineHit = namedtuple("DeadlineHit", "entry where")
AttemptFailed = namedtuple("AttemptFailed", "entry attempt cause")
RetryScheduled = namedtuple("RetryScheduled", "entry attempt delay")
QueryTerminal = namedtuple("QueryTerminal", "record slots_free")
