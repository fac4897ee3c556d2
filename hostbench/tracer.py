"""Span tracer that wraps the program's layer boundaries from outside.

The benchmark's traced run installs wrappers around the public entry
points of each layer (``install``), runs the workload, and removes them
again (``uninstall``).  Runs that report end-to-end metrics never install
them.  Each wrapped call appends one span to an in-memory list:

    Span(id, parent, layer, op, start, end, run, n)

``parent`` is the id of the innermost open span when the call began
(``-1`` at the top), ``run`` is the benchmark's id for the operation
being measured, and ``n`` is an optional size the boundary reports (rows,
bytes, candidates).  The host program is single-threaded, so spans nest
like the call stack does.  A few boundaries are too hot to time
(``BoundingBox.overlaps``, event creation); those only count calls.

A layer's self time is the duration of its spans minus the part of each
span that its children cover (:func:`self_times`).  Summed over every
layer, self time equals the time the top-level spans cover, so
``wall - covered(top-level spans)`` is the traced time no layer claims.
"""

from __future__ import annotations

import gc
import gzip
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple


class Span(NamedTuple):
    id: int
    parent: int
    layer: str
    op: str
    start: float
    end: float
    run: int
    n: object = None


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer self time: span duration minus what its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.layer] += (s.end - s.start) - covered(children.get(s.id, ()))
    return dict(out)


def unattributed(spans: Sequence[Span], wall: float) -> float:
    """Traced wall time not covered by any top-level span."""
    return wall - covered((s.start, s.end) for s in spans if s.parent < 0)


class Tracer:
    """Wraps callables in spans and keeps the spans in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Optional[tuple]] = []
        self.counts: Dict[Tuple[int, str], int] = defaultdict(int)
        self.gc_s: Dict[int, float] = defaultdict(float)
        self.gc_collections: Dict[int, int] = defaultdict(int)
        self.run = 0
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._gc_started: Optional[float] = None

    # -- wrappers -------------------------------------------------------

    def span(self, fn: Callable, layer, op: str,
             measure: Optional[Callable] = None) -> Callable:
        """Wrap ``fn``; ``layer`` is a name or a function of the call's
        first argument; ``measure(args, result)`` gives the span's ``n``."""
        spans, stack, clock = self.spans, self._stack, self.clock
        pick = layer if callable(layer) else None
        tracer = self

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            name = pick(args[0]) if pick is not None else layer
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (sid, parent, name, op, start, clock(), tracer.run, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            n = measure(args, result) if measure is not None else None
            # a plain tuple of atoms, which the garbage collector stops
            # tracking, so the traced run's collections stay as cheap
            spans[sid] = (sid, parent, name, op, start, end, tracer.run, n)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, fn: Callable, name: str) -> Callable:
        """Wrap ``fn`` so calls are counted but not timed."""
        counts = self.counts
        tracer = self

        def counted(*args, **kwargs):
            counts[(tracer.run, name)] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation ---------------------------------------------------

    def patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def patch_function(self, fn: Callable, wrapper: Callable) -> None:
        """Rebind every name in the program's modules that refers to ``fn``
        (``from m import f`` copies the binding into each importer)."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.patch(mod, attr, wrapper)

    def install_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = self.clock()
        elif self._gc_started is not None:
            self.gc_s[self.run] += self.clock() - self._gc_started
            self.gc_collections[self.run] += 1
            self._gc_started = None

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- output ---------------------------------------------------------

    def finished(self) -> List[Span]:
        """Closed spans (all of them once the traced code has returned)."""
        return [Span(*s) for s in self.spans if s is not None]

    def write(self, path, spans: Sequence[Span]) -> None:
        """Write ``spans`` as gzipped JSON lines: a header naming the
        fields, then one array per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(Span._fields) + "\n")
            for s in spans:
                fh.write(json.dumps(s) + "\n")
