"""Which program entry points the traced run wraps, and under which layer.

Layer names follow the ``repro`` subpackages.  The simulated processes
(generators the event engine resumes through ``Process._step``) are
charged to the package that defines the generator: the QES joiner and
driver bodies to ``joins.qes``, the server's arrival, dispatch and
lifecycle bodies to ``server.self``, and the cluster's resource and
transfer bodies to ``cluster.engine``.  ``SimEngine.run`` self time is the
event loop itself.
"""

from __future__ import annotations

import importlib
import os
from typing import Dict

from tracer import Tracer

#: every layer a span can be charged to; the traced run reports each one
LAYERS = (
    "workloads.build",
    "storage.extract",
    "joins.kernel",
    "joins.index",
    "joins.index_restrict",
    "joins.components",
    "metadata.rtree",
    "metadata.find",
    "joins.schedule",
    "core.plan",
    "services.cache",
    "cluster.engine",
    "joins.qes",
    "server.self",
    "server.build_query",
    "observe.reuse_record",
    "observe.reuse_analyze",
    "telemetry.timeseries",
    "server.observatory_finalize",
)

_PROCESS_LAYER = {"joins": "joins.qes", "server": "server.self"}


def _process_layer_picker():
    cache: Dict[object, str] = {}

    def pick(proc) -> str:
        code = getattr(proc._gen, "gi_code", None)
        layer = cache.get(code)
        if layer is None:
            parts = os.path.normpath(getattr(code, "co_filename", "")).split(os.sep)
            pkg = parts[parts.index("repro") + 1] if "repro" in parts[:-1] else ""
            layer = cache[code] = _PROCESS_LAYER.get(pkg, "cluster.engine")
        return layer

    return pick


def _rows(args, result):
    left, right = args[0], args[1]
    return (left.num_records + right.num_records, result[0].num_records)


def install(tracer: Tracer) -> None:
    """Wrap every boundary listed in the module docstring's layers."""
    from repro.cluster.events import Process, SimEngine
    from repro.core.planner import QueryPlanningService
    from repro.datamodel.bounding_box import BoundingBox
    from repro.joins import grace_hash, indexed_join, join_index, scheduler
    from repro.metadata.rtree import RTree
    from repro.metadata.service import TableCatalog
    from repro.observe.reuse import AccessTraceRecorder
    from repro.server import queries
    from repro.server.observatory import ServeObservatory
    from repro.server.server import QueryServer
    from repro.services.bds import FunctionalProvider
    from repro.services.cache import CachingService
    from repro.storage.extractor import DescribedExtractor
    from repro.telemetry.timeseries import TimeSeriesRecorder
    from repro.workloads import arrivals, irregular, oilres

    def method(cls, attr, layer, measure=None):
        tracer.patch(cls, attr, tracer.span(
            cls.__dict__[attr], layer, f"{cls.__name__}.{attr}", measure))

    def function(fn, layer, measure=None):
        tracer.patch_function(fn, tracer.span(fn, layer, fn.__name__, measure))

    for fn in (oilres.build_oil_reservoir_dataset, arrivals.generate_workload,
               irregular.kd_tiles):
        function(fn, "workloads.build")

    method(DescribedExtractor, "extract", "storage.extract",
           lambda args, result: len(args[1]))
    method(DescribedExtractor, "extract_columns", "storage.extract",
           lambda args, result: len(args[1]))
    method(FunctionalProvider, "fetch", "storage.extract")

    # the package re-exports the function under its module's name
    kernel = importlib.import_module("repro.joins.hash_join")
    function(kernel.hash_join, "joins.kernel", _rows)
    function(join_index.build_join_index, "joins.index",
             lambda args, result: result.num_edges)
    method(join_index.PageJoinIndex, "restrict", "joins.index_restrict")
    method(join_index.PageJoinIndex, "components", "joins.components")
    function(scheduler.schedule_two_stage, "joins.schedule")

    method(RTree, "insert", "metadata.rtree")
    method(RTree, "search", "metadata.rtree", lambda args, result: len(result))
    method(TableCatalog, "find_chunks", "metadata.find")
    tracer.patch(BoundingBox, "overlaps",
                 tracer.counter(BoundingBox.__dict__["overlaps"], "datamodel.overlaps"))

    method(QueryPlanningService, "plan", "core.plan")
    method(QueryPlanningService, "plan_scan", "core.plan")
    method(CachingService, "get", "services.cache")
    method(CachingService, "put", "services.cache")

    method(SimEngine, "run", "cluster.engine")
    method(Process, "_step", _process_layer_picker())
    for attr in ("timeout", "process", "event"):
        tracer.patch(SimEngine, attr,
                     tracer.counter(SimEngine.__dict__[attr], "cluster.events_created"))
    for cls in (indexed_join.IndexedJoinQES, grace_hash.GraceHashQES):
        method(cls, "run", "joins.qes")
        method(cls, "begin", "joins.qes")
    for cls in (indexed_join.IndexedJoinRun, grace_hash.GraceHashRun):
        method(cls, "finish", "joins.qes")

    method(QueryServer, "serve", "server.self")
    function(queries.build_query, "server.build_query")
    method(AccessTraceRecorder, "_record", "observe.reuse_record")
    method(AccessTraceRecorder, "analyze", "observe.reuse_analyze")
    for attr in ("inc", "set", "to_payload"):
        method(TimeSeriesRecorder, attr, "telemetry.timeseries")
    method(ServeObservatory, "finalize", "server.observatory_finalize")
    tracer.install_gc()
