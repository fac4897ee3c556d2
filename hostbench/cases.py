"""The benchmark's four workloads (``BENCHMARK.json`` lists two of them).

Each case builds its inputs from the seed (``setup``), runs the timed
operation (``run``), and reduces the output to plain facts outside the
timed phase (``facts``).  ``invariants`` are the checks that hold at every
seed; ``view`` is the part of the facts that must repeat exactly between
iterations and, at a recorded seed, equal ``expected.json``.

Why these four:

* ``join-functional`` joins real chunk bytes: storage extraction, the
  join kernel, the join-index build the Indexed Join runs at construction,
  and its cache (the data fits).  It is the only workload that extracts.
* ``index-build`` is the join-index build alone, on a regular grid with
  identical boxes and on two interleaved KD tilings: the R-tree and the
  pair test do all the work.  No engine, cache or kernel runs.
* ``serve`` is a 1200-query open-loop stream from two tenants on
  model-only metadata: server, planner, R-tree range search, scheduler,
  cache (with evictions) and event engine.  No extraction or kernel.
* ``serve-observed`` is the same stream with observation on, so the pair
  shows what observation costs.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Tuple

import numpy as np

from oracle import box_arrays, digest, multiset_digest, overlap_pairs

# functions are called through their modules so the traced run's
# wrappers, which rebind module attributes, see the calls
from repro import joins, workloads
from repro.cluster.cluster import paper_cluster
from repro.datamodel.bounding_box import BoundingBox
from repro.datamodel.chunk import ChunkDescriptor, ChunkRef
from repro.datamodel.subtable import SubTableId
from repro.server import COMPLETED, QueryServer
from repro.telemetry.latency import percentile
from repro.workloads import GridSpec, TenantSpec, irregular

N_S = N_J = 2


class Case:
    name = ""
    #: operations one iteration attempts (join queries, index builds,
    #: served queries); ``attempted`` and ``failed`` count these
    units = 1

    def setup(self, seed: int):
        raise NotImplementedError

    def run(self, state):
        raise NotImplementedError

    def facts(self, state, out) -> Dict:
        raise NotImplementedError

    def reference(self, seed: int) -> Dict:
        """Facts of the untimed first iteration, which also warms up."""
        state = self.setup(seed)
        return self.facts(state, self.run(state))

    def invariants(self, facts: Dict) -> Tuple[int, List[str]]:
        """``(failed units, messages)`` for the seed-independent checks."""
        return 0, []

    def view(self, facts: Dict) -> Dict:
        return {"digest": facts["digest"], "sim": facts["sim"]}

    def check(self, facts: Dict, ref: Dict) -> Tuple[int, List[str]]:
        """Checks on a timed iteration: the invariants, and its view
        repeats the reference iteration's exactly."""
        failed, msgs = self.invariants(facts)
        if self.view(facts) != self.view(ref):
            msgs.append(f"output differs from the first iteration: "
                        f"{self.view(facts)} != {self.view(ref)}")
            failed = self.units
        return failed, msgs

    def raw_scan(self, state) -> float:
        """Seconds for a bare read of the chunks the workload extracts."""
        return 0.0


def _cache_totals(stats: List[Dict[str, float]]) -> Dict[str, float]:
    hits = sum(s["hits"] for s in stats)
    misses = sum(s["misses"] for s in stats)
    return {
        "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "evictions": sum(s["evictions"] for s in stats),
        "bytes_inserted": sum(s["bytes_inserted"] for s in stats),
    }


class JoinFunctional(Case):
    """IJ then GH over real chunks, each on a fresh cluster (as ``run_point``).

    The paper's T1/T2 values are fixed functions of grid position, so this
    dataset, its join result and its makespans are the same at every seed.
    """

    name = "join-functional"
    units = 2
    spec = GridSpec((64, 64, 64), (8, 8, 8), (4, 4, 16))

    def setup(self, seed):
        return workloads.build_oil_reservoir_dataset(self.spec, N_S, functional=True,
                                                     seed=seed)

    def run(self, ds):
        reports = []
        for qes in (joins.IndexedJoinQES, joins.GraceHashQES):
            reports.append(qes(
                paper_cluster(N_S, N_J), ds.metadata, "T1", "T2",
                ds.join_attrs, ds.provider,
            ).run())
        return reports

    def facts(self, ds, out):
        ij, gh = out
        digests = []
        for report in (ij, gh):
            parts = [sub for per in report.results for sub in per]
            names = parts[0].schema.names
            digests.append(multiset_digest(
                {n: np.concatenate([p.column(n) for p in parts]) for n in names}, names))
        return {
            "digest": digests[0],
            "same_multiset": digests[0] == digests[1],
            "ij_tuples": ij.result_tuples,
            "gh_tuples": gh.result_tuples,
            "sim": {
                "ij_makespan_s": ij.total_time,
                "gh_makespan_s": gh.total_time,
                "bytes_from_storage": ij.bytes_from_storage + gh.bytes_from_storage,
                "ij_stall_s": ij.stall_time,
            },
            "cache": _cache_totals([vars(s) for s in ij.cache_stats]),
        }

    def invariants(self, facts):
        msgs = []
        T = self.spec.T
        if facts["ij_tuples"] != T or facts["gh_tuples"] != T:
            msgs.append(f"result tuples IJ={facts['ij_tuples']} GH={facts['gh_tuples']}, want {T}")
        if not facts["same_multiset"]:
            msgs.append("IJ and GH results differ as multisets")
        return (self.units if msgs else 0), msgs

    def raw_scan(self, ds):
        chunks = [(cat.schema.to_numpy_dtype(), desc)
                  for cat in (ds.metadata.table("T1"), ds.metadata.table("T2"))
                  for desc in cat.all_chunks()]
        start = time.perf_counter()
        for dtype, desc in chunks:
            np.frombuffer(ds.stores[desc.ref.storage_node].read(desc.ref), dtype=dtype).copy()
        return time.perf_counter() - start


def _tile_chunks(table_id: int, tiles, record_size: int = 16) -> List[ChunkDescriptor]:
    """Model-only chunk descriptors for KD tiles, placed round-robin."""
    out = []
    for ordinal, tile in enumerate(tiles):
        records = math.prod(hi - lo for lo, hi in tile)
        bbox = BoundingBox({name: (float(lo), float(hi - 1))
                            for name, (lo, hi) in zip("xyz", tile)})
        out.append(ChunkDescriptor(
            id=SubTableId(table_id, ordinal),
            ref=ChunkRef(storage_node=ordinal % N_S, path=f"synthetic://t{table_id}",
                         offset=0, size=records * record_size),
            attributes=("x", "y", "z"),
            extractors=("synthetic",),
            bbox=bbox,
            num_records=records,
        ))
    return out


class IndexBuild(Case):
    """``build_join_index`` twice: a regular grid and two KD tilings."""

    name = "index-build"
    units = 2
    regular = GridSpec((64, 64, 64), (4, 4, 4), (4, 4, 4))
    on = ("x", "y", "z")

    def __init__(self):
        self._oracle: Dict[int, List[np.ndarray]] = {}

    def setup(self, seed):
        ds = workloads.build_oil_reservoir_dataset(self.regular, N_S, functional=False)
        g = self.regular.g
        return seed, [
            (ds.metadata.table("T1").all_chunks(), ds.metadata.table("T2").all_chunks()),
            (_tile_chunks(1, irregular.kd_tiles(g, 256, seed=2 * seed)),
             _tile_chunks(2, irregular.kd_tiles(g, 400, seed=2 * seed + 1))),
        ]

    def run(self, state):
        return [joins.build_join_index(left, right, self.on) for left, right in state[1]]

    def oracle(self, state) -> List[np.ndarray]:
        """Brute-force pair lists, as chunk ids, computed once per seed."""
        seed, builds = state
        if seed not in self._oracle:
            pairs = []
            for left, right in builds:
                ij = overlap_pairs(*box_arrays(left, self.on), *box_arrays(right, self.on))
                lid = np.array([c.id.chunk_id for c in left])
                rid = np.array([c.id.chunk_id for c in right])
                pairs.append(np.stack([lid[ij[:, 0]], rid[ij[:, 1]]], axis=1))
            self._oracle[seed] = pairs
        return self._oracle[seed]

    def facts(self, state, indexes):
        pairs = [np.array([(l.chunk_id, r.chunk_id) for l, r in idx.pairs],
                          dtype=np.int64).reshape(-1, 2) for idx in indexes]
        return {
            "digest": digest(p.tobytes() for p in pairs),
            "matches_oracle": [bool(np.array_equal(p, o))
                               for p, o in zip(pairs, self.oracle(state))],
            "regular_components": len(indexes[0].components()),
            "sizes": {"regular_pairs": len(pairs[0]), "irregular_pairs": len(pairs[1]),
                      "irregular_boxes": [len(side) for side in state[1][1]]},
        }

    def view(self, facts):
        return {"digest": facts["digest"], "sizes": facts["sizes"]}

    def invariants(self, facts):
        msgs = [f"build {k} differs from the brute-force overlap oracle"
                for k, ok in enumerate(facts["matches_oracle"]) if not ok]
        if facts["regular_components"] != self.regular.N_C:
            msgs.append(f"regular grid has {facts['regular_components']} components, "
                        f"want N_C={self.regular.N_C}")
        return (self.units if msgs else 0), msgs


class Serve(Case):
    """A 1200-query two-tenant stream through one ``QueryServer.serve``."""

    units = 1200
    spec = GridSpec((32, 32), (4, 4), (4, 4))
    slots = 4
    #: 16 KiB per node against a 24 KiB dataset: hits, inserts and evictions
    cache_bytes = 16 * 1024
    tenants = (
        TenantSpec(name="interactive", rate=20.0, num_queries=800,
                   mix=(("scan", 2.0), ("join", 1.0))),
        TenantSpec(name="batch", rate=5.0, num_queries=400, process="bursty",
                   mix=(("aggregate", 2.0), ("join", 1.0))),
    )

    def __init__(self, observe: bool):
        self.observe = observe
        self.name = "serve-observed" if observe else "serve"

    def setup(self, seed, observe=None):
        ds = workloads.build_oil_reservoir_dataset(self.spec, N_S, functional=False)
        arrivals = workloads.generate_workload(self.tenants, seed=seed)
        server = QueryServer(
            ds, num_compute=N_J, policy="fifo", slots=self.slots,
            cache_capacity=self.cache_bytes,
            observe=self.observe if observe is None else observe,
        )
        return server, arrivals

    def run(self, state):
        server, arrivals = state
        return server.serve(arrivals)

    def reference(self, seed):
        # always unobserved, so serve-observed is checked against serve
        state = self.setup(seed, observe=False)
        return self.facts(state, self.run(state))

    def check(self, facts, ref):
        failed, msgs = super().check(facts, ref)
        if facts["observed"] != self.observe:
            msgs.append(f"observation section present={facts['observed']}, "
                        f"want {self.observe}")
            failed = self.units
        return failed, msgs

    def facts(self, state, report):
        done = [r for r in report.records if r.disposition == COMPLETED]
        latency = [r.latency for r in done] or [0.0]
        return {
            "digest": report.digest(),
            "queries": len(report.records),
            "not_completed": len(report.records) - len(done),
            "observed": report.observability is not None,
            "sim": {
                "serve_makespan_s": report.makespan,
                "latency_p50_s": percentile(latency, 50),
                "latency_p99_s": percentile(latency, 99),
                "queue_wait_p99_s": percentile([r.queue_wait for r in done] or [0.0], 99),
                "bytes_from_storage": report.bytes_from_storage,
            },
            "cache": _cache_totals(report.cache_per_node),
        }

    def invariants(self, facts):
        msgs = []
        failed = facts["not_completed"]
        if failed:
            msgs.append(f"{failed} of {facts['queries']} queries did not complete")
        if facts["queries"] != self.units:
            msgs.append(f"served {facts['queries']} queries, want {self.units}")
            failed = self.units
        return failed, msgs


CASES = {c.name: c for c in (JoinFunctional(), IndexBuild(), Serve(False), Serve(True))}
