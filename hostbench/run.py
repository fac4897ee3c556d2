"""Host-time benchmark: wall-clock and memory the program spends on its workloads.

Run from the root of a checkout:

    python3 hostbench/run.py --workload join-functional --seed 1 --seconds 40 --trace 0

Workloads: join-functional, index-build, serve-observed and serve (see
``cases.py`` for what each exercises and why; ``BENCHMARK.json`` lists
the first and the third).  Every run pins itself to one CPU and

1. imports ``repro`` from ``src/``;
2. runs one untimed iteration that warms up and is checked in full: the
   seed-independent invariants and, at a seed recorded in
   ``expected.json``, the exact digests and simulated values;
3. repeats set-up plus the timed operation until they have taken
   ``--seconds`` (checks do not count), checking that each iteration's
   output repeats the first one exactly.  Between iterations it times
   ``import repro.cli`` in a fresh child interpreter and repeats cheap
   set-ups, so those samples spread over the run too.

The end-to-end times are host seconds scaled to a reference speed of the
host by a probe that samples its speed while they are measured
(``speed.py``); the run prints the unscaled samples as well.

``--trace 0`` reports the end-to-end metrics (``END_TO_END``).  ``--trace 1``
alternates untraced iterations with traced ones, which have a span around
each layer entry point (``layers.py``), and reports the per-layer split
(``PER_LAYER``); the spans go to ``hostbench/out/``.  The
last line of standard output is one JSON object; the exit code is 0 only
when every check passed.  ``--record`` stores the first iteration's
digests and simulated values as the expected ones for this seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import LAYERS, install
from speed import MIN_PROBES, SpeedProbe
from tracer import Tracer, self_times, unattributed

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
OUT = HERE / "out"

#: at least this many timed iterations and set-ups, so ``run_s`` and
#: ``setup_s`` are medians of several; cheap set-ups repeat after each
#: iteration until they add up to SETUP_SECONDS_PER_ITERATION; imports
#: are timed between iterations, in step with the measured time
MIN_TIMED = 2
MIN_SETUPS = 5
SETUP_SECONDS_PER_ITERATION = 0.1
IMPORT_SAMPLES = 15

END_TO_END = {
    "setup_s": "s",
    "import_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "workloads.build_s": "s",
    "storage.extract_calls": "count",
    "storage.extract_s": "s",
    "storage.bytes_read": "B",
    "storage.raw_scan_s": "s",
    "joins.kernel_calls": "count",
    "joins.kernel_s": "s",
    "joins.kernel_rows_in": "count",
    "joins.kernel_rows_out": "count",
    "joins.index_builds": "count",
    "joins.index_s": "s",
    "joins.index_pairs": "count",
    "joins.index_restrict_s": "s",
    "joins.components_s": "s",
    "metadata.rtree_inserts": "count",
    "metadata.rtree_searches": "count",
    "metadata.rtree_s": "s",
    "metadata.rtree_candidates_per_pair": "ratio",
    "metadata.find_calls": "count",
    "metadata.find_s": "s",
    "datamodel.overlaps_calls": "count",
    "joins.schedule_calls": "count",
    "joins.schedule_s": "s",
    "core.plan_calls": "count",
    "core.plan_s": "s",
    "services.cache_ops": "count",
    "services.cache_s": "s",
    "services.cache_hit_rate": "ratio",
    "services.cache_evictions": "count",
    "services.cache_bytes_inserted": "B",
    "cluster.engine_s": "s",
    "cluster.events_created": "count",
    "joins.qes_s": "s",
    "server.self_s": "s",
    "server.build_query_s": "s",
    "observe.reuse_record_s": "s",
    "observe.reuse_analyze_s": "s",
    "telemetry.timeseries_s": "s",
    "server.observatory_finalize_s": "s",
    "python.gc_s": "s",
    "python.gc_collections": "count",
    "sim.ij_makespan_s": "sim_s",
    "sim.gh_makespan_s": "sim_s",
    "sim.ij_stall_s": "sim_s",
    "sim.serve_makespan_s": "sim_s",
    "sim.latency_p50_s": "sim_s",
    "sim.latency_p99_s": "sim_s",
    "sim.queue_wait_p99_s": "sim_s",
    "sim.bytes_from_storage": "B",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
    "host.calib_s": "s",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["join-functional", "index-build", "serve", "serve-observed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this seed's digests and simulated values in expected.json")
    return ap.parse_args(argv)


def import_program(root: Path) -> Path:
    """Put the checkout's ``src/`` first on the path and import the program
    from it; exits with status 2 when the checkout has no program."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"hostbench: no program at {src / 'repro'}; run from the root of a checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import repro.cli  # noqa: F401  (writes the bytecode the child imports reuse, if allowed)

    if Path(repro.cli.__file__).resolve().parents[1] != src.resolve():
        print(f"hostbench: imported repro from {repro.cli.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return src


#: a child interpreter's ``import repro.cli``, probed while it runs and
#: for ``MIN_PROBES`` probes on either side; prints wall and scaled seconds
IMPORT_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
from speed import SpeedProbe
probe = SpeedProbe()
for _ in range({n}):
    probe.sample()
sys.path.insert(0, sys.argv[2])
with probe:
    start = time.perf_counter()
    import repro.cli
    end = time.perf_counter()
for _ in range({n}):
    probe.sample()
print(end - start, probe.scaled(start, end))
""".format(n=MIN_PROBES)


def import_seconds(src: Path):
    """``(wall, scaled)`` seconds of ``import repro.cli`` in a fresh child
    interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(HERE), str(src)],
                          capture_output=True, text=True, timeout=120, check=True)
    wall, scaled = done.stdout.strip().splitlines()[-1].split()
    return float(wall), float(scaled)


def calib_seconds() -> float:
    """Median time of a fixed pure-Python loop, to show machine-speed drift."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc + i * i) % 1_000_003
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class Ledger:
    """Operations attempted and failed, with the failure messages."""

    def __init__(self, units: int):
        self.units = units
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, result, label: str) -> None:
        failed, msgs = result
        self.attempted += self.units
        self.failed += min(failed, self.units)
        self.messages.extend(f"{label}: {m}" for m in msgs)


def iterate(case, seed, ref, ledger, label, tracer=None, run_id=0):
    """One set-up plus operation, checked against the first iteration;
    returns the times ``(start, set up, done)``.  With ``tracer``, spans of
    the set-up and operation carry ``run_id`` and the checks' own spans are
    left out."""
    if tracer is not None:
        tracer.run = run_id
    t0 = time.perf_counter()
    state = case.setup(seed)
    t1 = time.perf_counter()
    out = case.run(state)
    t2 = time.perf_counter()
    if tracer is not None:
        tracer.run = -1
    ledger.add(case.check(case.facts(state, out), ref), label)
    return t0, t1, t2


def more(measured: float, iterations: int, seconds: float, least: int) -> bool:
    """Whether to start another iteration: until ``seconds`` of measured
    time, stopping when the next one would end more than half an iteration
    past it, and at least ``least`` times."""
    return iterations < least or measured + measured / iterations / 2 < seconds


def check_reference(case, seed, ref, ledger, record: bool) -> None:
    """Full checks on the first iteration, against the recorded values."""
    failed, msgs = case.invariants(ref)
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    view = json.loads(json.dumps(case.view(ref)))
    if record:
        expected.setdefault(case.name, {})[str(seed)] = view
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    want = expected.get(case.name, {}).get(str(seed))
    if want is not None and want != view:
        failed = case.units
        msgs.append(f"{view} != recorded for seed {seed}: {want}")
    elif want is not None:
        print(f"  recorded values for seed {seed}: match")
    ledger.add((failed, msgs), "first iteration")


def end_to_end(case, seed, seconds, ref, ledger, src, imports):
    """Timed iterations; the extra set-up and import samples are taken
    between them, so they spread over the run as the timed ones do.  The
    speed probe runs throughout, except while a child imports (it would
    share the child's CPU); times are scaled once the run is over, so
    the probes after an interval count too."""
    probe = SpeedProbe()
    setups, runs = [], []  # (start, end) of each set-up and operation

    def setup_once():
        t0 = time.perf_counter()
        case.setup(seed)
        setups.append((t0, time.perf_counter()))

    def measured():
        return sum(b - a for a, b in setups + runs)

    def between():
        # imports in step with the measured time, so a run of few long
        # iterations does not take most of them in one burst at the end
        due = min(IMPORT_SAMPLES, math.ceil(IMPORT_SAMPLES * measured() / seconds))
        if len(imports) < due:
            probe.stop()
            while len(imports) < due:
                imports.append(import_seconds(src))
            probe.start()
        spent = 0.0
        while spent < SETUP_SECONDS_PER_ITERATION:
            setup_once()
            spent += setups[-1][1] - setups[-1][0]

    with probe:
        while more(measured(), len(runs), seconds, MIN_TIMED):
            t0, t1, t2 = iterate(case, seed, ref, ledger, f"iteration {len(runs) + 1}")
            setups.append((t0, t1))
            runs.append((t1, t2))
            between()
        while len(setups) < MIN_SETUPS:
            setup_once()
        for _ in range(MIN_PROBES):
            probe.sample()
    while len(imports) < IMPORT_SAMPLES:
        imports.append(import_seconds(src))
    scaled = {name: [probe.scaled(a, b) for a, b in spans]
              for name, spans in (("setup_s", setups), ("run_s", runs))}
    scaled["import_s"] = [s for _, s in imports]
    walls = {"setup_s": [b - a for a, b in setups], "run_s": [b - a for a, b in runs],
             "import_s": [w for w, _ in imports]}
    metrics = {name: statistics.median(scaled[name])
               for name in ("setup_s", "import_s", "run_s")}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"  {len(runs)} timed iterations, {len(setups)} set-ups, {len(imports)} imports, "
          f"{len(probe.took)} probes (mean {statistics.fmean(probe.took) * 1e3:.4f} ms)")
    for name in ("run_s", "import_s"):
        print(f"  {name} samples, scaled: " + " ".join(f"{x:.4f}" for x in scaled[name]))
        print(f"  {name} samples, wall:   " + " ".join(f"{x:.4f}" for x in walls[name]))
    # reported for reading only: unscaled, constant per seed, or redundant with run_s
    wall_run_s = statistics.median(walls["run_s"])
    extra = {f"wall_{name}": (statistics.median(walls[name]), "s") for name in walls}
    extra.update({f"sim_{k}": (v, "sim_s" if k.endswith("_s") else "B")
                  for k, v in ref.get("sim", {}).items()})
    if case.name.startswith("serve"):
        extra["queries_per_s"] = ((case.units - ref["not_completed"]) / wall_run_s, "1/s")
    extra["error_rate"] = (ledger.failed / ledger.attempted, "ratio")
    for name, (value, unit) in extra.items():
        print(f"  {name} = {value:.6g} {unit}")
    return metrics, END_TO_END


def per_layer(case, seed, seconds, ref, ledger, calib_s):
    """Alternate untraced and traced iterations for ``seconds``, so the
    overhead compares iterations run close together."""
    state = case.setup(seed)
    raw_scan_s = statistics.median(case.raw_scan(state) for _ in range(5))
    del state
    tracer = Tracer()
    untraced, walls = [], []
    while more(sum(untraced) + sum(walls), len(walls), seconds, 1):
        k = len(walls) + 1
        t0, _, t2 = iterate(case, seed, ref, ledger, f"untraced iteration {k}")
        untraced.append(t2 - t0)
        install(tracer)
        try:
            t0, _, t2 = iterate(case, seed, ref, ledger, f"traced iteration {k}", tracer, k)
            walls.append(t2 - t0)
        finally:
            tracer.uninstall()
    spans = tracer.finished()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{case.name}-seed{seed}.jsonl.gz", spans)

    stray = sorted({s.layer for s in spans} - set(LAYERS))
    if stray:
        ledger.messages.append(f"trace: spans charged to unlisted layers {stray}")
    by_run = {}
    for s in spans:
        by_run.setdefault(s.run, []).append(s)
    per_run = [split_run(by_run.get(run, []), wall, tracer, run)
               for run, wall in enumerate(walls, start=1)]
    metrics = {k: statistics.fmean(r[k] for r in per_run) for k in per_run[0]}
    metrics["storage.raw_scan_s"] = raw_scan_s
    metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / statistics.fmean(untraced) - 1.0
    metrics["host.calib_s"] = calib_s
    for key, value in ref.get("sim", {}).items():
        if f"sim.{key}" in PER_LAYER:
            metrics[f"sim.{key}"] = value
    cache = ref.get("cache", {})
    metrics["services.cache_hit_rate"] = cache.get("hit_rate", 0.0)
    metrics["services.cache_evictions"] = cache.get("evictions", 0)
    metrics["services.cache_bytes_inserted"] = cache.get("bytes_inserted", 0)
    print(f"  {len(walls)} traced iterations, {len(spans)} spans; "
          f"untraced {statistics.fmean(untraced):.4f} s")
    attributed = sum(metrics[f"{layer}_s"] for layer in LAYERS)
    print(f"  layer self times {attributed:.6f} s + unattributed "
          f"{metrics['trace.unattributed_s']:.6f} s = traced wall {metrics['trace.wall_s']:.6f} s")
    return {k: metrics.get(k, 0) for k in PER_LAYER}, PER_LAYER


def split_run(spans, wall, tracer, run):
    """Per-layer numbers of one traced iteration."""
    st = self_times(spans)
    calls, sizes = {}, {}
    for s in spans:
        key = (s.layer, s.op)
        calls[key] = calls.get(key, 0) + 1
        if s.n is not None:
            sizes[key] = sizes.get(key, 0) + (s.n if isinstance(s.n, int) else 0)
    rows_in = sum(s.n[0] for s in spans if s.layer == "joins.kernel" and s.n)
    rows_out = sum(s.n[1] for s in spans if s.layer == "joins.kernel" and s.n)
    index_ids = {s.id for s in spans if s.layer == "joins.index"}
    candidates = sum(s.n for s in spans
                     if s.op == "RTree.search" and s.parent in index_ids and s.n)
    pairs = sizes.get(("joins.index", "build_join_index"), 0)
    extract = [("storage.extract", "DescribedExtractor.extract"),
               ("storage.extract", "DescribedExtractor.extract_columns")]
    out = {f"{layer}_s": st.get(layer, 0.0) for layer in LAYERS}
    out.update({
        "storage.extract_calls": sum(calls.get(k, 0) for k in extract),
        "storage.bytes_read": sum(sizes.get(k, 0) for k in extract),
        "joins.kernel_calls": calls.get(("joins.kernel", "hash_join"), 0),
        "joins.kernel_rows_in": rows_in,
        "joins.kernel_rows_out": rows_out,
        "joins.index_builds": calls.get(("joins.index", "build_join_index"), 0),
        "joins.index_pairs": pairs,
        "metadata.rtree_inserts": calls.get(("metadata.rtree", "RTree.insert"), 0),
        "metadata.rtree_searches": calls.get(("metadata.rtree", "RTree.search"), 0),
        "metadata.rtree_candidates_per_pair": candidates / pairs if pairs else 0.0,
        "metadata.find_calls": calls.get(("metadata.find", "TableCatalog.find_chunks"), 0),
        "datamodel.overlaps_calls": tracer.counts.get((run, "datamodel.overlaps"), 0),
        "joins.schedule_calls": calls.get(("joins.schedule", "schedule_two_stage"), 0),
        "core.plan_calls": sum(v for (layer, _), v in calls.items() if layer == "core.plan"),
        "services.cache_ops": sum(v for (layer, _), v in calls.items()
                                  if layer == "services.cache"),
        "cluster.events_created": tracer.counts.get((run, "cluster.events_created"), 0),
        "python.gc_s": tracer.gc_s.get(run, 0.0),
        "python.gc_collections": tracer.gc_collections.get(run, 0),
        "trace.wall_s": wall,
        "trace.unattributed_s": unattributed(spans, wall),
    })
    return out


def pin_to_one_cpu() -> None:
    """Run on the lowest CPU this process may use.  Left to migrate, the
    process moves between CPUs whose speed differs with what shares their
    core, which more than doubled the run-to-run spread of ``run_s``."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_to_one_cpu()
    src = import_program(Path.cwd())
    from cases import CASES

    case = CASES[args.workload]
    print(f"hostbench {case.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    ledger = Ledger(case.units)
    if args.trace:
        calib_s = calib_seconds()
        ref = case.reference(args.seed)
        check_reference(case, args.seed, ref, ledger, args.record)
        metrics, units = per_layer(case, args.seed, args.seconds, ref, ledger, calib_s)
    else:
        imports = [import_seconds(src)]
        ref = case.reference(args.seed)
        check_reference(case, args.seed, ref, ledger, args.record)
        metrics, units = end_to_end(case, args.seed, args.seconds, ref, ledger, src, imports)
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for msg in ledger.messages:
        print(f"  CHECK FAILED {msg}")
    correct = ledger.failed == 0 and not ledger.messages
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
