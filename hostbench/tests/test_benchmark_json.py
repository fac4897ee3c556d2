import json
from pathlib import Path

import run
from cases import CASES

BENCH = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_metrics_match_what_the_runner_reports():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER


def test_workloads_are_cases():
    assert {w["name"] for w in BENCH["workloads"]} <= set(CASES)
    args = run.parse_args(["--workload", "serve", "--seed", "1", "--seconds", "1"])
    assert args.trace == 0


def test_every_layer_reports_its_self_time():
    from layers import LAYERS

    assert {f"{layer}_s" for layer in LAYERS} <= set(run.PER_LAYER)
