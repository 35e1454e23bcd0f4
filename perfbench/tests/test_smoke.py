"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

WORKLOADS = ("cohort", "train", "consult", "interactive")

# Metrics each workload reports beside the end-to-end ones.
WORKLOAD_METRICS = {
    "cohort": ("gen_records_per_s", "save_records_per_s", "load_records_per_s"),
    "train": ("sl_samples_per_s", "ppo_env_steps_per_s", "ranker_top1", "ppo_final_reward"),
    "consult": ("eval_questions_per_s", "top1_trained", "rediscovery_recall"),
    "interactive": ("question_latency_p50_ms", "question_latency_p99_ms",
                    "question_latency_samples"),
}
COMMON = ("setup_s", "wall_s", "peak_rss_mb", "fail_rate")
QUALITY = ("ranker_top1", "ppo_final_reward", "top1_trained", "rediscovery_recall",
           "top1_random", "top1_trained_h20")


def bench(workload: str, seed: int, trace: int):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--scale", "smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["problems"]
    assert result["attempted"] >= 1
    return result, report


def assert_units(metrics: dict, names) -> None:
    for name in names:
        assert name in metrics, name
        assert isinstance(metrics[name]["value"], (int, float)), name
        assert metrics[name]["unit"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_a_unit_and_quality_repeats(workload):
    first, report = bench(workload, seed=3, trace=0)
    assert list(first["metrics"]) == list(run.END_TO_END)
    assert_units(first["metrics"], run.END_TO_END)
    assert_units(report["metrics"], COMMON + WORKLOAD_METRICS[workload])
    assert report["metrics"]["fail_rate"]["value"] == 0.0
    env = report["environment"]
    assert env["blas_threads"] == 1
    assert env["seed"] == 3

    _, again = bench(workload, seed=3, trace=0)
    for name in QUALITY:
        if name in report["metrics"]:
            assert again["metrics"][name] == report["metrics"][name], name

    traced, traced_report = bench(workload, seed=3, trace=1)
    assert list(traced["metrics"]) == list(run.PER_LAYER)
    assert_units(traced["metrics"], run.PER_LAYER)
    for name in QUALITY:
        if name in report["metrics"]:
            assert traced_report["metrics"][name] == report["metrics"][name], name


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
