"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Checks that BENCHMARK.json and the runner name the same workloads and
metrics, that every run emits each of them, that the p99 keeps at least
ten samples beyond it, and that the runner fails without the package.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def smoke_run(capsys, workload: str, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv, sizes=workloads.SMOKE) == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["attempted"] >= 1 and 0 <= doc["failed"] <= doc["attempted"]
    for name, metric in doc["metrics"].items():
        assert math.isfinite(metric["value"]), name
    return doc


def test_benchmark_json_names_what_the_runner_emits():
    # oracle runs on request only (see run.py)
    assert [w["name"] for w in BENCH["workloads"]] == [w for w in workloads.WORKLOADS if w != "oracle"]
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == list(run.PER_LAYER.items())


def test_untraced_run_emits_every_end_to_end_metric(capsys):
    doc = smoke_run(capsys, "oracle", 0)
    assert list(doc["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in doc["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(capsys, workload):
    doc = smoke_run(capsys, workload, 1)
    assert list(doc["metrics"]) == list(run.PER_LAYER)
    values = {name: m["value"] for name, m in doc["metrics"].items()}
    # each workload reaches the layers it is meant to, and bypasses the others
    assert (values["criterion.evaluations"] > 0) == (workload != "oracle")
    assert (values["mc.path_steps"] > 0) == (workload != "frontier")
    if workload == "multifactor":
        assert values["moments_samples"] * (1 - 0.99) >= run.TAIL_SAMPLES
        assert values["moments_us_p99"] >= values["moments_us_p50"] > 0


def test_percentile_keeps_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        run.percentile(list(range(999)), 99)
    assert run.percentile(list(range(1000)), 99) == pytest.approx(989.01)


def test_runner_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
