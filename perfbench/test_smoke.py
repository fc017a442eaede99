"""Smoke tests for the benchmark at a tiny input size.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Layer metrics that are not self times of a span.
NOT_SELF_TIMES = {"process.cpu_s", "trace.wall_s", "trace.overhead_s"}


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, completed.stderr
    assert result["attempted"] >= 1
    return result


def assert_metrics(result: dict, spec: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], (int, float)), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = result_of(run_bench(workload, trace=0))
    assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values() if m["unit"] in ("s", "MB"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric_within_wall_time(workload):
    result = result_of(run_bench(workload, trace=1))
    assert_metrics(result, SPEC["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    self_times = [
        value for name, value in metrics.items()
        if name.endswith("_s") and name not in NOT_SELF_TIMES
    ]
    assert 0 < sum(self_times) <= metrics["trace.wall_s"]
    assert metrics["features.build_calls"] > 0
    assert metrics["classify.train_calls"] + metrics["classify.predict_calls"] > 0


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_bench(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


def test_missing_trace_target_reads_as_zero_calls(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import tracing
    from incongruity import text

    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("incongruity.harness", "removed_function", "harness.removed"),
        ("incongruity.removed_module", "anything", "removed.module"),
        ("incongruity.classify:RemovedClass", "predict", "removed.method"),
    ))
    monkeypatch.delattr(text, "tokenize")
    with tracing.Tracer() as tracer:
        from incongruity import harness

        harness.tokenize("a b c")
    metrics = tracer.metrics()
    assert metrics["text.tokenize_calls"] == 1  # harness.tokenize is still traced
    assert metrics["similarity.embed_calls"] == 0
    assert tracer.calls["harness.removed"] == 0
