"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload once untraced and once traced and checks that each
end-to-end and per-layer metric is printed with its unit, that the seed
code passes every gate, and that a gate forced to fail through the
benchmark's own --bound setting raises failed_frac.  The library is not
touched.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(workload, trace, *extra):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _check_metrics(result, expected):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(expected)
    for name, unit in expected.items():
        m = result["metrics"][name]
        assert set(m) == {"value", "unit"} and m["unit"] == unit, name
        assert isinstance(m["value"], (int, float)), name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics(workload):
    res = _run(workload, 0)
    _check_metrics(res, END_TO_END)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_per_layer_metrics(workload):
    res = _run(workload, 1)
    _check_metrics(res, PER_LAYER)
    assert res["correct"] and res["metrics"]["failed_frac"]["value"] == 0.0
    assert res["metrics"]["trace.spans"]["value"] > 0


def test_forced_gate_failure_raises_failed_frac():
    res = _run("weighted_norm", 1, "--bound", "identity_tol=-1")
    assert not res["correct"]
    assert res["failed"] > 0
    assert res["metrics"]["failed_frac"]["value"] == res["failed"] / res["attempted"]


def test_missing_library_exits_nonzero(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in ("run.py", "workloads.py", "tracing.py"):
        (bench / f).write_text((HERE / f).read_text())
    out = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "weighted_norm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
