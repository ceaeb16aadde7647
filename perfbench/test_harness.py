"""Self-test of the benchmark harness at a tiny size.

    python3 -m pytest perfbench/test_harness.py -q

Checks that every end-to-end and per-layer metric named in BENCHMARK.json
is emitted for every workload (non-zero where its layer runs), that a
corrupted result trips the output checks, and that the benchmark refuses
to run without the package source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Layers that must show work on each workload (the others report 0).
ACTIVE = {
    "closed_form_maps": ("params", "coefficients", "observables", "sweep", "cli"),
    "closed_form_points": ("params", "coefficients", "observables"),
    "oracle_scan": ("params", "fock", "kernels"),
}


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def result(lines):
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    code, lines = bench("--workload", workload, "--seed", "0", "--seconds", "0.05",
                        "--trace", "0")
    res = result(lines)
    assert code == 0 and res["correct"] and res["failed"] == 0
    assert res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert any(line.startswith("error_rate 0 ") for line in lines)
    assert any(line.startswith("call_p50_ms ") and " ms " in line for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_emitted(workload):
    code, lines = bench("--workload", workload, "--seed", "3", "--seconds", "0.05",
                        "--trace", "1")
    res = result(lines)
    assert code == 0 and res["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    for name, metric in res["metrics"].items():
        if name.split(".")[0] in ACTIVE[workload]:
            assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fault_injection_trips_checks(workload):
    code, lines = bench("--workload", workload, "--seed", "5", "--seconds", "0.05",
                        "--inject-fault")
    res = result(lines)
    assert code == 1 and not res["correct"] and res["failed"] >= 1
    assert any(line.startswith("error_rate ") and not line.startswith("error_rate 0 ")
               for line in lines)


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                        cwd=tmp_path)
    assert code != 0
    assert not lines or not lines[-1].startswith("{")
