"""Smoke test of the end-to-end benchmark (tiny sizes, a few seconds).

Runs ``run.py --profile smoke`` in its own process — the benchmark pins
thread counts and the kernel cache through the environment, which must not
leak into the test session — and checks the result document and the
contract lines (what a driver of ``BENCHMARK.json``'s command reads)
against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
DETERMINISTIC = ("sim_step_ms", "wire_elements_per_step", "rounds_per_step",
                 "final_train_loss")
TRAINING = ("train_sim", "train_mp")


def _run(*arguments):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--profile", "smoke", *arguments],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr[-4000:]
    return completed.stdout


def _check_contract_line(line, declared):
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 < line["attempted"]
    assert set(line["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_contract_line_carries_every_end_to_end_metric():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    stdout = _run("--workload", "dense_ref", "--seed", "3", "--seconds", "0",
                  "--trace", "0")
    line = json.loads(stdout.splitlines()[-1])
    _check_contract_line(line, benchmark["end_to_end"])
    assert all(entry["value"] > 0 for entry in line["metrics"].values())


def test_smoke_profile_matches_benchmark_json(tmp_path):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "result.json"
    _run("--seed", "3", "--out", str(out))
    result = json.loads(out.read_text())

    assert result["schema"] == "spardl-e2e/1"
    assert result["claim"] is None
    assert result["seed"] == 3 and result["profile"] == "smoke"
    for key in ("nproc", "cpu", "python", "numpy", "compiled_kernels",
                "REPRO_DISABLE_CKERNELS", "git_commit"):
        assert key in result["provenance"]

    assert set(result["workloads"]) == {w["name"] for w in benchmark["workloads"]}
    for name, workload in result["workloads"].items():
        assert NAME.match(name)
        assert workload["why"] and workload["spec"]
        assert {"seed_drives", "gradient_overlap",
                "selection_overlap"} <= set(workload["shape"])
        assert workload["failed"] == 0 and workload["attempted"] > 0
        end_to_end = workload["end_to_end"]
        assert end_to_end["failed_share"]["median"] == 0.0
        # Only a workload that trains has a loss.
        assert ("final_train_loss" in end_to_end) == (name in TRAINING)
        for metric in benchmark["end_to_end"]:
            if metric["name"] in end_to_end:
                entry = end_to_end[metric["name"]]
                assert entry["unit"] == metric["unit"]
                assert entry["median"] > 0.0
        for metric in benchmark["per_layer"]:
            assert workload["per_layer"][metric["name"]]["unit"] == metric["unit"]
        for metric in list(end_to_end) + list(workload["per_layer"]):
            assert NAME.match(metric), metric
        # Tracing must not change what the program computes: the timed and
        # the traced round agree on every deterministic metric.
        for run in workload["runs"]:
            measured = [r["deterministic"] for r in run["rounds"]
                        if r["kind"] != "verify"]
            assert len(measured) >= 2
            for metric in DETERMINISTIC:
                assert len({r.get(metric) for r in measured}) == 1, (name, metric)
            traces = [r["trace"] for r in run["rounds"] if r["trace"]]
            assert traces and traces[-1]["spans"] > 0
            _check_contract_line(run["contract"], benchmark["per_layer"])

    # The metric lists are the contract: nothing declared may be missing,
    # nothing measured may be undeclared.
    trained = result["workloads"]["train_sim"]
    assert ({m["name"] for m in benchmark["end_to_end"]} | {"failed_share"}
            == set(trained["end_to_end"]))
    assert {m["name"] for m in benchmark["per_layer"]} == set(trained["per_layer"])
