"""Result documents: assembling, printing and comparing them.

One schema (``spardl-e2e/1``) for everything the benchmark writes.  A
result document holds, per workload, the raw measuring runs (every
round's per-step samples, so the filtered statistic can be recomputed and
the raw percentiles audited), the median and quartiles of every
end-to-end metric over the runs, and the per-layer metrics of the traced
run.  It claims nothing (``"claim": null``): later changes name their
metric and workload from the lists here and are compared with
``run.py compare``.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

from repro.analysis.reporting import format_table
from repro.sparse.vector import compiled_kernels_available

SCHEMA = "spardl-e2e/1"


def provenance(root: Path) -> Dict[str, Any]:
    """Where and on what the numbers were taken."""
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform(),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "compiled_kernels": compiled_kernels_available(),
        "REPRO_DISABLE_CKERNELS": os.environ.get("REPRO_DISABLE_CKERNELS", ""),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": commit,
    }


def _summary(values: List[float], unit: str) -> Dict[str, Any]:
    quartiles = (statistics.quantiles(values, n=4) if len(values) > 1
                 else [values[0]] * 3)
    return {"median": statistics.median(values), "q1": quartiles[0],
            "q3": quartiles[2], "n": len(values), "unit": unit,
            "values": values}


def assemble(documents: Dict[str, List[dict]], seed: int, profile: str,
             root: Path) -> Dict[str, Any]:
    """Fold the measuring runs of every workload into one result document."""
    workloads = {}
    for name, runs in documents.items():
        traced = [run for run in runs if run["trace"]]
        # End-to-end numbers come from untraced rounds either way; a traced
        # run has them too and stands in when no untraced run was made.
        untraced = [run for run in runs if not run["trace"]] or traced
        first = untraced[0]
        end_to_end = {
            metric: _summary([run["end_to_end"][metric]["value"]
                              for run in untraced], entry["unit"])
            for metric, entry in first["end_to_end"].items()}
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        end_to_end["failed_share"] = _summary(
            [run["failed_share"] for run in runs], "ratio")
        workloads[name] = {
            "why": first["why"], "spec": first["spec"], "shape": first["shape"],
            "steps_per_round": first["steps_per_round"],
            "skipped_steps": first["skipped_steps"],
            "rounds_timed": [sum(r["kind"] == "timed" for r in run["rounds"])
                             for run in untraced],
            "attempted": attempted, "failed": failed,
            "end_to_end": end_to_end,
            "per_layer": traced[-1]["per_layer"] if traced else {},
            "runs": runs,
        }
    return {"schema": SCHEMA, "claim": None, "seed": seed, "profile": profile,
            "provenance": provenance(root), "workloads": workloads}


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------
def print_run(document: dict) -> None:
    """Every metric of one measuring run, by name with its unit."""
    group = "per_layer" if document["trace"] else "end_to_end"
    rounds = document["rounds"]
    print(f"{document['workload']}  seed={document['seed']}  "
          f"rounds={len(rounds)} ({sum(r['kind'] == 'timed' for r in rounds)} timed)  "
          f"steps={document['attempted']}  failed={document['failed']}")
    for name, entry in document[group].items():
        print(f"  {name:<34} {entry['value']:>16.6g} {entry['unit']}")
    for record in rounds:
        for failure in record["failures"]:
            print(f"  FAILED [{record['kind']}] {failure}")


def print_result(result: dict) -> None:
    """Every end-to-end and per-layer metric of every workload."""
    workloads = result["workloads"]
    names = list(workloads)
    for group, field, title in (
            ("end_to_end", "median",
             f"end-to-end (profile {result['profile']}, seed {result['seed']}; "
             "median over the measuring runs)"),
            ("per_layer", "value", "per-layer (traced run)")):
        # A metric a workload does not have (the loss of a sync workload)
        # prints as "-".
        units = {metric: entry["unit"] for name in names
                 for metric, entry in workloads[name][group].items()}
        rows = [[metric, unit] +
                [float(workloads[name][group][metric][field])
                 if metric in workloads[name][group] else "-" for name in names]
                for metric, unit in units.items()]
        print(format_table(["metric", "unit"] + names, rows, title=title,
                           float_format="{:.6g}"))
        print()
    for name in names:
        print(f"{name}: {workloads[name]['attempted']} steps attempted, "
              f"{workloads[name]['failed']} failed")


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------
def _verdict(before: dict, after: dict, bound: float, lower: bool) -> str:
    base = before["median"]
    worse_by = (after["median"] - base) * (1.0 if lower else -1.0)
    allowed = bound * abs(base)
    spread = max(before["q3"] - before["q1"], after["q3"] - after["q1"])
    if spread > allowed:
        return "unresolved"
    if worse_by > allowed:
        return "worse"
    if worse_by < 0 and -worse_by > spread:
        return "better"
    return "within bound"


#: Per-layer deltas ``compare`` prints (largest first).
LAYER_ROWS = 15


def compare(before: dict, after: dict, benchmark: dict) -> int:
    """Print the comparison of two result documents; 1 on any ``worse``."""
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    # Not in BENCHMARK.json (a metric there is never 0): any increase is worse.
    bounds["failed_share"] = {"bound": 0.0, "better": "lower"}

    def cell(summary):
        return f"{summary['median']:.5g} [{summary['q1']:.5g}..{summary['q3']:.5g}]"

    rows, worse = [], 0
    for name, old in before["workloads"].items():
        new = after["workloads"].get(name)
        if new is None:
            continue
        for metric, a in old["end_to_end"].items():
            b = new["end_to_end"][metric]
            rule = bounds[metric]
            verdict = _verdict(a, b, rule["bound"], rule["better"] == "lower")
            worse += verdict == "worse"
            change = b["median"] - a["median"]
            delta = (f"{100.0 * change / abs(a['median']):+.1f}%" if a["median"]
                     else f"{change:+.3g}")
            rows.append([name, metric, cell(a), cell(b), delta,
                         f"{100 * rule['bound']:.1f}%", verdict])
    print(format_table(["workload", "metric", "before [q1..q3]", "after [q1..q3]",
                        "delta", "bound", "verdict"], rows))

    moved = []
    for name, old in before["workloads"].items():
        new = after["workloads"].get(name, {}).get("per_layer", {})
        for metric, a in old["per_layer"].items():
            if metric in new and new[metric]["value"] != a["value"]:
                va, vb = a["value"], new[metric]["value"]
                relative = (vb - va) / abs(va) if va else float("inf")
                moved.append((abs(relative), [name, metric, float(va), float(vb),
                                              a["unit"], f"{100 * relative:+.1f}%"]))
    moved.sort(key=lambda item: item[0], reverse=True)
    print()
    print(format_table(
        ["workload", "metric", "before", "after", "unit", "delta"],
        [row for _, row in moved[:LAYER_ROWS]], float_format="{:.5g}",
        title=f"per-layer deltas, largest first "
              f"({min(LAYER_ROWS, len(moved))} of {len(moved)})"))
    return 1 if worse else 0
