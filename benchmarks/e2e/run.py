#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

Three ways to call it, all from the repository root::

    python benchmarks/e2e/run.py --seed 0
        every workload: checks every output, prints every end-to-end and
        per-layer metric by name with its unit, writes one JSON document
        (``--out``, default ``benchmarks/e2e/out/result.json``)

    python benchmarks/e2e/run.py --workload flat_sparse --seed 0 --seconds 10 --trace 0
        one measuring run (the form BENCHMARK.json names): the last line of
        stdout is ``{"correct", "attempted", "failed", "metrics"}`` with the
        end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``)

    python benchmarks/e2e/run.py compare A.json B.json
        one row per (workload, end-to-end metric) with a verdict, then the
        per-layer deltas by size; exits non-zero on any "worse"

See README.md in this directory for the metric and workload tables.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

# One busy thread per process: the host has two cores and the noise filter
# assumes a step's minimum is reachable.  Must precede the NumPy import.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# The compiled-kernel cache (one `cc` run) stays inside the checkout.
os.environ["XDG_CACHE_HOME"] = str(ROOT / ".bench_build" / "cache")

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} not found: run.py measures the "
             "repository it is checked out in")
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402

import e2e_report  # noqa: E402
from e2e_harness import measure  # noqa: E402
from e2e_workloads import PROFILES, WORKLOADS  # noqa: E402

OUT = HERE / "out"


def _contract_line(document: dict) -> str:
    metrics = dict(document["per_layer" if document["trace"] else "end_to_end"])
    if not document["trace"]:
        # The contract wants every end-to-end metric from every workload.  A
        # sync workload trains nothing and its document has no loss; this
        # line alone carries the constant 1 in its place.
        metrics.setdefault("final_train_loss", {"value": 1.0, "unit": "loss"})
    return json.dumps({"correct": document["correct"],
                       "attempted": document["attempted"],
                       "failed": document["failed"], "metrics": metrics})


def run_one(args: argparse.Namespace) -> int:
    """One measuring run of one workload (the BENCHMARK.json command)."""
    profile = PROFILES[args.profile]
    seconds = profile.seconds if args.seconds is None else args.seconds
    OUT.mkdir(exist_ok=True)
    document = measure(WORKLOADS[args.workload], args.seed, seconds,
                       bool(args.trace), profile,
                       trace_path=str(OUT / f"trace_{args.workload}.json"))
    if args.out:
        Path(args.out).write_text(json.dumps(document))
    e2e_report.print_run(document)
    print(_contract_line(document))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload: ``profile.runs`` untraced measuring runs each, then
    one traced run.  Every run is the single-workload command in its own
    process (its peak RSS is its own), one at a time, round-robin over the
    workloads so host drift spreads evenly."""
    profile = PROFILES[args.profile]
    seconds = profile.seconds if args.seconds is None else args.seconds
    out = Path(args.out) if args.out else OUT / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    scratch = out.with_suffix(".run.json")

    documents = {name: [] for name in WORKLOADS}
    for trace in [0] * profile.runs + [1]:
        for name in WORKLOADS:
            print(f"[e2e] {name} trace={trace} ...", file=sys.stderr, flush=True)
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 name, "--seed", str(args.seed), "--seconds", str(seconds),
                 "--trace", str(trace), "--profile", args.profile,
                 "--out", str(scratch)],
                check=True, stdout=subprocess.PIPE, text=True)
            document = json.loads(scratch.read_text())
            # What a driver of BENCHMARK.json's command would have read.
            document["contract"] = json.loads(child.stdout.splitlines()[-1])
            documents[name].append(document)
    scratch.unlink(missing_ok=True)
    result = e2e_report.assemble(documents, args.seed, profile.name, ROOT)
    out.write_text(json.dumps(result, indent=1))
    e2e_report.print_result(result)
    print(f"wrote {out}")
    return 0 if all(w["failed"] == 0 for w in result["workloads"].values()) else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("before")
        parser.add_argument("after")
        args = parser.parse_args(argv[1:])
        return e2e_report.compare(json.loads(Path(args.before).read_text()),
                                  json.loads(Path(args.after).read_text()),
                                  json.loads((ROOT / "BENCHMARK.json").read_text()))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one measuring run times rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=sorted(PROFILES), default="default")
    parser.add_argument("--out", default=None, help="write the JSON document here")
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
