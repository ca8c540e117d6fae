"""The documented code examples must keep running.

Runs every ``>>>`` doctest embedded in the top-level README, the docs
pages and the docstrings of ``src/repro``, so the commands and snippets
the documentation shows a new contributor cannot silently rot.  CI additionally executes every script
in ``examples/`` in a dedicated docs job.
"""

from __future__ import annotations

import doctest
import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

DOC_FILES = [
    "README.md",
    "docs/architecture.md",
    "docs/configuration.md",
    "docs/api.md",
    "docs/observability.md",
]


@pytest.mark.parametrize("relpath", DOC_FILES)
def test_doc_file_exists(relpath):
    assert (REPO_ROOT / relpath).is_file(), f"{relpath} is missing"


@pytest.mark.parametrize("relpath", DOC_FILES)
def test_doc_examples_run(relpath):
    results = doctest.testfile(str(REPO_ROOT / relpath),
                               module_relative=False, verbose=False)
    assert results.failed == 0, (
        f"{results.failed} doctest example(s) in {relpath} failed")


#: Every ``repro`` module whose docstrings hold ``>>>`` examples.
DOCTEST_MODULES = sorted(
    ".".join(path.relative_to(REPO_ROOT / "src").with_suffix("").parts).removesuffix(".__init__")
    for path in (REPO_ROOT / "src" / "repro").rglob("*.py") if ">>>" in path.read_text())


@pytest.mark.parametrize("module", DOCTEST_MODULES)
def test_module_examples_run(module):
    results = doctest.testmod(importlib.import_module(module), verbose=False)
    assert results.attempted and results.failed == 0, (
        f"{results.failed} doctest example(s) in {module} failed")


#: A repository path the docs point at (``src/repro/core/base.py:name`` and
#: ``tests/test_x.py::TestY`` point into files: the path ends at the colon).
_REPO_PATH = re.compile(r"(?<![\w/.-])((?:benchmarks|tests|src|examples)/[\w./*-]*)")


def _written_by_runs():
    """Directories the .gitignore keeps for run output (``benchmarks/e2e/out/``)."""
    lines = (REPO_ROOT / ".gitignore").read_text().splitlines()
    return tuple(line for line in lines if "/" in line.rstrip("/") and line.endswith("/"))


@pytest.mark.parametrize("relpath", DOC_FILES)
def test_doc_paths_exist(relpath):
    """Every path under benchmarks/, tests/, src/ or examples/ a doc names
    exists (a glob matches something), so a deleted file cannot leave a
    stale pointer behind."""
    outputs = _written_by_runs()
    text = (REPO_ROOT / relpath).read_text()
    missing = sorted({path for path in (p.rstrip(".") for p in _REPO_PATH.findall(text))
                      if not path.startswith(outputs)
                      and not any(REPO_ROOT.glob(path))})
    assert not missing, f"{relpath} points at missing paths: {missing}"


def test_configuration_doc_covers_every_config_field():
    import dataclasses

    from repro.core.config import SparDLConfig

    doc = (REPO_ROOT / "docs" / "configuration.md").read_text()
    for field in dataclasses.fields(SparDLConfig):
        assert f"`{field.name}`" in doc, (
            f"docs/configuration.md does not document SparDLConfig.{field.name}")


def test_api_doc_covers_every_spec_key_and_schedule_kind():
    from repro.api import _SPEC_KEYS
    from repro.core.schedules import SCHEDULE_KINDS

    doc = (REPO_ROOT / "docs" / "api.md").read_text()
    for key in _SPEC_KEYS:
        assert f"`{key}`" in doc, f"docs/api.md does not document spec key {key!r}"
    for kind in SCHEDULE_KINDS:
        assert kind in doc, f"docs/api.md does not document schedule kind {kind!r}"
    for buckets_mode in ("flat", "layer", "auto"):
        assert buckets_mode in doc, (
            f"docs/api.md does not document buckets mode {buckets_mode!r}")


def test_api_doc_migrates_every_removed_spelling():
    doc = (REPO_ROOT / "docs" / "api.md").read_text()
    migration = doc[doc.index("## Migration"):]
    rows = [line for line in migration.splitlines() if line.startswith("| ")]
    for spelling in ("hybrid=dense<SIZE", "schedule=adaptive", "buckets=auto:asc",
                     "buckets=auto:mgwfbp", "topka?density=0.01&buckets=layer",
                     "dense?buckets=layer", "AdaptiveSchedule", "plan_asc",
                     "FUSION_PLANNERS", "BucketedSynchronizer(cluster, sizes, factory",
                     "dense_fallback_ratio", "DEFAULT_DENSE_CROSSOVER",
                     "resolve_dense_crossover", "uses_dense_fallback",
                     "momentum_correction", "enable_momentum_correction",
                     "set_momentum", "overlap_comm", "fused_accumulate",
                     "buckets=size:N", "bits=B,PATTERN:B", "fuse_buckets",
                     "BucketedSynchronizer(cluster, sizes, configs)",
                     "topka?density=0.01&bits=8", "gtopk?density=0.01&momentum=0.9",
                     "SparseBaseline(num_bits=, momentum=)",
                     "QuantizedCompressor.sparse_cost", "topka?teams=2",
                     "ok-topk?residuals=local", "dense?density=0.1",
                     "dense?schedule=warmup:5"):
        assert any(spelling in row for row in rows), (
            f"docs/api.md has no migration row for {spelling!r}")


def test_configuration_doc_covers_schedule_grammar():
    doc = (REPO_ROOT / "docs" / "configuration.md").read_text()
    for token in ("warmup", "KSchedule", "buckets"):
        assert token in doc, (
            f"docs/configuration.md does not mention {token!r}")


def test_api_doc_covers_quantization():
    doc = (REPO_ROOT / "docs" / "api.md").read_text()
    for token in ("`bits`", "QuantizedCompressor", "Error feedback",
                  "quantized_complexity"):
        assert token in doc, f"docs/api.md does not mention {token!r}"


def test_configuration_doc_covers_quantization():
    doc = (REPO_ROOT / "docs" / "configuration.md").read_text()
    for token in ("`num_bits`", "QuantizedCompressor",
                  "tests/test_quantized_pipeline.py"):
        assert token in doc, f"docs/configuration.md does not mention {token!r}"


def test_configuration_doc_covers_every_fault_plan_field():
    import dataclasses

    from repro.comm.faults import FaultPlan

    doc = (REPO_ROOT / "docs" / "configuration.md").read_text()
    for field in dataclasses.fields(FaultPlan):
        assert f"`{field.name}`" in doc, (
            f"docs/configuration.md does not document FaultPlan.{field.name}")
    for token in ("install_fault_plan", "fold_lost_messages",
                  "remap_workers", "tests/test_faults.py"):
        assert token in doc, (
            f"docs/configuration.md does not mention {token!r}")


def test_api_doc_covers_fault_layer():
    doc = (REPO_ROOT / "docs" / "api.md").read_text()
    for token in ("FaultPlan", "RetryPolicy", "MembershipEvent",
                  "poll_membership", "HeterogeneousNetwork",
                  "fault_extra_rounds", "tests/test_faults.py"):
        assert token in doc, f"docs/api.md does not mention {token!r}"


def test_api_doc_covers_overlap_and_fusion():
    doc = (REPO_ROOT / "docs" / "api.md").read_text()
    for token in ("MGWFBP", "fusion_plan", "NetworkProfile",
                  "hidden_comm_time", "bucket_stats", "compute_profile",
                  "tests/test_overlap_timing.py"):
        assert token in doc, f"docs/api.md does not mention {token!r}"


def test_architecture_doc_covers_overlap_and_fusion():
    doc = (REPO_ROOT / "docs" / "architecture.md").read_text()
    for token in ("Overlap & bucket fusion", "overlap_timeline",
                  "ComputeProfile", "NetworkProfile", "simulated_time",
                  "MGWFBP", "FusionPlan", "hidden_comm",
                  "tests/test_overlap_timing.py"):
        assert token in doc, f"docs/architecture.md does not mention {token!r}"


def test_configuration_doc_covers_overlap_and_fusion():
    doc = (REPO_ROOT / "docs" / "configuration.md").read_text()
    for token in ("buckets=auto", "compute_time + communication_time", "ComputeProfile",
                  "hidden_comm_time", "tests/test_overlap_timing.py"):
        assert token in doc, (
            f"docs/configuration.md does not mention {token!r}")


def test_api_doc_covers_momentum():
    doc = (REPO_ROOT / "docs" / "api.md").read_text()
    for token in ("`momentum`", "CompressorStack", "TrainerConfig(momentum=0.0)",
                  "velocity", "tests/test_momentum.py"):
        assert token in doc, f"docs/api.md does not mention {token!r}"


def test_configuration_doc_covers_momentum():
    doc = (REPO_ROOT / "docs" / "configuration.md").read_text()
    for token in ("`momentum`", "TrainerConfig(momentum=0.0)", "velocity",
                  "tests/test_momentum.py"):
        assert token in doc, (
            f"docs/configuration.md does not mention {token!r}")


def test_observability_doc_covers_tracing():
    doc = (REPO_ROOT / "docs" / "observability.md").read_text()
    for token in ("TraceLevel", "Tracer", "MetricsRegistry",
                  "export_chrome", "validate_chrome_trace", "attach_tracer",
                  "`off`", "`steps`", "`comm`", "hook_errors",
                  "hidden_comm_time", "obs.trace_overhead_pct"):
        assert token in doc, (
            f"docs/observability.md does not mention {token!r}")


def test_api_doc_covers_tracing():
    doc = (REPO_ROOT / "docs" / "api.md").read_text()
    for token in ("`trace`", "trace=comm", "repro.obs",
                  "docs/observability.md"):
        assert token in doc, f"docs/api.md does not mention {token!r}"
