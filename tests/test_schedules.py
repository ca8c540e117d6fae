"""K-schedules: unit behaviour and end-to-end use across every method."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import make
from repro.comm.cluster import SimulatedCluster
from repro.core.base import resolve_k
from repro.core.pipeline import SyncSession
from repro.core.schedules import (
    ConstantSchedule,
    WarmupSchedule,
    coerce_schedule,
    parse_schedule,
)

from tests.helpers import case5_trainer

NUM_ELEMENTS = 800


class TestConstantSchedule:
    @pytest.mark.parametrize("kwargs", [{"k": 17}, {"density": 0.05}])
    def test_matches_resolve_k(self, kwargs):
        schedule = ConstantSchedule(**kwargs)
        for iteration in (0, 1, 100):
            assert schedule.resolve(iteration, NUM_ELEMENTS) == resolve_k(
                NUM_ELEMENTS, kwargs.get("k"), kwargs.get("density"))

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantSchedule()
        with pytest.raises(ValueError):
            ConstantSchedule(k=5, density=0.1)
        with pytest.raises(ValueError):
            ConstantSchedule(density=1.5)


class TestWarmupSchedule:
    def test_ramps_from_start_density_to_target(self):
        schedule = WarmupSchedule(4, density=0.01)
        ks = [schedule.resolve(it, NUM_ELEMENTS) for it in range(7)]
        # Iteration 0 selects at DGC's start density (0.25), then decays
        # geometrically, reaching the target at warmup_steps and staying.
        assert ks[0] == int(round(0.25 * NUM_ELEMENTS))
        assert all(a >= b for a, b in zip(ks, ks[1:]))
        target = resolve_k(NUM_ELEMENTS, None, 0.01)
        assert ks[4] == target
        assert ks[5] == target and ks[6] == target

    def test_never_ramps_upward(self):
        # Target denser than the start: the ramp collapses to constant.
        schedule = WarmupSchedule(3, density=0.5, start_density=0.25)
        ks = [schedule.resolve(it, NUM_ELEMENTS) for it in range(5)]
        assert set(ks) == {resolve_k(NUM_ELEMENTS, None, 0.5)}

    def test_validation(self):
        with pytest.raises(ValueError):
            WarmupSchedule(0, density=0.01)
        with pytest.raises(ValueError):
            WarmupSchedule(3, density=0.01, start_density=1.5)


class TestSpecGrammar:
    @pytest.mark.parametrize("spec,cls", [
        ("constant", ConstantSchedule),
        ("warmup:5", WarmupSchedule),
        ("warmup:5:0.5", WarmupSchedule),
    ])
    def test_parse_and_roundtrip(self, spec, cls):
        schedule = parse_schedule(spec, density=0.01)
        assert isinstance(schedule, cls)
        assert schedule.spec() == spec
        again = parse_schedule(schedule.spec(), density=0.01)
        assert type(again) is type(schedule)

    @pytest.mark.parametrize("spec", ["cosine:5", "adaptive"])  # adaptive: removed
    def test_unknown_kind_raises(self, spec):
        with pytest.raises(ValueError, match="unknown schedule kind"):
            parse_schedule(spec, k=10)

    def test_coerce_rejects_double_target(self):
        with pytest.raises(ValueError, match="carries its own sparsity"):
            coerce_schedule(ConstantSchedule(k=5), k=7)


class TestSchedulesAcrossMethods:
    """Satellite requirement: k-schedules across methods at P in {3, 4, 5, 8}."""

    @pytest.mark.parametrize("num_workers", [3, 4, 5, 8])
    @pytest.mark.parametrize("method", ["spardl", "ok-topk", "topka", "topkdsa", "gtopk"])
    def test_warmup_schedule_runs_and_converges_to_target(self, method, num_workers):
        if method == "gtopk" and (num_workers & (num_workers - 1)) != 0:
            pytest.skip("gTopk needs a power-of-two worker count")
        warmup = 3
        sync = make(f"{method}?density=0.02&schedule=warmup:{warmup}",
                    SimulatedCluster(num_workers), num_elements=NUM_ELEMENTS)
        session = SyncSession(sync)
        for iteration in range(warmup + 2):
            grads = {w: np.random.default_rng(10 * iteration + w).normal(size=NUM_ELEMENTS)
                     for w in range(num_workers)}
            result = session.step(grads)
            assert result.is_consistent, f"{method} diverged at iteration {iteration}"
        ks = session.k_history
        target = resolve_k(NUM_ELEMENTS, None, 0.02)
        assert all(a >= b for a, b in zip(ks, ks[1:]))
        assert ks[0] > target  # warm-up really started denser
        assert ks[-1] == target  # ... and landed on the configured sparsity

    @pytest.mark.parametrize("buckets", ["", "&buckets=layer"], ids=["flat", "layer"])
    def test_training_warmup_starts_denser_and_lands_on_the_target(self, buckets):
        """A warm-up over 3 of the 5 iterations of one case-5 epoch on four
        workers, flat and per layer: the first k is denser than the last,
        and the last is the constant schedule's."""
        ks = {}
        for schedule in ("constant", "warmup:3"):
            trainer = case5_trainer(f"spardl?density=0.02&schedule={schedule}{buckets}",
                                    check_consistency=True)
            trainer.train(1)
            ks[schedule] = [k for k in trainer.session.k_history if k is not None]
        assert ks["warmup:3"][0] > ks["warmup:3"][-1] == ks["constant"][-1]

    @pytest.mark.parametrize("num_workers", [3, 4, 5, 8])
    def test_spardl_warmup_preserves_gres_conservation(self, num_workers):
        sync = make("spardl?density=0.02&schedule=warmup:3",
                    SimulatedCluster(num_workers), num_elements=NUM_ELEMENTS)
        session = SyncSession(sync)
        grads = {w: np.random.default_rng(w).normal(size=NUM_ELEMENTS)
                 for w in range(num_workers)}
        result = session.step(grads)
        reconstructed = result.gradient(0) + sync.residuals.total_residual()
        np.testing.assert_allclose(reconstructed, sum(grads.values()),
                                   rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("teams", ["", "&teams=2"], ids=["one-team", "two-teams"])
    def test_spardl_warmup_from_high_density_stays_on_the_sparse_pipeline(self, teams):
        """A DGC warm-up that starts at density 0.9 runs SRS on every step,
        with one team and with two (SAG across them), and conserves GRES
        mass while k falls to the target."""
        sync = make(f"spardl?density=0.01&schedule=warmup:4:0.9{teams}",
                    SimulatedCluster(4), num_elements=NUM_ELEMENTS)
        session = SyncSession(sync)
        total = np.zeros(NUM_ELEMENTS)
        delivered = np.zeros(NUM_ELEMENTS)
        for iteration in range(5):
            grads = {w: np.random.default_rng(iteration * 7 + w).normal(size=NUM_ELEMENTS)
                     for w in range(4)}
            result = session.step(grads)
            assert result.info["srs_steps"] > 0 and result.is_consistent
            total += sum(grads.values())
            delivered += result.gradient(0)
            np.testing.assert_allclose(delivered + sync.residuals.total_residual(),
                                       total, rtol=1e-9, atol=1e-9)
        ks = session.k_history
        assert ks[0] >= 0.9 * NUM_ELEMENTS > ks[-1] == resolve_k(NUM_ELEMENTS, None, 0.01)
