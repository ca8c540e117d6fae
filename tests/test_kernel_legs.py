"""Both kernel legs, checked from either one.

A failed ``cc`` makes the loader return ``None`` and every caller falls
back to NumPy, which would turn the compiled leg into a second NumPy leg
without a single red test.  So, wherever a C compiler is present:

* this process runs the kernels its leg asks for (``REPRO_DISABLE_CKERNELS``
  unset: compiled; set: NumPy), and a loaded library is a complete one (the
  bindings resolve every symbol at load time);
* a child process on the other leg runs the other kernels.

On both legs a selection without a remembered cut must seed every segment
(the fused sweep compiled, ``seed_cut`` in NumPy), so that a kernel which
silently stops seeding turns a test red rather than a benchmark slower.
Then one case-1 forward/backward (13 convolutions, 4 poolings), and one
SparDL step on sim:8 with 16 buckets, 8-bit values, momentum and two teams
plus one flat step — their global gradients, statistics and residual /
velocity slabs — must hash alike on this leg and on the other; so must
dense All-Reduces of special values and the non-zero counts they report.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import repro.api as api
from repro.comm.cluster import SimulatedCluster
from repro.comm.collectives import _BLOCK, _allreduce_dense
from repro.data.datasets import DataLoader
from repro.sparse import compiled_kernels_available
from repro.sparse.ckernels import get_kernels
from repro.sparse.topk import WarmTopK, segmented_top_k, top_k_indices
from repro.training.cases import get_case
from repro.training.trainer import default_loss_for_task

#: What this process's leg asks for.
THIS_LEG_COMPILED = not os.environ.get("REPRO_DISABLE_CKERNELS")
#: The compiler the loader would call; without one, the compiled leg cannot
#: exist and its checks skip.
COMPILER = shutil.which(os.environ.get("CC", "cc"))


def conv_digest() -> str:
    """Parameter gradients of one case-1 forward/backward."""
    case = get_case(1)
    model = case.build_model(0)
    train, _ = case.build_datasets(num_samples=16, seed=0)
    inputs, targets = next(iter(DataLoader(train, 8, shuffle=True, seed=0)))
    _, grad_output = default_loss_for_task(case.task)(model.forward(inputs), targets)
    model.backward(grad_output)
    return hashlib.sha256(
        b"".join(p.grad.tobytes() for p in model.parameters())).hexdigest()


def srs_digest() -> str:
    """One 16-bucket ``bits=8&momentum=0.9&teams=2`` step and one flat step
    on sim:8: globals, ``(rounds, total_volume)``, residual and velocity
    slabs."""
    sizes = [1000 * (1 + bucket % 4) + bucket for bucket in range(16)]
    model = types.SimpleNamespace(parameters=lambda: [
        types.SimpleNamespace(name=f"p{bucket}", size=size)
        for bucket, size in enumerate(sizes)])
    digest = hashlib.sha256()
    for spec, shape in (
            ("spardl?density=0.01&buckets=layer&bits=8&momentum=0.9&teams=2",
             {"model": model}),
            ("spardl?density=0.01", {"num_elements": sum(sizes)})):
        sync = api.make(spec + "&backend=sim:8", **shape)
        rng = np.random.default_rng(0)
        result = sync.synchronize(
            {w: rng.standard_normal(sum(sizes)) ** 3 for w in range(8)})
        digest.update(b"".join(gradient.tobytes()
                               for gradient in result.global_gradients.values()))
        digest.update(repr((result.stats.rounds, result.stats.total_volume)).encode())
        groups = getattr(sync, "sessions", None)
        for manager in ([sync.residuals] if groups is None
                        else [session.synchronizer.residuals for session in groups]):
            for worker in range(8):
                digest.update(manager.store(worker).peek().tobytes())
                velocity = manager.velocity(worker)
                digest.update(b"" if velocity is None else velocity.tobytes())
    return digest.hexdigest()


def dense_digest() -> str:
    """Dense All-Reduces (Rabenseifner at P = 4 and 8, the ring at 5) of
    vectors salted with signed zeros, subnormals, infinities and NaNs of
    both signs: result bytes, per-piece non-zeros and a ``dense`` step's
    ``final_nnz``."""
    specials = np.array([0.0, -0.0, 5e-324, -2.5e-320, np.inf, -np.inf,
                         np.nan, -np.nan, 1e308])
    digest = hashlib.sha256()
    for workers in (4, 5, 8):
        rng = np.random.default_rng(workers)
        n = 2 * _BLOCK * workers + 11
        vectors = {}
        for rank in range(workers):
            vector = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
            salted = rng.random(n) < (0.2 if rank else 0.0002)
            vector[salted] = rng.choice(specials, size=int(salted.sum()))
            vectors[rank] = vector
        result, counts = _allreduce_dense(SimulatedCluster(workers), vectors,
                                          edges=[0, 7, n // 3, n // 3, n])
        step = api.make(f"dense?backend=sim:{workers}", num_elements=n
                        ).synchronize({rank: vector[::-1] for rank, vector
                                       in vectors.items()})
        digest.update(result[0].tobytes() + step.gradient(0).tobytes())
        digest.update(repr((counts, step.info["final_nnz"])).encode())
    return digest.hexdigest()


def leg_digests(names=("conv", "srs")) -> dict:
    digests = {"conv": conv_digest, "srs": srs_digest, "dense": dense_digest}
    return {"compiled": get_kernels() is not None,
            **{name: digests[name]() for name in names}}


def test_this_leg_runs_its_own_kernels():
    available = compiled_kernels_available()
    if THIS_LEG_COMPILED and not available and COMPILER is None:
        pytest.skip("no C compiler: the compiled leg cannot load")
    assert available == THIS_LEG_COMPILED, "this leg is running the other leg's kernels"
    if THIS_LEG_COMPILED:
        kernels = get_kernels()
        assert callable(kernels.accumulate_scan) and callable(kernels.segmented_top_k)
        assert callable(kernels.top_k_split) and callable(kernels.srs_round)
        assert callable(kernels.take_rows)
        assert callable(kernels.im2col) and callable(kernels.col2im)
        assert callable(kernels.tree_sum_tasks)


def test_one_line_segmented_selection():
    keep, cuts, _ = segmented_top_k(np.array([3., 1., 2., 5., 4.]),
                                    np.array([0, 3, 5]), np.array([2, 1]))
    assert keep.tolist() == [True, False, True, True, False]
    assert cuts.tolist() == [2., 5.]


def test_cold_selection_seeds_every_segment():
    gradient = np.random.default_rng(0).standard_normal(1 << 16) ** 3
    store, selector = np.zeros(1 << 16), WarmTopK()
    bounds, ks = np.arange(0, (1 << 16) + 1, 1 << 13), np.full(8, 82)
    if not selector.fused_accumulate(0, bounds, ks, store, gradient):
        assert get_kernels() is None
        store += gradient
    picked = selector.select_segments([0], [store], bounds, ks)[0]
    assert (selector.seeded, selector.hits, selector.misses) == (8, 8, 0), vars(selector)
    assert picked.tolist() == [
        lo + i for lo in bounds[:-1].tolist()
        for i in top_k_indices(gradient[lo:lo + (1 << 13)], 82).tolist()]


def other_leg_agrees(*names: str) -> None:
    """A child process on the other leg computes the digests ``names``;
    they must equal this process's."""
    env = dict(os.environ)
    if THIS_LEG_COMPILED:
        env["REPRO_DISABLE_CKERNELS"] = "1"
    else:
        env.pop("REPRO_DISABLE_CKERNELS", None)
    root = Path(__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)] + env.get("PYTHONPATH", "").split(os.pathsep))
    child = subprocess.run([sys.executable, __file__, *names], env=env, check=True,
                           capture_output=True, text=True, timeout=300)
    other, mine = json.loads(child.stdout), leg_digests(names)
    for name in names:
        assert other[name] == mine[name], name
    if other["compiled"] == mine["compiled"] and COMPILER is None:
        pytest.skip("no C compiler: both processes ran the NumPy kernels")
    assert other["compiled"] != mine["compiled"], "both legs ran the same kernels"


def test_conv_folds_and_srs_agree_with_the_other_leg():
    other_leg_agrees("conv", "srs")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_dense_allreduce_agrees_with_the_other_leg():
    other_leg_agrees("dense")


if __name__ == "__main__":  # the child of other_leg_agrees
    print(json.dumps(leg_digests(sys.argv[1:])))
