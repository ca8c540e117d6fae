"""The values, pinned.

Per case, one SHA-256 over ``STEPS`` steps of every rank's global gradient,
residual store and momentum velocity (the raw float64 bits), and every
step's ``(rounds, total_volume)``.  Cases are the baselines that merge-sum
what they receive (TopkDSA, Ok-Topk, TopkA, gTopk) and SparDL over R-SAG
teams, at P ∈ {2, 3, 4, 5, 8} where the method runs, each with and without a seeded drop/delay plan.  Where
:mod:`tests.test_wire_bill` pins what a run sends, this module pins what it
computes.  The recorded digests are the values as they stood when the
baselines and R-SAG still summed through a pairwise merge: moving every sum
onto the one k-way merge left every bit unchanged.  A change that moves a value on purpose re-records the digests
(run this module as a script, on both kernel legs) and says so; any other
change must leave them alone.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.api import make
from repro.comm.cluster import SimulatedCluster
from repro.comm.faults import FaultPlan

NUM_ELEMENTS = 4096
STEPS = 3


def _cases():
    specs = {
        "topkdsa": (2, 3, 4, 5, 8),
        "ok-topk": (2, 3, 4, 5, 8),
        "topka": (2, 3, 4, 5, 8),
        "gtopk": (2, 4, 8),
        "spardl?teams=2": (2, 4, 8),
        "spardl?teams=4&bits=8&momentum=0.5": (4, 8),
    }
    for spec, worker_counts in specs.items():
        for num_workers in worker_counts:
            for faults in (False, True):
                yield spec, num_workers, faults


def value_digest(spec: str, num_workers: int, faults: bool) -> str:
    """Hash of the values of ``STEPS`` steps of ``spec`` on ``num_workers``
    simulated workers (under ``FaultPlan(seed=3, drop_rate=0.2,
    delay_rate=0.2)`` when ``faults``)."""
    cluster = SimulatedCluster(num_workers)
    if faults:
        cluster.install_fault_plan(FaultPlan(seed=3, drop_rate=0.2, delay_rate=0.2))
    sync = make(spec, cluster, num_elements=NUM_ELEMENTS, density=0.02)
    residuals = sync.residuals
    digest = hashlib.sha256()
    rng = np.random.default_rng(num_workers)
    for _ in range(STEPS):
        result = sync.synchronize(dict(enumerate(
            rng.standard_normal((num_workers, NUM_ELEMENTS)))))
        for rank in range(num_workers):
            digest.update(np.ascontiguousarray(result.global_gradients[rank]).tobytes())
            digest.update(residuals.store(rank).peek().tobytes())
            velocity = residuals.velocity(rank)
            if velocity is not None:
                digest.update(velocity.tobytes())
        digest.update(repr((result.stats.rounds,
                            float(result.stats.total_volume).hex())).encode())
    return digest.hexdigest()


def _case_id(spec: str, num_workers: int, faults: bool) -> str:
    return f"{spec}|P={num_workers}" + ("|faults" if faults else "")


DIGESTS = {
    'topkdsa|P=2': 'b050df41d340d3cd4fc9042c1a313f3250f0ae9b5399b7146dd4f13cba379d37',
    'topkdsa|P=2|faults': 'b8bbc497692ed55cbb454a074bd50822fffa357a2151829d2b168c9082f8d9d5',
    'topkdsa|P=3': '802103f2b0879cc2ab583eaa1f4717632cf55173ec0826e755eb5695c18a110e',
    'topkdsa|P=3|faults': '1e05feceddbe8527b566a7774585ef30e76389871d1ddb3117e58eee6b8472f9',
    'topkdsa|P=4': '358c647d96fb14d75c7214718027e1950c09901edb793e74a7f41f8c01180f33',
    'topkdsa|P=4|faults': 'd06aaeb59c8961bede7151bf2e1680b1a0b4ba593a53cdd97fe53199f217c464',
    'topkdsa|P=5': '7be49748d906b43f951352a2fb86acb881955d5ebbe4b1b9ec31761ed47dfbd9',
    'topkdsa|P=5|faults': '170d0c0053a1520ba170dadb856b9cd8a2e6477088bab54551d30ea0fa433e94',
    'topkdsa|P=8': 'c13b787c86ec2172ac72e71f08213364fca4bfa979109dc1afa117f06c47ee6e',
    'topkdsa|P=8|faults': '8d98a320fffc43cdfac808778e794a7273f4de00dda5275d045ea18b4be95ff7',
    'ok-topk|P=2': '8ffbe7a35f6ac88ba5aac624cf7ef348552ceca702331fe210f2c92aaec14199',
    'ok-topk|P=2|faults': '949b6b0f0ed68401f9361495c3f0c453079031f2bd38272e829535dbddbb2f07',
    'ok-topk|P=3': '369736279530298b87078b48f93c705edd11bf3574f9d44fe0549cda6c4b9631',
    'ok-topk|P=3|faults': 'dc6659f899d1e81d4232c7efaa0d12d9f02aab672ac1d67474e244aabdfa03ba',
    'ok-topk|P=4': 'dc15da67a2781bea1b564bd89d575b3078f930e9c7840e50f2469139c0e7b292',
    'ok-topk|P=4|faults': 'e74dd77ec16cb6fb4613d8a2ace248b3da6eeb78f0bf5a4ae4e9a72c1c4d8063',
    'ok-topk|P=5': '887440101cf073e9e196e36cd7d5e8c9585f7f63bb642caf6b36afd4ddc2aeaa',
    'ok-topk|P=5|faults': '304fb4bd281c414e6a07ad70990caa920a6d31e2987902bc5e0582fd4cf61b7b',
    'ok-topk|P=8': '15517cdff3e3653cdc51b3e09a175d160684cc628ce3a5f5edfdd16438b6720d',
    'ok-topk|P=8|faults': '86fe48c78b977118a0a8a22eb52b23a888b74bd1c95336f5b9c79e8b0fc9c9f3',
    'topka|P=2': '2bac5a435408928e58021aa28a0abb4ef4054118f80fb86506c0031b6517b9a9',
    'topka|P=2|faults': 'bd3bcd01aaf1530d96e0106d76a6e52f1450684952d2f6a31aff8b4478cb0300',
    'topka|P=3': 'cc867f8eddab24f1f9d37db9fb4ba6b7b9c48f758a30aee0e0bfc9ea621de501',
    'topka|P=3|faults': 'c0d651f22a52968203cbffdf92d3d3b7629a8783fc413bf8929fd27f8b3b1d19',
    'topka|P=4': '48fa79e43d37fee3bea2a0493e7ec4e9ce95548c9024ff11c5e09cdd44d264f0',
    'topka|P=4|faults': 'c0be8a3aea0b4fb7be04085c0377cb7693658b5c9924588ab696975191dfaf98',
    'topka|P=5': '833fbb3e6cc35d5260e1a8ccf70da575e326a28acfa655dd41defd2452204ffe',
    'topka|P=5|faults': '0e00e818e5dc67e393149d1f5101b8abc53250b51c5c60891b50834c9c4b9c06',
    'topka|P=8': 'e5c748a055384387c214050fa8b9633ca8b2ea1b636bf360c4262a01e564ae95',
    'topka|P=8|faults': 'eb054e23e2821ff8ec771dbacb392ae5e1c52150756bc8de09507ef28197515d',
    'gtopk|P=2': '07a6c7adc6013f91c632a3b9fc592f54c82fe5ca772bae386a006d24d0c45168',
    'gtopk|P=2|faults': 'e5d1cd7c3082a4b4123c10e4bd3c3d67489f6017bd62d69702d9c8b6f6c6b867',
    'gtopk|P=4': '35c4263463fcc772f2cc623a96761e0d9a99ce7c691b72cd4b3eb76470447329',
    'gtopk|P=4|faults': '280fef5b5760b72951ec2d7baaa2032ae4ec4588317882a8e49ddc45ca148773',
    'gtopk|P=8': '10a4f3ea07c979c7bf2ec860aa1c1e7f9fd88168a62ac1df0c0dab7d2643a2e5',
    'gtopk|P=8|faults': '09c298ba813d090098b1699055bd3b08113bad2aa629e60a7e6aca18f0dace87',
    'spardl?teams=2|P=2': '07a6c7adc6013f91c632a3b9fc592f54c82fe5ca772bae386a006d24d0c45168',
    'spardl?teams=2|P=2|faults': '2ef2d798033f34929ca7b063cccd04eaa088d60b9f46565f3f761b9432b1afed',
    'spardl?teams=2|P=4': '3e82bebf3a33d4be3a8d201a41a074afd09c834b9b9e714003f0358f3b4b71a5',
    'spardl?teams=2|P=4|faults': '1819054c771d5bf8f5f292256600d89f20c30cf09d4960f7064c707e48017f26',
    'spardl?teams=2|P=8': '208f4dbb16e282c6f8f9e2b37097239c392e1dd60870cde69ae467fd298f2b6c',
    'spardl?teams=2|P=8|faults': '1a7e93df8c4e481ec4843afa6cdb334857628652cfc49e6cac4803cddf1a8b55',
    'spardl?teams=4&bits=8&momentum=0.5|P=4': 'f1f30a6472746c67058c2c341daea9dcf137dfdff9682b376e4e4754261f91f1',
    'spardl?teams=4&bits=8&momentum=0.5|P=4|faults': 'b935de796c4571ea34168f008bdd51cc7b3648366ecad5d119a0ac628266d2c6',
    'spardl?teams=4&bits=8&momentum=0.5|P=8': '9c78d8bb4f60510b84c95fee76cd5ac0fd6352d24ec7044d866c4b4aa456dfa1',
    'spardl?teams=4&bits=8&momentum=0.5|P=8|faults': 'e383f818b13b5e8a042248d0293ddc1b88366329853f103aa1712d2840dfa237',
}


@pytest.mark.parametrize("spec,num_workers,faults", list(_cases()),
                         ids=[_case_id(*case) for case in _cases()])
def test_values_are_unchanged(spec, num_workers, faults):
    assert value_digest(spec, num_workers, faults) == \
        DIGESTS[_case_id(spec, num_workers, faults)]


if __name__ == "__main__":  # print the digests of the current values
    for case in _cases():
        print(f"    {_case_id(*case)!r}: {value_digest(*case)!r},")
