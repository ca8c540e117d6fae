"""The wire bill, pinned.

Per case, one SHA-256 over every admitted message's ``(src, dst, tag,
size)`` and every step's ``(rounds, total_volume, max_received,
simulated_time)`` — sizes and times as exact float hex.  The recorded
digests are the bill of every method × P ∈ {4, 5, 8} (gTopk at 4 and 8),
SparDL and Dense also at ``bits=8``, SparDL with two teams, and seeded
drop/delay plans, as it stood when messages were still priced by the
transport: pricing each message where it is built left every element of
it unchanged.  A change that moves the bill on purpose re-records the
digests (run this module as a script) and says so; any other change must
leave them alone.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.api import make
from repro.comm.cluster import SimulatedCluster
from repro.comm.faults import FaultPlan
from repro.comm.network import ETHERNET

NUM_ELEMENTS = 4096
STEPS = 2


def _cases():
    for method in ("spardl", "ok-topk", "topka", "topkdsa", "gtopk", "dense"):
        for num_workers in (4, 5, 8):
            if method == "gtopk" and num_workers == 5:
                continue
            for bits in ("", "?bits=8") if method in ("spardl", "dense") else ("",):
                yield f"{method}{bits}", num_workers, False
    for num_workers in (4, 8):
        yield "spardl?teams=2", num_workers, False
    yield "spardl?teams=2&bits=8", 8, False
    yield "spardl?bits=8", 5, True
    yield "ok-topk", 4, True


def bill_digest(spec: str, num_workers: int, faults: bool) -> str:
    """Hash of the bill of ``STEPS`` steps of ``spec`` on ``num_workers``
    simulated workers (under ``FaultPlan(seed=3, drop_rate=0.2,
    delay_rate=0.2)`` when ``faults``)."""
    cluster = SimulatedCluster(num_workers)
    if faults:
        cluster.install_fault_plan(FaultPlan(seed=3, drop_rate=0.2, delay_rate=0.2))
    digest = hashlib.sha256()
    deliver = cluster.exchange

    def exchange(messages):
        messages = list(messages)
        inboxes = deliver(messages)
        for message in messages:
            digest.update(repr((message.src, message.dst, message.tag,
                                float(message.size).hex())).encode())
        return inboxes

    cluster.exchange = exchange
    sync = make(spec, cluster, num_elements=NUM_ELEMENTS,
                **({} if spec.startswith("dense") else {"density": 0.02}))
    rng = np.random.default_rng(num_workers)
    for _ in range(STEPS):
        stats = sync.synchronize(dict(enumerate(
            rng.standard_normal((num_workers, NUM_ELEMENTS))))).stats
        digest.update(repr((stats.rounds, float(stats.total_volume).hex(),
                            float(stats.max_received).hex(),
                            float(stats.simulated_time(ETHERNET)).hex())).encode())
    return digest.hexdigest()


def _case_id(spec: str, num_workers: int, faults: bool) -> str:
    return f"{spec}|P={num_workers}" + ("|faults" if faults else "")


DIGESTS = {
    'spardl|P=4': '37252fd9fb9631bef2b3334bac6cf74e73be06fac4c51901e85b536e5c20835a',
    'spardl?bits=8|P=4': '52cf42b86ac52995e5fcea0cf373548a25e895d642f86247c0d3443b5ead0f19',
    'spardl|P=5': 'c82481711648f57ef8b177ae539fb8cb2c74856ffb6e3e87247c87a4e04adbef',
    'spardl?bits=8|P=5': 'c24d1be3e4f93f5aaa1e2bed9ffcc584102712754433806106cab071057b57df',
    'spardl|P=8': 'ea72ebffd1c6ad3a41293242734f5b3015b2bd38951ab7deb4942959bda3e146',
    'spardl?bits=8|P=8': '70828c4f7fc8c5aaad2f756034dea242d8b272a8ee5b879b3f5a48e0df760278',
    'ok-topk|P=4': '41940e51e224897a3aadd29b0597c23bd366f38716d01f011b691ec43e3da616',
    'ok-topk|P=5': 'bf7b601f270d7219814a4743b561c0fba3ec96a4f52e4d3f2c37fac093ec5eaa',
    'ok-topk|P=8': '240a2c16cd1dac55a723ffca1e0dd3ef803845d2872e90a0dc026826148890b9',
    'topka|P=4': 'bb9830299f554f74a443955788bfba234f8cececec9635df9af9299a82f0f116',
    'topka|P=5': 'b232467d7e51fdff476ad13ef4550102568a3e80f6a069c8c57580f3a2465377',
    'topka|P=8': '09f7a44abfd9bff818ce5695970d85e0d119dbad2a71b7932560356517ed7060',
    'topkdsa|P=4': 'd7e5d5044f88eebccfcbf98cbc5394b484e69c3f5613a216be6ed9e9dc1afb89',
    'topkdsa|P=5': 'bc69be047c45e5a330afb30a99a09214e16f3c43b8246c7e48996aaef650f851',
    'topkdsa|P=8': '14d551e4787b3af4bf162d0f2cc430550448bfa0e09b3c0dcf73e1f2aa78a899',
    'gtopk|P=4': '0dfbc326d353caac7cc6a2568bafe79ca4e8d0b33cc743969d2a1391ff1f6354',
    'gtopk|P=8': '8f2b3c488298fa215d45eed2157ca673e73e5f08a695222b35ce49c2700eea92',
    'dense|P=4': 'fbd7c77cfe5750339b8b364df61ca52173cc5dc70053647752af44a84ee68a22',
    'dense?bits=8|P=4': 'f9c8083474a3c6d62399fe0c74ccc9ba27e6511fb664e8103fa385e2c2204107',
    'dense|P=5': 'e8dbf8f1d6aeb19310933fc9c887c73cd90323a3a057cd26d16c5f7c98228240',
    'dense?bits=8|P=5': '4c62cf91c4a31569fc9e7a3840dd43bbff840844252796dd683382090f1f6bc1',
    'dense|P=8': '7a1055ba97eb83919d7dba47ad0be7e5ec87461b74c1cca5106bdb9befc4f55d',
    'dense?bits=8|P=8': '318fa1d8330f0ae55e91441f36104ead71d8e3bc7d5c3a36808f0bc47a865eff',
    'spardl?teams=2|P=4': '641a041369276c6aaf6b89b99fde8a441e4d30d64f2747492c7f0d7d86d9c532',
    'spardl?teams=2|P=8': '012aa45fabf5fba50ce70e6e1962bf7888d039323db9a732a888ee4245953777',
    'spardl?teams=2&bits=8|P=8': '5b7a738e2fe76658929558cd77b098f808cad12216cb2ccc86cdd289ea18b40d',
    'spardl?bits=8|P=5|faults': '5ac23b036e63d8409c756303205ba524f218202330d2f0b4427416c43674003c',
    'ok-topk|P=4|faults': '1231c5a103adb25b5e3d1dea4074bbd7d78c0b88e83e23077d1887415b025085',
}


@pytest.mark.parametrize("spec, num_workers, faults", list(_cases()),
                         ids=[_case_id(*case) for case in _cases()])
def test_the_bill_is_unchanged(spec, num_workers, faults):
    assert bill_digest(spec, num_workers, faults) == DIGESTS[
        _case_id(spec, num_workers, faults)]


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(_case_id(*case) for case in _cases())


if __name__ == "__main__":  # print the digests of the current bill
    for case in _cases():
        print(f"    {_case_id(*case)!r}: {bill_digest(*case)!r},")
