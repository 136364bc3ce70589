"""The paper's headline as a check: annotation and verifier space follow the
stream, not the universe. One fixed strict stream over items below 2^16 runs
at n = 2^20, 2^64 and 2^128; only the word width may grow, by about lg n."""

import random

import pytest

from streamcert import moments, pointqueries
from streamcert.streams import StreamUpdate as U

from conftest import strict_stream

NS = [1 << 20, 1 << 64, 1 << 128]
# about 400 updates over 301 items, one of them heavy
UPS = strict_stream(random.Random(10), 1 << 16, 300, churn=0.15) + [U(4321, 60)]
RANK = sum(u.delta for u in UPS) // 2
# selection and heavy hitters need c_a * c_v to cover the derived sparsity
# bound, 301 * (lg n + 1), at the largest n
RUNS = {
    "fk-online": lambda n: moments.fk_online_run(UPS, n, 2, 16, seed=1),
    "fk-footprint": lambda n: moments.fk_footprint_mode(UPS, n, 2, 16, seed=1),
    "fk-prescient": lambda n: moments.fk_prescient_run(UPS, n, 2, seed=1),
    "disj-online": lambda n: moments.disj_online_run(
        [(u.item & 1, u) for u in UPS], n, 16, seed=1),
    "pointquery": lambda n: pointqueries.pq_run(
        UPS, n, UPS[0].item, c_a=32, c_v=32, seed=1),
    "selection": lambda n: pointqueries.selection_run(
        UPS, n, RANK, c_a=4096, c_v=16, seed=1),
    "heavyhitters": lambda n: pointqueries.heavyhitters_run(
        UPS, n, 0.05, c_a=4096, c_v=16, seed=1),
}


@pytest.mark.parametrize("name", RUNS)
def test_costs_follow_the_stream_not_the_universe(name):
    results = [RUNS[name](n) for n in NS]
    assert all(r.accepted for r in results)
    assert len({repr(r.value) for r in results}) == 1
    assert len({r.cost.vcost_words for r in results}) == 1
    small, big = results[0].cost, results[-1].cost
    assert big.hcost_bits * 20 <= small.hcost_bits * 128
    assert big.vcost_bits * 20 <= small.vcost_bits * 128


def test_point_query_word_widens_with_the_universe():
    # the bucket fingerprints' field exceeds U * c_v * 2^40
    cost = RUNS["pointquery"](1 << 64).cost
    assert cost.vcost_bits > 61 * cost.vcost_words
