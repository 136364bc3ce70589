"""Pinned transcripts: small seeded honest runs of the schemes must produce
bit-identical annotation, costs and values.

Each case records a sha256 over every transcript the run builds (chunk kind,
bits and repr of the payload, for the start and end chunks), a sha256 over
the secret points of the dense verifiers in construction order, and hcost,
vcost and the value. The digests live in transcript_pins.json; a
change that alters any of them changes observable behaviour.

Regenerate (only for an intended behaviour change) with
    PYTHONPATH=src python tests/test_transcript_pins.py --write
which prints, for each pin whose entry changed, its old and new value,
hcost and vcost, "name: removed" for each pin that no case makes any more,
and nothing for the others.
"""

import hashlib
import json
import os
import random
import sys

import pytest

from streamcert import (graphs, moments, pointqueries, protocol, purity,
                        sumcheck)
from streamcert.streams import BucketedUpdate, StreamUpdate as U

PINS = os.path.join(os.path.dirname(__file__), "transcript_pins.json")
N = 1 << 16


def _strict(seed, m, churn=0.4, n=N):
    rng = random.Random(seed)
    ups = []
    for i in rng.sample(range(n), m):
        ups.append(U(i, rng.randrange(1, 4)))
        if rng.random() < churn:
            ups += [U(i, 2), U(i, -2)]
    return ups


def _nonstrict(seed, m, n=N):
    rng = random.Random(seed)
    ups = []
    for i in rng.sample(range(n), m):
        ups.append(U(i, rng.choice((-3, -1, 1, 2))))
        if rng.random() < 0.3:
            ups += [U(i, -2), U(i, 2)]
    ups.append(U(ups[0].item, -ups[0].delta))  # one deleted item
    return ups


def _tagged(seed, xs, ys):
    rng = random.Random(seed)
    ups = [(0, U(i, 1)) for i in xs] + [(1, U(i, 1)) for i in ys]
    rng.shuffle(ups)
    return ups


def _tagged_churn(seed, xs, ys):
    """_tagged, then churn: insert/delete pairs, items that leave, and items
    that leave and come back."""
    rng = random.Random(seed)
    ups = _tagged(seed, xs, ys)
    churn = []
    for tag, su in ups:
        r = rng.random()
        if r < 0.3:
            churn += [(tag, U(su.item, 2)), (tag, U(su.item, -2))]
        elif r < 0.4:
            churn.append((tag, U(su.item, -1)))
        elif r < 0.5:
            churn += [(tag, U(su.item, -1)), (tag, U(su.item, 1))]
    return ups + churn


def _graph(seed, n, p):
    rng = random.Random(seed)
    return [(u, v, 1) for v in range(n) for u in range(v)
            if v - u not in (1, 4, n - 1) and rng.random() < p]


def _cases():
    s60 = _strict(1, 60)
    disjoint = _tagged(2, range(0, 80, 2), range(1, 80, 2))
    subset = _tagged(3, range(0, 40), range(0, 70))
    not_subset = _tagged(3, range(0, 40), range(5, 70))
    pair = _tagged(4, range(0, 50), range(25, 90))
    ring = [(i, i + 1, 1) for i in range(23)] + [(0, 23, 1)]
    ring_plus = ring + [(0, 4, 1)] + _graph(24, 24, 0.15)
    ring_churn = (ring_plus + [(u, v, -1) for u, v, _ in ring_plus[::3]]
                  + [(0, 12, 1), (5, 17, 2)]
                  + [(u, v, 1) for u, v, _ in ring_plus[::3]]
                  + [(0, 12, -1), (5, 17, -2)])
    buck = [BucketedUpdate(i, i % 24, 1) for i in range(20)]
    buck_churn = buck + [BucketedUpdate(40, 5, 2), BucketedUpdate(3, 3, -1),
                          BucketedUpdate(40, 5, -2), BucketedUpdate(3, 3, 1)]
    buck += [BucketedUpdate(30, 3, 2), BucketedUpdate(31, 3, 1)]
    freq = {}
    for u in s60:
        freq[u.item] = freq.get(u.item, 0) + u.delta
    claims = sorted(freq.items())[:25]
    return {
        "fk-online": lambda: moments.fk_online_run(s60, N, 2, 4, seed=1),
        "fk-online-multi": lambda: moments.fk_online_multi(
            _strict(5, 40), N, (1, 2, 3), 4, seed=2),
        "fk-footprint": lambda: moments.fk_footprint_mode(
            _nonstrict(6, 50), N, 2, 4, seed=3),
        "fk-ama": lambda: moments.fk_ama_mode(
            _nonstrict(7, 30), N, 2, 4, seed=4, coins_seed=5),
        "fk-prescient": lambda: moments.fk_prescient_run(
            _strict(8, 30), N, 2, seed=6),
        "multiindex": lambda: moments.multiindex_run(
            s60, N, claims, 4, seed=7),
        "disj-online": lambda: moments.disj_online_run(disjoint, N, 2, seed=13),
        "disj-online-witness": lambda: moments.disj_online_run(
            pair, N, 4, seed=9),
        "disj-prescient": lambda: moments.disj_prescient_run(
            disjoint, N, seed=10),
        "subset": lambda: moments.subset_run(subset, N, 2, seed=11),
        "subset-witness": lambda: moments.subset_run(
            not_subset, N, 2, seed=27),
        "innerproduct": lambda: moments.inner_product_run(pair, N, 2, seed=12),
        "innerproduct-churn": lambda: moments.inner_product_run(
            _tagged_churn(30, range(0, 50), range(25, 90)), N, 2, seed=30),
        "hamming": lambda: moments.hamming_run(pair, N, 2, seed=13),
        "triangles": lambda: graphs.count_triangles_run(
            _graph(14, 12, 0.5), 12, 2, seed=8),
        "matching": lambda: graphs.verify_perfect_matching(
            ring_plus, 24, [(i, i + 1) for i in range(0, 24, 2)], 2, seed=9),
        "connectivity": lambda: graphs.verify_connectivity(
            ring_plus, 24, (0, [(i, i + 1) for i in range(23)]), 2,
            seed=16),
        "connectivity-churn": lambda: graphs.verify_connectivity(
            ring_churn, 24, (0, [(i, i + 1) for i in range(23)]), 2,
            seed=32),
        "oddcycle": lambda: graphs.verify_non_bipartite(
            ring_plus, 24, [0, 1, 2, 3, 4, 0], 2, seed=17),
        "injection": lambda: purity.injection_run(buck, 64, 24, seed=19),
        "injection-churn": lambda: purity.injection_run(
            buck_churn, 64, 24, seed=31),
        "subinjection": lambda: purity.subinjection_run(
            buck, [(3, 1), (5, 2), (7, 0)], 64, 24, seed=20),
        "subf2": lambda: purity.subf2_run(
            _nonstrict(21, 20, n=256), [(i, 1 + i % 3) for i in range(0, 256, 5)],
            256, seed=21),
        "ama-injection": lambda: purity.ama_injection_run(
            buck, 64, 24, coins_seed=22, seed=22),
        "heavyhitters-openings": lambda: pointqueries.heavyhitters_run(
            _strict(23, 40, n=4096) + [U(7, 30)], 4096, 0.1, c_a=64, c_v=64,
            seed=24, mode="openings"),
        "pointquery": lambda: pointqueries.pq_run(
            s60, N, s60[7].item, c_a=16, c_v=8, seed=25),
        "selection": lambda: pointqueries.selection_run(
            s60, N, 70, c_a=64, c_v=16, seed=26),
    }


def _chunk_digest(h, chunks):
    for c in chunks:
        h.update(repr((c.kind, c.bits, repr(c.data))).encode())


def run_case(fn):
    """Digests of the transcripts and secret points, hcost, vcost, value."""
    orig = protocol.build_transcript
    orig_init = sumcheck.DenseVerifier.__init__
    h = hashlib.sha256()
    points = hashlib.sha256()

    def init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        points.update(repr(self.r).encode() + b",")

    def capture(*args, **kwargs):
        t = orig(*args, **kwargs)
        h.update(b"start")
        _chunk_digest(h, t.start_chunks)
        h.update(b"end")
        _chunk_digest(h, t.end_chunks)
        return t

    protocol.build_transcript = capture
    sumcheck.DenseVerifier.__init__ = init
    try:
        result = fn()
    finally:
        protocol.build_transcript = orig
        sumcheck.DenseVerifier.__init__ = orig_init
    value = result.outcome.value if result.accepted else None
    return {"transcript": h.hexdigest(), "secret_points": points.hexdigest(),
            "hcost_bits": result.cost.hcost_bits,
            "vcost_words": result.cost.vcost_words, "value": repr(value),
            "accepted": result.accepted}


def _load_pins():
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(_cases()))
def test_transcript_pinned(name, fork_any_batch):
    assert run_case(_cases()[name]) == _load_pins()[name]


def test_every_pin_has_a_case():
    """No orphaned pin and no unpinned case."""
    assert set(_cases()) == set(_load_pins())


if __name__ == "__main__":
    if "--write" not in sys.argv:
        sys.exit("usage: test_transcript_pins.py --write")
    old = _load_pins() if os.path.exists(PINS) else {}
    pins = {name: run_case(fn) for name, fn in sorted(_cases().items())}
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, pin in pins.items():
        was = old.get(name, {})
        if pin != was:  # only the changed pins, with their cost change
            print(f"{name}: value {was.get('value')} -> {pin['value']}, "
                  f"hcost {was.get('hcost_bits')} -> {pin['hcost_bits']} bits, "
                  f"vcost {was.get('vcost_words')} -> {pin['vcost_words']} words")
    for name in sorted(set(old) - set(pins)):
        print(f"{name}: removed")
