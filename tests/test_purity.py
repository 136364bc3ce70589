import itertools
import random

import pytest

from streamcert.field import M61, field_at_least
from streamcert.harness import ChunkTamper, adversary
from streamcert.protocol import Chunk, ConfigError
from streamcert.purity import (AmaPurity, ama_injection_run, injection_run,
                               purity_min_field,
                               subf2_run, subinjection_run)
from streamcert.streams import BucketedUpdate, StreamUpdate


def bucket_moments(counts):
    """(u, v, w) of one bucket holding counts[j] copies of item j."""
    u = sum(counts)
    v = sum(c * j for j, c in enumerate(counts))
    w = sum(c * j * j for j, c in enumerate(counts))
    return u, v, w


def is_pure(counts):
    return sum(1 for c in counts if c > 0) <= 1


def purity_oracle(updates):
    """1 iff every bucket holds at most one distinct positive item."""
    pairs = {}
    for t in updates:
        pairs[(t.item, t.bucket)] = pairs.get((t.item, t.bucket), 0) + t.delta
    buckets = {}
    for (j, b), c in pairs.items():
        if c > 0:
            buckets.setdefault(b, set()).add(j)
    return 1 if all(len(s) <= 1 for s in buckets.values()) else 0


def test_bucket_identity_exhaustive_n8():
    # v^2 <= u*w with equality iff pure, over every count vector in {0..3}^8
    for counts in itertools.product(range(4), repeat=8):
        u, v, w = bucket_moments(counts)
        assert v * v <= u * w
        assert (v * v == u * w) == is_pure(counts)


def test_injection_trivial_cases():
    assert injection_run([BucketedUpdate(5, 2, 3)], 8, 4).value == 1
    two = [BucketedUpdate(5, 2, 1), BucketedUpdate(7, 2, 1)]
    assert injection_run(two, 8, 4).value == 0
    assert injection_run([], 8, 4).value == 1


def test_injection_exhaustive_tiny_streams():
    # all cell matrices over (n, r) in {(2,2), (3,2), (2,3)} with counts <= 3
    for n, r in ((2, 2), (3, 2), (2, 3)):
        cells = list(itertools.product(range(n), range(r)))
        for counts in itertools.product(range(4), repeat=len(cells)):
            ups = [BucketedUpdate(j, b, c)
                   for (j, b), c in zip(cells, counts) if c]
            got = injection_run(ups, n, r, seed=1).value
            assert got == purity_oracle(ups)


def test_injection_random_instances_match_oracle(rng):
    for trial in range(60):
        n, r = 64, 8
        ups = [BucketedUpdate(rng.randrange(n), rng.randrange(r), rng.randrange(1, 4))
               for _ in range(rng.randrange(1, 25))]
        assert injection_run(ups, n, r, seed=trial).value == purity_oracle(ups)


def test_injection_big_random_insertion_batch(rng):
    ups = [BucketedUpdate(rng.randrange(256), rng.randrange(64), 1)
           for _ in range(10_000)]
    assert injection_run(ups, 256, 64, seed=5).value == purity_oracle(ups)


def test_injection_adversarial_proof_rejected():
    ups = [BucketedUpdate(5, 2, 1), BucketedUpdate(7, 3, 1)]
    for t in range(50):
        r = injection_run(ups, 8, 4, seed=t, prover=adversary("tamper-proof-polynomial", t))
        assert r.rejected


def test_purity_run_refuses_start_annotation():
    """The purity schemes take no annotation before the stream."""
    ups = [BucketedUpdate(5, 2, 1), BucketedUpdate(7, 3, 1)]

    class EarlyProof(ChunkTamper):
        def start(self):
            return [Chunk("dense-proof", None, 64)]

    assert injection_run(ups, 8, 4).value == 1
    assert injection_run(ups, 8, 4, prover=lambda h: EarlyProof(h, list)).rejected


def test_subinjection_cases():
    ups = [BucketedUpdate(1, 0, 1), BucketedUpdate(2, 1, 1), BucketedUpdate(3, 1, 1)]
    assert subinjection_run(ups, [], 4, 4).value == 1  # empty z
    assert subinjection_run(ups, [(0, 1)], 4, 4).value == 1  # pure bucket marked
    assert subinjection_run(ups, [(1, 1)], 4, 4).value == 0  # impure bucket marked
    assert subinjection_run(ups, [(0, 2)], 4, 4).value == 1  # z may count
    with pytest.raises(ConfigError):
        subinjection_run(ups, [(0, -1)], 4, 4)
    with pytest.raises(ConfigError, match="bucket 4 outside"):
        subinjection_run(ups, [(4, 1)], 4, 4)


@pytest.mark.parametrize("run", [
    lambda ups: injection_run(ups, 8, 4),
    lambda ups: ama_injection_run(ups, 8, 4),
    lambda ups: subinjection_run(ups, [(0, 1)], 8, 4),
], ids=["injection", "ama-injection", "subinjection"])
@pytest.mark.parametrize("bucket", [7, 4, -1])
def test_bucket_outside_range_raises(run, bucket):
    with pytest.raises(ConfigError, match=f"bucket {bucket} outside"):
        run([BucketedUpdate(1, 0, 1), BucketedUpdate(0, bucket, 1)])


def test_subinjection_random_vs_oracle(rng):
    for trial in range(40):
        n, r = 16, 8
        ups = [BucketedUpdate(rng.randrange(n), rng.randrange(r), rng.randrange(1, 3))
               for _ in range(rng.randrange(1, 20))]
        marked = rng.sample(range(r), rng.randrange(0, 4))
        pairs = {}
        for t in ups:
            pairs[(t.item, t.bucket)] = pairs.get((t.item, t.bucket), 0) + t.delta
        per_bucket = {}
        for (j, b), c in pairs.items():
            if c > 0:
                per_bucket.setdefault(b, set()).add(j)
        want = 1 if all(len(per_bucket.get(b, ())) <= 1 for b in marked) else 0
        got = subinjection_run(ups, [(b, 1) for b in marked], n, r, seed=trial).value
        assert got == want


def test_subf2_cases():
    ups = [StreamUpdate(0, 1), StreamUpdate(1, 2)]
    assert subf2_run(ups, [(0, 1), (1, 1)], 4).value == 5
    assert subf2_run(ups, [], 4).value == 0
    assert subf2_run([StreamUpdate(2, -3)], [(2, 1)], 4).value == 9  # non-strict


def test_purity_field_bound_examples():
    assert purity_min_field(0, 16, 1) >= 1
    # the default field avoids aliasing (the checked quantity is nonnegative
    # and below r*(N*n)^2) whenever N*n <= 2^28 and r <= 2^4
    assert M61 > (1 << 4) * ((1 << 28) ** 2)
    assert purity_min_field(10, 16, 4) == 204801


def test_ama_detects_cancellation_fooling_bucket():
    ups = [BucketedUpdate(1, 2, 2), BucketedUpdate(2, 2, 8), BucketedUpdate(3, 2, -1)]
    # the strict integer identity holds by hand: u=9, v=15, w=25, 15^2 = 9*25
    u, v, w = 2 + 8 - 1, 1 * 2 + 2 * 8 + 3 * -1, 1 * 2 + 4 * 8 + 9 * -1
    assert (u, v, w) == (9, 15, 25) and v * v == u * w
    assert injection_run(ups, 4, 4).value == 1  # integer identity is fooled
    rejections = sum(1 for s in range(40)
                     if ama_injection_run(ups, 4, 4, coins_seed=s).value == 0)
    assert rejections == 40


def test_ama_pure_and_empty_streams_always_accept():
    for s in range(10):
        net_pure = [BucketedUpdate(5, 2, 3), BucketedUpdate(5, 2, -1)]
        assert ama_injection_run(net_pure, 8, 4, coins_seed=s).value == 1
        assert ama_injection_run([], 8, 4, coins_seed=s).value == 1


def test_ama_counts_coins_toward_costs():
    r = ama_injection_run([BucketedUpdate(5, 2, 3)], 8, 4, coins_seed=1)
    assert r.value == 1
    assert r.cost.hcost_bits > 2 * 61  # includes both public coins


class RecordingDense:
    """Stands in for a dense instance: records each update."""

    def __init__(self, field):
        self.field = field
        self.calls = []

    def update(self, j, item, delta):
        self.calls.append((j, item, delta))


@pytest.mark.parametrize("n,r", [(1 << 10, 4), (1 << 20, 64)])
def test_ama_stepped_powers_match_one_pow_per_coordinate(n, r):
    lgn = (n - 1).bit_length()
    field = field_at_least((n * n) * r * lgn << 20)
    q = field.q
    rng = random.Random(n)
    alpha, beta = field.rand(rng), field.rand(rng)
    dense = RecordingDense(field)
    sink = AmaPurity(dense, (alpha, beta), n, lgn)
    for item in (0, n - 1, rng.randrange(n)):
        for bucket in (0, r - 1, rng.randrange(r)):
            for delta in (1, 3, -1, -7):
                dense.calls = []
                sink.add_purity(bucket, (item, delta))
                want = []
                for j in range(lgn):
                    coord = bucket * lgn + j
                    bit = (item >> j) & 1
                    base = beta if bit else alpha
                    want.append((bit, coord, delta * pow(base, n * coord + item, q) % q))
                assert dense.calls == want
