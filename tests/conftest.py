import dataclasses
import random

import pytest

from streamcert.harness import ChunkTamper
from streamcert.streams import StreamUpdate


def freq_oracle(updates):
    f = {}
    for u in updates:
        f[u.item] = f.get(u.item, 0) + u.delta
    return {i: v for i, v in f.items() if v}


def moment_oracle(updates, k):
    return sum(v ** k for v in freq_oracle(updates).values())


def strict_stream(rng, n, m, churn=0.3, max_delta=3):
    """Random strict-turnstile stream with m items of nonzero final count."""
    items = rng.sample(range(n), m)
    updates = []
    for i in items:
        f = rng.randrange(1, max_delta + 1)
        updates.append(StreamUpdate(i, f))
        if rng.random() < churn:
            updates.append(StreamUpdate(i, 2))
            updates.append(StreamUpdate(i, -2))
    rng.shuffle(updates)
    fixed, seen = [], {}
    for u in updates:
        delta = u.delta
        if delta < 0 and seen.get(u.item, 0) + delta < 0:
            delta = -delta
        fixed.append(StreamUpdate(u.item, delta))
        seen[u.item] = seen.get(u.item, 0) + delta
    return fixed


def _rewriter(kind, fn):
    return lambda chunks: [c.__class__(c.kind, fn(c.data), c.bits)
                           if c.kind == kind else c for c in chunks]


def rewrite_chunk(kind, fn):
    """Prover wrapper that rewrites the payload of every end chunk of a kind."""
    return lambda honest: ChunkTamper(honest, _rewriter(kind, fn))


def rewrite_start_chunk(kind, fn):
    """Prover wrapper that rewrites the payload of every start chunk of a kind."""
    rewrite = _rewriter(kind, fn)

    class StartTamper(ChunkTamper):
        def start(self):
            return rewrite(self.inner.start())

    return lambda honest: StartTamper(honest, list)


def bad_hash(**fields):
    """Start-chunk rewrite: one PairwiseHash, or each of a list of them, with
    some fields replaced."""
    def fn(data):
        if isinstance(data, list):
            return [dataclasses.replace(h, **fields) for h in data]
        return dataclasses.replace(data, **fields)
    return fn


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
