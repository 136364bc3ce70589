import dataclasses
import random

import pytest

from streamcert import sumcheck
from streamcert.harness import ChunkTamper
from streamcert.streams import StreamUpdate, dyadic_levels
from streamcert.sumcheck import DenseProver


@pytest.fixture
def fork_any_batch(monkeypatch):
    """sumcheck.prove_all forks for any batch with two proofs of work, not
    only for one that pays for the fork, wherever the process may fork:
    small test batches then take the forked path on more than one CPU and
    the serial one on one CPU."""
    monkeypatch.setattr(sumcheck, "_FORK_MIN_WORK", 0)


def freq_oracle(updates):
    f = {}
    for u in updates:
        f[u.item] = f.get(u.item, 0) + u.delta
    return {i: v for i, v in f.items() if v}


def moment_oracle(updates, k):
    return sum(v ** k for v in freq_oracle(updates).values())


def dense_prover_proof(vectors, params):
    """Dense proof from full frequency vectors (sequences or item->value
    dicts), fed to a DenseProver one nonzero entry at a time."""
    prover = DenseProver(params)
    for j, vec in enumerate(vectors):
        pairs = vec.items() if isinstance(vec, dict) else enumerate(vec)
        for item, value in pairs:
            if value:
                prover.update(j, item, value)
    return prover.proof()


def eval_poly(field, coeffs, x):
    """Horner evaluation of p(x), coefficients lowest degree first."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % field.q
    return acc


def lagrange_basis_at(field, c, x, r):
    """L_x(r) for the basis over {0, ..., c-1}, one basis element at a time:
    the oracle for field.lagrange_row."""
    if not 0 <= x < c:
        raise ValueError("basis index outside domain")
    if c >= field.q:
        raise ValueError("domain does not embed in the field")
    q = field.q
    num = den = 1
    for t in range(c):
        if t != x:
            num = num * (r - t) % q
            den = den * (x - t) % q
    return num * pow(den, q - 2, q) % q


def dyadic_node_range(node, n):
    """(lo, hi) item interval covered by a dyadic node id."""
    levels = dyadic_levels(n)
    k = levels - (node.bit_length() - 1)
    lo = (node - (1 << (levels - k))) << k
    return lo, lo + (1 << k) - 1


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
