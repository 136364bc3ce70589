import dataclasses
import os
import random

import pytest

from streamcert import pointqueries, purity, sumcheck
from streamcert.field import field_at_least
from streamcert.harness import ChunkTamper
from streamcert.streams import StreamUpdate, dyadic_levels
from streamcert.sumcheck import DenseProver


@pytest.fixture
def fork_any_batch(monkeypatch):
    """sumcheck.prove_all forks for any batch with two proofs of work,
    sumcheck.split_pass for any pass with two units, and the dyadic walk
    and the opening checks of pointqueries for any stream and any two
    openings, not only for those that pay for the fork, wherever the
    process may fork: small test runs then take the forked paths on more
    than one CPU and the serial ones on one CPU."""
    monkeypatch.setattr(sumcheck, "_FORK_MIN_WORK", 0)
    monkeypatch.setattr(sumcheck, "_PASS_FORK_MIN", 0)
    monkeypatch.setattr(pointqueries, "_WALK_FORK_MIN", 0)
    monkeypatch.setattr(pointqueries, "_OPEN_FORK_MIN", 0)


@pytest.fixture
def forks(monkeypatch, fork_any_batch):
    """os.fork, counted: the list of pids it returned in this process, which
    forks for any work that has two parts (fork_any_batch). After the test
    no child of this process is left, running or not."""
    real = os.fork
    pids = []

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


def integer_identity_run(updates, n, r, seed=0):
    """The integer purity identity alone on a bucketed stream of any model:
    purity.injection_run's field, shape and mapping, without its strict
    model check, so a test can show cancellation fooling the identity."""
    weight = sum(abs(u.delta) for u in updates)
    bound = max(1, r) * (max(1, weight) * max(1, n)) ** 2
    field = field_at_least(purity.purity_min_field(weight, n, r))
    c_a, c_v = purity.balanced_shape(r)
    params = purity.injection_params(field, r, c_a, c_v, bound)
    return purity._run_dense(updates, params, seed, "injection", None,
                             purity._InjectionMap)


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
