"""Bucket-purity machinery.

A bucketed stream places weighted items into buckets; a bucket is pure when
only one distinct item has positive count in it. With nonnegative pair
counts, the moment vectors u_b = sum_j f_(j,b), v_b = sum_j f_(j,b)*j,
w_b = sum_j f_(j,b)*j^2 satisfy v_b^2 <= u_b*w_b with equality exactly on
pure buckets (Cauchy-Schwarz), so sum_b z_b*(u_b*w_b - v_b^2) == 0 certifies
purity of every z-marked bucket. All four checks here are one dense
sum-check instance each, fed by one mapping that both sides share.

The public-coin variant replaces the integer identity, which cancellation
can fool once counts may go negative, with per-(bucket, bit) fingerprints of
the two bit-sides of each bucket; purity makes one side of every split zero,
so the fingerprint inner product of the two sides is identically zero.
"""

from dataclasses import replace

from .field import Field, field_at_least
from .protocol import (Chunk, Outcome, Prover, RunResult, Verifier,
                       derive_rng, id_bits, run_protocol, take)
from .streams import NONSTRICT, STRICT, check_counts, compute_meta, stream_ids
from .sumcheck import (DenseParams, DenseProver, DenseVerifier, g_purity,
                       g_sub_purity, g_sub_square, g_triple_product)


def purity_min_field(weight: int, n: int, r: int) -> int:
    """Smallest field size keeping the purity identity exact over the integers:
    q_min > 2*r*(N*n)^2 so |sum_b z_b(v_b^2 - u_b*w_b)| < q/2."""
    return 2 * max(1, r) * (max(1, weight) * max(1, n)) ** 2 + 1


def balanced_shape(universe: int):
    """Power-of-two c_a with c_a ~ c_v and c_a * c_v >= universe."""
    c_a = 1
    while c_a * c_a < universe:
        c_a <<= 1
    c_v = (universe + c_a - 1) // c_a
    return c_a, max(1, c_v)


def purity_deltas(field: Field, item: int, delta: int):
    """Per-update contributions to (u, v, w) from one bucketed update."""
    q = field.q
    d = delta % q
    return d, d * item % q, d * item % q * item % q


def injection_params(field, r, c_a, c_v, value_bound):
    return DenseParams(field=field, universe=r, c_a=c_a, c_v=c_v, vectors=3,
                       degree=2, g=g_purity(field), bound=value_bound)


def subinjection_params(field, r, c_a, c_v, value_bound):
    return DenseParams(field=field, universe=r, c_a=c_a, c_v=c_v, vectors=4,
                       degree=3, g=g_sub_purity(field), bound=value_bound,
                       gate=3)


def subf2_params(field, n, c_a, c_v, value_bound):
    return DenseParams(field=field, universe=n, c_a=c_a, c_v=c_v, vectors=2,
                       degree=3, g=g_sub_square(field), bound=value_bound,
                       gate=1)


class _DenseMap:
    """One scheme's mapping from stream updates to its dense instance, the
    same on both sides: `dense` is a DenseProver for the prover and a
    DenseVerifier for the verifier."""

    coin_words = 0  # public coins, charged to the verifier

    def __init__(self, dense):
        self.dense = dense

    def feed(self, u):
        raise NotImplementedError

    def close(self):
        """Input that follows the stream (an indicator vector z)."""

    def decide(self, value):
        return 1 if value == 0 else 0


class _DenseChunkProver(Prover):
    """Honest prover: sums the updates per (item, bucket), or per item for
    SubF2, feeds each nonzero net count through the mapping once, and emits
    one end-of-stream proof chunk. The mappings are linear in the stream,
    so this gives the instance that feeding every update would."""

    def __init__(self, mapping):
        self.map = mapping
        self.counts = {}

    def on_update(self, u):
        key = replace(u, delta=0)
        self.counts[key] = self.counts.get(key, 0) + u.delta

    def finish(self, query):
        for key, delta in self.counts.items():
            if delta:
                self.map.feed(replace(key, delta=delta))
        self.map.close()
        proof = self.map.dense.proof()
        return [Chunk("dense-proof", proof, proof.bits)]


class _DenseChunkVerifier(Verifier):
    def __init__(self, mapping):
        self.map = mapping
        self.word_bits = mapping.dense.field.bits
        self.public_coin_bits = mapping.coin_words * mapping.dense.field.bits

    def update(self, u):
        self.map.feed(u)

    def end(self, chunks, query):
        self.map.close()
        value = self.map.dense.verify(take(chunks, "dense-proof"), "dense")
        return Outcome.ok(self.map.decide(value))

    @property
    def words(self):
        return self.map.dense.words + self.map.coin_words


def _run_dense(updates, params, seed, label, prover, mapping, *args):
    return run_protocol(
        updates, seed, label,
        lambda rng: _DenseChunkVerifier(mapping(DenseVerifier(params, rng), *args)),
        lambda rng: _DenseChunkProver(mapping(DenseProver(params), *args)), prover)


# ------------------------------------------------------------------ Injection


class _InjectionMap(_DenseMap):
    def feed(self, u):
        self.dense.add_purity(u.bucket,
                              purity_deltas(self.dense.field, u.item, u.delta))


def injection_run(updates, n, r, *, seed=0, prover=None) -> RunResult:
    """Decide whether a strict bucketed stream is an injection (1/0), or reject.

    The purity identity is only meaningful with nonnegative pair counts, so
    a stream whose (item, bucket) prefix counts drop below zero raises
    ModelViolation; ama_injection_run serves non-strict streams.
    """
    weight = compute_meta(*stream_ids("bucketed", updates, n, {"r": r}),
                          STRICT).weight
    bound = max(1, r) * (max(1, weight) * max(1, n)) ** 2
    field = field_at_least(purity_min_field(weight, n, r))
    c_a, c_v = balanced_shape(r)
    params = injection_params(field, r, c_a, c_v, bound)
    return _run_dense(updates, params, seed, "injection", prover, _InjectionMap)


# --------------------------------------------------------------- SubInjection


class _SubInjectionMap(_InjectionMap):
    def __init__(self, dense, z):
        super().__init__(dense)
        self.z = z

    def close(self):
        for bucket, zb in self.z:
            if zb:
                self.dense.update(3, bucket, zb)


def subinjection_run(updates, z, n, r, *, seed=0, prover=None) -> RunResult:
    """SubInjection: 1 iff every bucket with z_b >= 1 is pure.

    z is part of the input (streamed after the main stream), given as
    (bucket, count) pairs with nonnegative counts.
    """
    z = check_counts(z, r, "bucket")
    weight = compute_meta(*stream_ids("bucketed", updates, n, {"r": r}),
                          STRICT).weight
    zmax = max((c for _, c in z), default=0)
    bound = max(1, zmax) * max(1, r) * (max(1, weight) * max(1, n)) ** 2
    field = field_at_least(2 * bound + 1)
    c_a, c_v = balanced_shape(r)
    params = subinjection_params(field, r, c_a, c_v, bound)
    return _run_dense(updates, params, seed, "subinj", prover,
                      _SubInjectionMap, z)


# --------------------------------------------------------------------- SubF2


class _SubF2Map(_DenseMap):
    def __init__(self, dense, z):
        super().__init__(dense)
        self.z = z

    def feed(self, u):
        self.dense.update(0, u.item, u.delta)

    def close(self):
        for item, zb in self.z:
            if zb:
                self.dense.update(1, item, zb)

    def decide(self, value):
        return value


def subf2_run(updates, z, n, *, seed=0, prover=None) -> RunResult:
    """Exact sum_i z_i * f_i^2 over any turnstile stream."""
    z = check_counts(z, n, "item")
    weight = compute_meta(updates, n, NONSTRICT).weight
    ztot = sum(c for _, c in z)
    bound = max(1, ztot) * max(1, weight) ** 2
    field = field_at_least(2 * bound + 1)
    c_a, c_v = balanced_shape(n)
    params = subf2_params(field, n, c_a, c_v, bound)
    return _run_dense(updates, params, seed, "subf2", prover, _SubF2Map, z)


# ------------------------------------------------------------- AMA Injection


def ama_params(field, r, lgn, c_a, c_v):
    """Vectors 0 and 1 hold the two sides' fingerprints, vector 2 the marks;
    the result is only ever tested against zero, so any field value decodes."""
    return DenseParams(field=field, universe=r * lgn, c_a=c_a, c_v=c_v,
                       vectors=3, degree=3, g=g_triple_product(field),
                       bound=(field.q - 1) // 2, gate=2)


def mark_all(dense):
    """Mark every coordinate of an AMA instance: the injection check is the
    stage check with every bucket marked. Returns the instance."""
    for coord in range(dense.params.universe):
        dense.update(2, coord, 1)
    return dense


class AmaPurity:
    """An AMA instance behind the add_purity(bucket, terms) call of the
    integer purity instances; terms is (item, count). Coordinate
    c = bucket * lgn + j takes count * alpha^(n*c + item) in vector 0 (the
    bit=0 side of the split) when bit j of the item is 0, else
    count * beta^(n*c + item) in vector 1. The exponent grows by n per
    coordinate, so both powers step by alpha^n and beta^n: two pows a call."""

    def __init__(self, dense, coins, n, lgn):
        self.dense = dense
        self.q = q = dense.field.q
        self.alpha, self.beta = coins
        self.steps = pow(self.alpha, n, q), pow(self.beta, n, q)
        self.n, self.lgn = n, lgn

    def add_purity(self, bucket, terms):
        item, count = terms
        q = self.q
        coord = bucket * self.lgn
        e = self.n * coord + item
        d = count % q
        a, b = d * pow(self.alpha, e, q) % q, d * pow(self.beta, e, q) % q
        a_step, b_step = self.steps
        update = self.dense.update
        for j in range(self.lgn):
            if (item >> j) & 1 == 0:
                update(0, coord + j, a)
            else:
                update(1, coord + j, b)
            a = a * a_step % q
            b = b * b_step % q


class _AmaInjectionMap(_DenseMap):
    coin_words = 2  # the public coins count against both costs

    def __init__(self, dense, coins, n, lgn):
        super().__init__(mark_all(dense))
        self.sink = AmaPurity(dense, coins, n, lgn)

    def feed(self, u):
        self.sink.add_purity(u.bucket, (u.item, u.delta))


def draw_public_coins(field: Field, coins_seed) -> tuple:
    rng = derive_rng(coins_seed, "public-coins")
    return field.rand(rng), field.rand(rng)


def ama_injection_run(updates, n, r, *, coins_seed=0, seed=0,
                      prover=None) -> RunResult:
    """Public-coin injection check, valid in the non-strict turnstile model.

    Output 1 iff every bucket is pure; a cancellation-crafted impure bucket
    is caught except with probability about n^2 * r * log(n) / q over the
    public coins, drawn before any prover message.
    """
    compute_meta(*stream_ids("bucketed", updates, n, {"r": r}), NONSTRICT)
    lgn = id_bits(n)
    field = field_at_least((n ** 2) * r * lgn << 20)
    coins = draw_public_coins(field, coins_seed)
    c_a, c_v = balanced_shape(r * lgn)
    params = ama_params(field, r, lgn, c_a, c_v)
    return _run_dense(updates, params, seed, "ama", prover, _AmaInjectionMap,
                      coins, n, lgn)
