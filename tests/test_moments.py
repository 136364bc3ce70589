import dataclasses
import random
from functools import partial

import pytest

from streamcert import moments, streams, sumcheck
from streamcert.graphs import (verify_connectivity, verify_non_bipartite,
                               verify_perfect_matching)
from streamcert.harness import ChunkTamper, adversary, synthetic_stream
from streamcert.moments import (MODE_AMA, MODE_FOOTPRINT, MODE_STRICT,
                                MultiIndexProverCore, OnlineEngineProver,
                                OnlineEngineVerifier, Shape,
                                disj_online_run, disj_prescient_run,
                                fk_ama_mode, fk_footprint_mode,
                                fk_online_multi, fk_online_run,
                                fk_prescient_run, hamming_run,
                                inner_product_run, multiindex_run, subset_run,
                                tagged_meta)
from streamcert.pointqueries import open_buckets
from streamcert.protocol import Chunk, ConfigError, Reject
from streamcert.purity import purity_deltas
from streamcert.streams import (STRICT, ModelViolation, StreamUpdate as U,
                                compute_meta, validate_stream,
                                random_pairwise_hash)

from conftest import (bad_hash, freq_oracle, moment_oracle, rewrite_chunk,
                      rewrite_start_chunk, strict_stream)

N20 = 1 << 20
S, T = 0, 1


def tagged_sets(sa, sb):
    return [(S, U(i, 1)) for i in sa] + [(T, U(i, 1)) for i in sb]


# ------------------------------------------------------------------ online Fk


def test_fk_trivial():
    assert fk_online_run([U(0, 1), U(1, 1)], 16, 2, 4).value == 2
    assert fk_online_run([U(7, 3)], 16, 3, 4).value == 27
    assert fk_online_run([], N20, 2, 4).value == 0


def test_fk_online_collision_free_reduces_to_dense(rng):
    # large c_v makes collisions unlikely; the run has an empty list
    ups = strict_stream(rng, N20, 8, churn=0.0)
    r = fk_online_run(ups, N20, 2, 64, seed=2)
    assert r.accepted and r.value == moment_oracle(ups, 2)


def test_fk_online_with_forced_collisions(rng):
    # tiny c_v forces collisions, exercising the full MultiIndex path
    for trial in range(8):
        ups = strict_stream(rng, N20, 120, churn=0.4)
        for k in (2, 3):
            r = fk_online_run(ups, N20, k, 4, seed=trial)
            if r.accepted:
                assert r.value == moment_oracle(ups, k)
        assert fk_online_run(ups, N20, 2, 4, seed=trial).info is not None



def test_fk_repeated_order_is_one_instance(rng):
    # each order keys one main instance, so a repeated order is mapped once
    ups = strict_stream(rng, N20, 60, churn=0.4)
    r = fk_online_multi(ups, N20, (2, 3, 2), 4, seed=1)
    assert r.value == {2: moment_oracle(ups, 2), 3: moment_oracle(ups, 3)}


def test_fk_rejects_cv_one(rng):
    with pytest.raises(ConfigError):
        fk_online_run([U(0, 1)], 16, 2, 1)


def test_fk_without_an_order_raises():
    # no main instance: nothing to certify
    with pytest.raises(ConfigError):
        fk_online_multi([U(0, 1)], 16, (), 4)


@pytest.mark.parametrize("mode", ["footprnt", "Strict", "strict", None])
def test_fk_unknown_mode_raises(mode):
    # a mode is one of the three mode objects; anything else, a mode's name
    # included, is refused before the run rather than run under strict sizing
    ups = strict_stream(random.Random(0), N20, 40)
    with pytest.raises(ConfigError, match="unknown fk mode"):
        fk_online_multi(ups, N20, (2,), 16, seed=1, mode=mode)


def test_fk_false_collision_list_rejected(rng):
    ups = strict_stream(rng, N20, 100, churn=0.0)
    rejected = 0
    for t in range(40):
        r = fk_online_run(ups, N20, 2, 4, seed=t,
                          prover=adversary("false-collision-list", t))
        rejected += r.rejected
    assert rejected == 40


def test_fk_malformed_collision_entry_rejected(rng):
    ups = strict_stream(rng, N20, 100, churn=0.0)
    honest = fk_online_run(ups, N20, 2, 4, seed=1)
    assert honest.accepted and honest.info["stages_used"] >= 1
    extra_field = rewrite_chunk("collision-list", lambda es: [e + (0,) for e in es])
    assert fk_online_run(ups, N20, 2, 4, seed=1, prover=extra_field).rejected


def test_fk_malformed_main_proof_rejected(rng):
    ups = strict_stream(rng, N20, 100, churn=0.0)
    no_proof = rewrite_chunk("main-proof", lambda data: (data[0], None))
    assert fk_online_run(ups, N20, 2, 4, seed=1, prover=no_proof).rejected


def test_fk_trailing_start_chunk_rejected(rng):
    ups = strict_stream(rng, N20, 50, churn=0.0)

    class Repeat(ChunkTamper):
        def start(self):
            chunks = self.inner.start()
            return chunks + chunks[-1:]

    r = fk_online_run(ups, N20, 2, 4, seed=1,
                      prover=lambda honest: Repeat(honest, lambda c: c))
    assert r.rejected


def test_fk_multi_shares_one_reduction(rng):
    ups = strict_stream(rng, N20, 60)
    r = fk_online_multi(ups, N20, (1, 2, 3), 16, seed=4)
    assert r.accepted
    for k in (1, 2, 3):
        assert r.value[k] == moment_oracle(ups, k)


def test_fk_prescient(rng):
    assert fk_prescient_run([U(0, 1), U(1, 1)], 16, 2).value == 2
    assert fk_prescient_run([U(5, 3)], 16, 3).value == 27
    ups = strict_stream(rng, N20, 500, churn=0.0)
    r = fk_prescient_run(ups, N20, 2, seed=9)
    assert r.accepted and r.value == moment_oracle(ups, 2)


def test_fk_prescient_tampered_rejected(rng):
    ups = strict_stream(rng, N20, 50, churn=0.0)
    for t in range(30):
        r = fk_prescient_run(ups, N20, 2, seed=t,
                             prover=adversary("tamper-proof-polynomial", t))
        assert r.rejected


# ------------------------------------------------------- footprint / AMA modes


def nonstrict_stream(rng, n, touched):
    ups = []
    for i in rng.sample(range(n), touched):
        f = rng.randrange(-3, 4)
        ups.append(U(i, f if f else 1))
        if rng.random() < 0.4:
            ups.append(U(i, 5))
            ups.append(U(i, -5))
    rng.shuffle(ups)
    return ups


def test_footprint_counts_deleted_items(rng):
    # net-zero item still occupies its bucket in footprint accounting
    ups = [U(3, 2), U(3, -2), U(9, 1)]
    meta = compute_meta(ups, 64)
    assert meta.sparsity == 1 and meta.footprint == 2
    r = fk_footprint_mode(ups, 64, 2, 4, seed=1)
    assert r.accepted and r.value == 1


def test_footprint_matches_oracle_nonstrict(rng):
    for trial in range(6):
        ups = nonstrict_stream(rng, N20, 60)
        r = fk_footprint_mode(ups, N20, 2, 4, seed=trial)
        if r.accepted:
            assert r.value == moment_oracle(ups, 2)
    accepted = sum(fk_footprint_mode(nonstrict_stream(rng, N20, 40), N20, 2, 16,
                                     seed=t).accepted for t in range(9))
    assert accepted >= 6


def test_footprint_equals_online_on_strict_streams(rng):
    ups = strict_stream(rng, N20, 50, churn=0.0)
    a = fk_online_run(ups, N20, 2, 16, seed=3)
    b = fk_footprint_mode(ups, N20, 2, 16, seed=3)
    assert a.value == b.value == moment_oracle(ups, 2)


def test_ama_mode_matches_oracle_nonstrict(rng):
    for trial in range(6):
        ups = nonstrict_stream(rng, 1 << 10, 50)
        r = fk_ama_mode(ups, 1 << 10, 2, 4, seed=trial, coins_seed=trial)
        if r.accepted:
            assert r.value == moment_oracle(ups, 2)
    assert fk_ama_mode([], 1 << 10, 2, 4).value == 0


def test_ama_mode_never_wrong_on_fooling_pattern(rng):
    # items (1,2,3) with counts (2,8,-1) satisfy the strict purity identity
    # in one bucket, yet the stream is impure for the integer check
    base = [U(1, 2), U(2, 8), U(3, -1), U(77, 4)]
    want = moment_oracle(base, 2)
    for t in range(30):
        r = fk_ama_mode(base, 1 << 10, 2, 4, seed=t, coins_seed=t)
        if r.accepted:
            assert r.value == want


def test_footprint_pays_for_ghosts_ama_does_not():
    """The online MA/AMA separation: T ghost items, each deleted and then
    re-inserted, net to zero, so the stream is not strict. Footprint mode,
    the online-MA scheme, pays for every id the stream touches; AMA mode
    pays for the sparsity alone, with public coins."""
    ids = random.Random(13).sample(range(N20), 50 + 1600)
    live, ghosts = ids[:50], ids[50:]
    ups = [U(i, 1 + k % 3) for k, i in enumerate(live)]
    want = moment_oracle(ups, 2)
    costs = {}
    for t in (0, 100, 400, 1600):
        stream = list(ups)
        for g in ghosts[:t]:
            stream += [U(g, -1), U(g, 1)]
        if t:
            with pytest.raises(ModelViolation):
                validate_stream(stream, N20, STRICT)
        else:
            validate_stream(stream, N20, STRICT)
        runs = (fk_footprint_mode(stream, N20, 2, 16),
                fk_ama_mode(stream, N20, 2, 16))
        assert [r.value for r in runs] == [want, want]
        costs[t] = [(r.cost.hcost_bits, r.cost.vcost_words) for r in runs]
    footprint = [costs[t][0][0] for t in sorted(costs)]
    assert footprint == sorted(set(footprint))  # strictly rising
    assert len({costs[t][1] for t in costs}) == 1  # AMA's costs never move
    assert costs[1600][0][0] > costs[1600][1][0]


# ------------------------------------------------------------------ MultiIndex


def test_multiindex_basics(rng):
    ups = [U(i, i + 1) for i in range(10)]
    assert multiindex_run(ups, 64, [], 4).value == 1
    assert multiindex_run(ups, 64, [(2, 3), (5, 6)], 4).value == 1
    assert multiindex_run(ups, 64, [(2, 4)], 4).value == 0
    assert multiindex_run(ups, 64, [(60, 0)], 4).value == 1
    assert multiindex_run(ups, 64, [(3, 0)], 4).value == 0
    with pytest.raises(ConfigError):
        multiindex_run(ups, 64, [(2, 3), (2, 3)], 4)


def test_multiindex_claim_above_the_stream_weight_answers_0():
    # the claims are the run's query, not the prover's, and the fields are
    # sized for the largest of them: a claim above the stream's weight (7
    # here) is a wrong claim, answered 0, not an implausible one, answered ⊥
    ups = [U(3, 2), U(5, 1), U(9, 4)]
    for claims in ([(3, 100), (5, 1)], [(3, 2), (4, 8)], [(3, 10 ** 12)]):
        r = multiindex_run(ups, 16, claims, 4)
        assert r.accepted and r.value == 0
    assert multiindex_run(ups, 16, [(3, 2), (9, 4)], 4).value == 1


def _no_hash_call(self, x):
    raise AssertionError("bucket computed by calling the hash")


def test_multiindex_finish_hashes_each_id_once_per_stage(monkeypatch, rng):
    n = 1 << 16
    items = rng.sample(range(n), 64)
    core = MultiIndexProverCore(Shape(n, 64, 4, 4, MODE_STRICT), random.Random(3))
    for i in items:
        core.update(i, 2)
        core.update(i, -1)
    core.update(items[0], -1)  # nets to zero: not mapped
    absent = next(i for i in range(n) if i not in items)
    entries = [(i, 1, None) for i in items[1:6]] + [(absent, 0, None)]
    evals = [0]

    class CountedA(int):  # a bucket (a*x + b) % p % r multiplies by a once
        def __mul__(self, x):
            evals[0] += 1
            return int(self) * x

    # in place: the stage mapping step holds the key list
    core.hkeys[:] = [(CountedA(a), b, p, r) for a, b, p, r in core.hkeys]
    monkeypatch.setattr(streams.PairwiseHash, "__call__", _no_hash_call)
    chunks = core.finish(entries)
    assert chunks[0].kind == "mi-stages"
    # each stage hash once per mapped id and per claim, to count and assign
    # stages, then each marked stage's hash once per mapped id, to map it
    mapped, marked = len(items) - 1, len(set(chunks[0].data))
    assert marked and evals[0] == (core.shape.t_max * (mapped + len(entries))
                                   + marked * mapped)


@pytest.mark.parametrize("claims", [[(70, 1)], [(-1, 1)], [(5, 1), (3, -2)]],
                         ids=["item-high", "item-negative", "count-negative"])
def test_multiindex_bad_claims_raise(claims):
    # bad input is the caller's error, not a prover failure to show as ⊥
    with pytest.raises(ConfigError):
        multiindex_run([U(3, 2), U(5, 1)], 64, claims, 4)


def test_multiindex_hundred_claims_resolve_quickly(rng):
    resolved_fast = 0
    for seed in range(12):
        ups = strict_stream(random.Random(seed), N20, 400, churn=0.0)
        freq = freq_oracle(ups)
        claims = [(i, freq[i]) for i in sorted(freq)[:100]]
        r = multiindex_run(ups, N20, claims, 16, seed=seed)
        assert not r.rejected
        assert r.value == 1
        if r.info.get("stages_used", 99) <= 5:  # ceil(log16 100) + 3
            resolved_fast += 1
    assert resolved_fast >= 8


def test_multiindex_single_wrong_claim(rng):
    for seed in range(10):
        ups = strict_stream(random.Random(seed + 50), N20, 150, churn=0.0)
        freq = freq_oracle(ups)
        items = sorted(freq)[:40]
        claims = [(i, freq[i]) for i in items]
        bad = list(claims)
        bad[seed % len(bad)] = (bad[seed % len(bad)][0], bad[seed % len(bad)][1] + 1)
        r = multiindex_run(ups, N20, bad, 16, seed=seed)
        assert r.rejected or r.value == 0


class _MisplacedFirstClaim(MultiIndexProverCore):
    """MultiIndex prover that gives the first claim a stage where its bucket
    holds another id the stream leaves, then enters the claims and maps and
    proves the marked stages honestly: it moves the claim in the stage list
    the honest finish_chunks assigned, as enter takes it, and that list is
    the one the annotation sends. Each finish_chunks call appends to
    `forged` whether such a stage existed; without one it sends the honest
    annotation. `first` gets each call's first claim, or None. Patched in
    for moments.MultiIndexProverCore by _misplace_first_claim, it serves the
    standalone scheme and the online engine alike."""

    forged = []
    first = []

    def finish_chunks(self, claims, more=()):
        self.forged.append(False)
        self.first.append(claims[0] if claims else None)
        return super().finish_chunks(claims, more)

    def enter(self, claims, stages, claimed):
        first = claims[0][0] if claims else None
        others = [self.buckets(ident) for ident, _, _ in self.net_counts()
                  if ident != first]
        shared = [j + 1 for j, b in enumerate(claimed[0] if claims else ())
                  if any(buckets[j] == b for buckets in others)]
        if shared:
            self.forged[-1] = True
            stages[0] = shared[0]
        return super().enter(claims, stages, claimed)


def _misplace_first_claim(monkeypatch):
    """Build every MultiIndex prover as a _MisplacedFirstClaim; returns the
    list of whether each run's first claim was moved."""
    monkeypatch.setattr(_MisplacedFirstClaim, "forged", [])
    monkeypatch.setattr(_MisplacedFirstClaim, "first", [])
    monkeypatch.setattr(moments, "MultiIndexProverCore", _MisplacedFirstClaim)
    return _MisplacedFirstClaim.forged


def test_multiindex_stage_list_that_does_not_isolate_rejected(monkeypatch):
    """Correct claims with a stage list that puts the first claim in a shared
    bucket: the impure mark is a wrong stage list, not a wrong claim, so the
    run gives ⊥, never 0."""
    ups = strict_stream(random.Random(5), N20, 60, churn=0.0)
    freq = freq_oracle(ups)
    claims = [(i, freq[i]) for i in sorted(freq)[:20]]
    for seed in range(40):
        assert multiindex_run(ups, N20, claims, 16, seed=seed).value == 1
    forged = _misplace_first_claim(monkeypatch)
    for seed in range(40):
        r = multiindex_run(ups, N20, claims, 16, seed=seed)
        if forged[-1]:
            assert r.rejected
            assert r.info["reject"]["reason"] == "marked bucket not isolated"
        else:
            assert r.value == 1
    assert sum(forged) >= 20


@pytest.mark.parametrize("c_v", [2, 4, 8])
def test_multiindex_small_cv_sizes_stage_checks_by_claims(c_v):
    """An explicit claim count below the collision threshold sizes the stage
    fields; the stage checks' output bounds must follow it."""
    assert multiindex_run([U(i, 1) for i in range(60)], N20, [(0, 1)],
                          c_v).value == 1
    for seed in range(4):
        ups = strict_stream(random.Random(seed), N20, 40, churn=0.2)
        freq = freq_oracle(ups)
        claims = [(i, freq[i]) for i in sorted(freq)[:3]]
        assert multiindex_run(ups, N20, claims, c_v, seed=seed).value == 1


def _mod_r_hash(n, r, rng):
    """x mod r on [0, p): every hash it stands for puts x and x + r in one
    bucket, so no stage isolates either."""
    return streams.PairwiseHash(1, 0, streams.next_prime(max(n, r, 2)), r)


@pytest.mark.parametrize("run", [
    lambda p: multiindex_run([U(0, 1), U(1024, 1)], 4096, [(0, 1)], 4, prover=p),
    lambda p: fk_online_run([U(0, 1), U(1024, 1)], 4096, 2, 4, prover=p),
], ids=["multiindex", "fk-online"])
def test_honest_prover_abort_is_bottom(run, monkeypatch):
    monkeypatch.setattr(moments, "random_pairwise_hash", _mod_r_hash)
    kinds = []

    def record(chunks):
        kinds.extend(c.kind for c in chunks)
        return chunks

    r = run(lambda honest: ChunkTamper(honest, record))
    assert kinds[-1] == "mi-abort"
    assert r.rejected


# Tampering with the MultiIndex annotation, the same for every scheme that
# certifies claims through it: each mutation must give ⊥, never an exception.


def _last_stage_proof(chunks):
    return max(i for i, c in enumerate(chunks) if c.kind == "mi-stage-proof")


def _rewrite_stages(fn):
    def mutate(chunks):
        (i,) = [i for i, c in enumerate(chunks) if c.kind == "mi-stages"]
        return chunks[:i] + [fn(chunks[i])] + chunks[i + 1:]
    return mutate


def _drop_last_stage_proof(chunks):
    i = _last_stage_proof(chunks)
    return chunks[:i] + chunks[i + 1:]


def _repeat_stage_proof(chunks):
    i = _last_stage_proof(chunks)
    return chunks[:i + 1] + [chunks[i]] + chunks[i + 1:]


MI_TAMPERS = {
    "drop-last-stage-proof": _drop_last_stage_proof,
    "repeat-stage-proof": _repeat_stage_proof,
    "short-stages": _rewrite_stages(lambda c: Chunk(c.kind, c.data[:-1], c.bits)),
    "abort-for-stages": _rewrite_stages(lambda c: Chunk("mi-abort", None, 1)),
    "tuple-stages": _rewrite_stages(lambda c: Chunk(c.kind, tuple(c.data), c.bits)),
}

_MI_STRICT = strict_stream(random.Random(11), N20, 100, churn=0.2)
_MI_NONSTRICT = nonstrict_stream(random.Random(12), N20, 60)
_MI_CLAIMS = [(i, f) for i, f in sorted(freq_oracle(_MI_STRICT).items())[:30]]

MI_RUNS = {
    "fk-online": lambda p: fk_online_run(_MI_STRICT, N20, 2, 4, seed=1, prover=p),
    "fk-footprint": lambda p: fk_footprint_mode(_MI_NONSTRICT, N20, 2, 4,
                                                seed=1, prover=p),
    "multiindex": lambda p: multiindex_run(_MI_STRICT, N20, _MI_CLAIMS, 16,
                                           seed=1, prover=p),
}


# the check that refuses each tamper. A repeated stage proof stands where
# the engine sends its main injection proof next, and where the standalone
# scheme sends nothing more.
MI_REASONS = {
    "drop-last-stage-proof": "missing mi-stage-proof",
    "repeat-stage-proof": {"fk-online": "missing main-injection-proof",
                           "fk-footprint": "missing main-injection-proof",
                           "multiindex": "trailing annotation"},
    "short-stages": "stage list length mismatch",
    "abort-for-stages": "prover aborted",
    "tuple-stages": "stage list length mismatch",
}


@pytest.mark.parametrize("tamper", MI_TAMPERS)
@pytest.mark.parametrize("run", MI_RUNS)
def test_multiindex_annotation_tampering_rejected(run, tamper):
    assert MI_RUNS[run](None).accepted
    r = MI_RUNS[run](lambda honest: ChunkTamper(honest, MI_TAMPERS[tamper]))
    assert r.rejected
    reason = MI_REASONS[tamper]
    if isinstance(reason, dict):
        reason = reason[run]
    assert r.info["reject"] == {"phase": "end", "reason": reason}


# ------------------- adversaries that lie before the end-of-stream proofs
# F2 in each mode, over streams where every seed's universe hash leaves
# collided buckets, so each lie has a list to tamper with: strict F2 with
# c_v = 16 over 300 items; footprint F2 over the same items, with deletes
# that take some counts below zero; and AMA F2 with c_v = 4 over 40 items
# of n = 2^10 with such deletes (its grid over 300 items at n = 2^20 is over
# the grid budget).


def _below_zero(ups, items):
    """ups, then a delete of 4 of each of its first `items` distinct items:
    their counts, at most 3, go below zero."""
    return ups + [U(i, -4) for i in sorted({u.item for u in ups})[:items]]


LIAR_RUNS = {
    "strict": (lambda seed: strict_stream(random.Random(seed), N20, 300),
               lambda ups, seed: fk_online_run(ups, N20, 2, 16, seed=seed)),
    "footprint": (
        lambda seed: _below_zero(strict_stream(random.Random(seed), N20, 300), 30),
        lambda ups, seed: fk_footprint_mode(ups, N20, 2, 16, seed=seed)),
    "ama": (
        lambda seed: _below_zero(strict_stream(random.Random(seed), 1 << 10, 40,
                                               churn=0.4), 6),
        lambda ups, seed: fk_ama_mode(ups, 1 << 10, 2, 4, seed=seed,
                                      coins_seed=seed)),
}


def _engine_lies(monkeypatch, liar, mode="strict", seeds=20):
    """Reject reasons of the F2 runs of LIAR_RUNS[mode] whose prover is
    liar, patched in for moments.OnlineEngineProver; an accepted run must
    hold the exact F2."""
    monkeypatch.setattr(moments, "OnlineEngineProver", liar)
    stream, run = LIAR_RUNS[mode]
    reasons = []
    for seed in range(seeds):
        ups = stream(seed)
        r = run(ups, seed)
        assert r.rejected or r.value == moment_oracle(ups, 2)
        reasons.append(r.info["reject"]["reason"] if r.rejected else None)
    return reasons


class _OmitsOneBucket(OnlineEngineProver):
    """Maps every count honestly, but leaves every item of one collided
    bucket off the collision list, so it neither removes nor claims them.
    (Leaving out one item of a pair would not lie: the other item alone is
    then isolated.) Id i * sides + s is item i on side s, so the liar serves
    one- and two-sided streams alike."""

    def finish(self, query):
        held = {}
        for ident, _, _ in self.mi.net_counts():
            item = ident // self.sides
            held.setdefault(self.bucket(item), set()).add(item)
        hidden = min(b for b, items in held.items() if len(items) > 1)

        def own_bucket(route):
            def step(item, *args):  # a bucket of its own for each hidden item
                [b] = route(item, *args)
                return [-1 - item if b == hidden else b]
            return step
        self.routes = [own_bucket(route) for route in self.routes]
        return super().finish(query)


class _PhantomItem(OnlineEngineProver):
    """Adds an item the stream never held, in a live item's bucket, as if it
    had been streamed once (on side 0 of a two-sided stream): it is then
    listed and claimed with count 1."""

    def finish(self, query):
        items = {ident // self.sides for ident in self.mi.freq}
        live = {self.bucket(i) for i in items}
        phantom = next(x for x in range(self.n)
                       if x not in items and self.bucket(x) in live)
        self.mi.update(phantom * self.sides, 1)
        return super().finish(query)


def _verified(monkeypatch, name):
    """The values that DenseVerifier.verify returns for the instance of
    that name, in call order, from here on."""
    values = []
    verify = sumcheck.DenseVerifier.verify

    def record(self, proof, what):
        v = verify(self, proof, what)
        if what == name:
            values.append(v)
        return v

    monkeypatch.setattr(sumcheck.DenseVerifier, "verify", record)
    return values


def test_fk_collision_list_that_omits_a_bucket_rejected(monkeypatch):
    # the hidden bucket stays in the remainder, whose injection instance
    # the liar proves honestly: the proof verifies, and its value is not 0
    values = _verified(monkeypatch, "main injection")
    reasons = _engine_lies(monkeypatch, _OmitsOneBucket)
    assert reasons == ["mapping not injective on the remainder"] * 20
    assert len(values) == 20 and 0 not in values
    assert values[0] == -2_961_675_187_392


def _change_one_value(proof):
    values = list(proof.values)
    values[0] = values[0] - 1 if values[0] else 1  # still canonical
    return dataclasses.replace(proof, values=values)


@pytest.mark.parametrize("run, reason", [
    (lambda ups, **kw: fk_online_run(ups, N20, 2, 16, **kw),
     "main injection proof failed"),
    (lambda ups, **kw: fk_prescient_run(ups, N20, 2, **kw),
     "injection proof failed"),
], ids=["online", "prescient"])
def test_changed_injection_proof_fails_as_a_proof(run, reason):
    """A changed injection proof fails its own check, not the check that
    the verified value is zero."""
    ups = synthetic_stream(200, N20, 3)
    assert run(ups, seed=1).value == moment_oracle(ups, 2)
    r = run(ups, seed=1, prover=rewrite_chunk("main-injection-proof",
                                              _change_one_value))
    assert r.info["reject"] == {"phase": "end", "reason": reason}


def test_fk_collision_list_with_phantom_item_rejected(monkeypatch):
    reasons = _engine_lies(monkeypatch, _PhantomItem)
    assert reasons == ["stage purity proof failed"] * 20


def test_fk_stage_list_that_does_not_isolate_rejected(monkeypatch):
    """The standalone scheme's forger, behind the engine: the first listed
    claim moves to a stage where its bucket is shared."""
    forged = _misplace_first_claim(monkeypatch)
    reasons = _engine_lies(monkeypatch, OnlineEngineProver)
    assert len(forged) == 20 and sum(forged) >= 10
    for moved, reason in zip(forged, reasons):
        assert reason == ("marked bucket not isolated" if moved else None)


# The same three liars against the non-strict modes, ten seeds each.
NONSTRICT = ["footprint", "ama"]


@pytest.mark.parametrize("mode", NONSTRICT)
def test_nonstrict_collision_list_that_omits_a_bucket_rejected(monkeypatch, mode):
    reasons = _engine_lies(monkeypatch, _OmitsOneBucket, mode, seeds=10)
    assert reasons == ["mapping not injective on the remainder"] * 10


@pytest.mark.parametrize("mode", NONSTRICT)
def test_nonstrict_collision_list_with_phantom_item_rejected(monkeypatch, mode):
    reasons = _engine_lies(monkeypatch, _PhantomItem, mode, seeds=10)
    assert reasons == ["stage purity proof failed"] * 10


@pytest.mark.parametrize("mode", NONSTRICT)
def test_nonstrict_stage_list_that_does_not_isolate_rejected(monkeypatch, mode):
    forged = _misplace_first_claim(monkeypatch)
    reasons = _engine_lies(monkeypatch, OnlineEngineProver, mode, seeds=10)
    assert len(forged) == 10 and sum(forged) >= 5
    for moved, reason in zip(forged, reasons):
        assert reason == ("marked bucket not isolated" if moved else None)


# The same liars behind the two-sided engine: the inner product of two
# overlapping vectors, and DISJ of two disjoint sets, where no witness
# exists and the engine branch runs. 150 items on each side at c_v = 16:
# every seed's universe hash leaves collided buckets.


def _two_sided_case(run, seed):
    """(run function of (updates, **kwargs), tagged updates, exact value)."""
    ups = strict_stream(random.Random(seed), N20, 300)
    if run == "innerproduct":  # items i = 2 mod 3 on both sides
        tagged = ([(S, u) for u in ups if u.item % 3 != 0]
                  + [(T, u) for u in ups if u.item % 3 != 1])
        freq = freq_oracle(ups)
        return (lambda ups, **kw: inner_product_run(ups, N20, 16, **kw), tagged,
                sum(f * f for i, f in freq.items() if i % 3 == 2))
    tagged = [(u.item & 1, u) for u in ups]  # each item on one side only
    return lambda ups, **kw: disj_online_run(ups, N20, 16, **kw), tagged, 1


# the engine prover class each two-sided run builds, which the liar extends
TWO_SIDED_PROVERS = {"innerproduct": "OnlineEngineProver",
                     "disj": "_TaggedWitnessProver"}


def _two_sided_lies(monkeypatch, run, liar=None, seeds=10):
    """_engine_lies for a two-sided run: with a liar, the run builds a
    subclass of liar and of its own engine prover class, so the liar's
    finish runs first. A rejected run rejects at the end."""
    if liar is not None:
        name = TWO_SIDED_PROVERS[run]
        monkeypatch.setattr(moments, name, type(
            liar.__name__, (liar, getattr(moments, name)), {}))
    reasons = []
    for seed in range(seeds):
        fn, ups, value = _two_sided_case(run, seed)
        r = fn(ups, seed=seed)
        assert r.rejected or r.value == value
        if r.rejected:
            assert r.info["reject"]["phase"] == "end"
        reasons.append(r.info["reject"]["reason"] if r.rejected else None)
    return reasons


@pytest.mark.parametrize("run", TWO_SIDED_PROVERS)
def test_two_sided_honest_runs_accept(run):
    for seed in range(3):
        fn, ups, value = _two_sided_case(run, seed)
        assert fn(ups, seed=seed).value == value


@pytest.mark.parametrize("run", TWO_SIDED_PROVERS)
def test_two_sided_collision_list_that_omits_a_bucket_rejected(monkeypatch, run):
    reasons = _two_sided_lies(monkeypatch, run, _OmitsOneBucket)
    assert reasons == ["mapping not injective on the remainder"] * 10


@pytest.mark.parametrize("run", TWO_SIDED_PROVERS)
def test_two_sided_collision_list_with_phantom_item_rejected(monkeypatch, run):
    reasons = _two_sided_lies(monkeypatch, run, _PhantomItem)
    assert reasons == ["stage purity proof failed"] * 10


@pytest.mark.parametrize("run", TWO_SIDED_PROVERS)
def test_two_sided_stage_list_that_does_not_isolate_rejected(monkeypatch, run):
    """As on fk online where the moved claim has a nonzero count. An
    entry's zero count on one side names an absent id, and that claim is
    true wherever it is marked: the run rejects when the shared bucket
    holds two ids (impure) or one id whose count no claim takes out of it
    (a wrong frequency), and may accept when that one id is itself claimed,
    with the exact value, which _two_sided_lies checks."""
    forged = _misplace_first_claim(monkeypatch)
    reasons = _two_sided_lies(monkeypatch, run)
    assert len(forged) == 10 and sum(forged) >= 5
    nonzero = 0
    for moved, (_, fstar, _), reason in zip(forged, _MisplacedFirstClaim.first,
                                            reasons):
        if not moved:
            assert reason is None
        elif fstar:
            nonzero += 1
            assert reason == "marked bucket not isolated"
        else:
            assert reason in (None, "marked bucket not isolated",
                              "listed frequencies not certified")
    assert nonzero >= 3


# ---------------------------------------------------------------- disjointness


def disj_oracle(sa, sb):
    return 1 if not (set(sa) & set(sb)) else 0


def test_disj_trivial():
    assert disj_prescient_run(tagged_sets([1], [1]), 8).value == 0
    assert disj_prescient_run(tagged_sets([1], [2]), 8).value == 1
    assert disj_online_run(tagged_sets([1], [1]), 8, 4).value == 0
    assert disj_online_run(tagged_sets([1], [2]), 8, 4).value == 1
    assert disj_online_run([], 8, 4).value == 1


@pytest.mark.parametrize("mode", ["prescient", "online"])
def test_disj_random_instances(mode, rng):
    for trial in range(10):
        size = rng.randrange(5, 120)
        sa = rng.sample(range(N20), size)
        if trial % 2 == 0:
            sb = rng.sample(range(N20), size)
        else:
            sb = rng.sample(sa, size // 2 + 1) + rng.sample(range(N20), size // 2)
        ups = tagged_sets(sa, sb)
        want = disj_oracle(sa, sb)
        if mode == "prescient":
            r = disj_prescient_run(ups, N20, seed=trial)
        else:
            r = disj_online_run(ups, N20, 16, seed=trial)
        if r.accepted:
            assert r.value == want


def test_disj_adversary_never_proves_disjoint(rng):
    sa = rng.sample(range(N20), 40)
    sb = rng.sample(sa, 10) + rng.sample(range(N20), 30)
    ups = tagged_sets(sa, sb)
    for t in range(25):
        rp = disj_prescient_run(ups, N20, seed=t,
                                prover=adversary("tamper-proof-polynomial", t))
        assert rp.rejected or rp.value == 0
        ro = disj_online_run(ups, N20, 8, seed=t,
                             prover=adversary("false-collision-list", t))
        assert ro.rejected or ro.value == 0


def _string_items(openings):
    return [(b, [(str(i), f) for i, f in es]) for b, es in openings]


@pytest.mark.parametrize("kind, fn", [
    ("witness", str),
    ("witness-openings", _string_items),
    ("witness-openings", lambda ops: [(b, [e + (0,) for e in es]) for b, es in ops]),
    ("witness-openings", lambda ops: [(str(b), es) for b, es in ops]),
    ("witness-openings", lambda ops: [b for b, _ in ops]),
    ("witness-openings", lambda ops: None),
], ids=["string-witness", "string-item", "three-field-entry", "string-bucket",
        "bare-buckets", "none"])
def test_disj_malformed_witness_rejected(kind, fn):
    ups = tagged_sets([1, 5, 9], [5, 7])
    assert disj_online_run(ups, 16, 4, seed=2).value == 0
    assert disj_online_run(ups, 16, 4, seed=2,
                           prover=rewrite_chunk(kind, fn)).rejected


def test_subset_witness_needs_every_bucket_opened():
    """X is a subset of Y, but the prover claims w in X minus Y and opens
    only the bucket of its X-side id 2w: an unopened Y-side bucket would
    read f_Y(w) = 0."""
    ups = tagged_sets([1, 9], [1, 7, 9])
    w, split = 1, []

    class HideYSide(ChunkTamper):
        def finish(self, query):
            p = self.inner
            split.append(p.pq_h(2 * w) != p.pq_h(2 * w + 1))
            openings, bits = open_buckets(p.pq_h, p.mi.freq, [2 * w], 2 * p.n)
            return [Chunk("witness", w, 64),
                    Chunk("witness-openings", openings, bits)]

    for t in range(20):
        assert subset_run(ups, 16, 4, seed=t).value == 1
        r = subset_run(ups, 16, 4, seed=t,
                       prover=lambda honest: HideYSide(honest, list))
        assert r.rejected
    assert any(split)


class _OffersItemOne(ChunkTamper):
    """Offers item 1 as the witness, its two buckets opened honestly."""

    def finish(self, query):
        p = self.inner
        openings, bits = open_buckets(p.pq_h, p.mi.freq, [2, 3], 2 * p.n)
        return [Chunk("witness", 1, 64),
                Chunk("witness-openings", openings, bits)]


# (run, S, T, the reason a witness of item 1 gets): item 1 is in S alone
# for DISJ, in both sets for subset
WRONG_WITNESS = {
    "disj-online": (partial(disj_online_run, n=16, c_v=4, seed=2),
                    [1, 5, 9], [5, 7], "witness not in both sets"),
    "disj-prescient": (partial(disj_prescient_run, n=16, seed=2),
                       [1, 5, 9], [5, 7], "false witness"),
    "subset": (partial(subset_run, n=16, c_v=4, seed=2),
               [1, 9], [1, 7, 9], "witness not in X minus Y"),
}


@pytest.mark.parametrize("name", WRONG_WITNESS)
def test_wrong_witness_rejected_with_its_reason(name):
    run, xs, ys, reason = WRONG_WITNESS[name]
    ups = tagged_sets(xs, ys)
    assert run(ups).accepted
    liar = (rewrite_start_chunk("witness", lambda _: 1)  # sent up front
            if name == "disj-prescient"
            else lambda honest: _OffersItemOne(honest, list))
    r = run(ups, prover=liar)
    assert r.info["reject"] == {"phase": "end", "reason": reason}


def test_prescient_disj_malformed_witness_rejected():
    ups = tagged_sets([1, 5, 9], [5, 7])
    assert disj_prescient_run(ups, 16, seed=2).value == 0
    for witness in ("x", None, 5.0):
        r = disj_prescient_run(ups, 16, seed=2, prover=rewrite_start_chunk(
            "witness", lambda _: witness))
        assert r.rejected


# a 6-cycle with the chord {0, 2}, for the graph certificates
RING = [(i, i + 1, 1) for i in range(5)] + [(0, 5, 1), (0, 2, 1)]
ENGINE_RUNS = {
    "disj": lambda **kw: disj_online_run(tagged_sets([1, 9], [5, 7]), 16, 4, **kw),
    "subset": lambda **kw: subset_run(tagged_sets([1, 9], [1, 7, 9]), 16, 4, **kw),
    "innerproduct": lambda **kw: inner_product_run(
        tagged_sets([1, 5, 9], [5, 7]), 16, 4, **kw),
    "hamming": lambda **kw: hamming_run(tagged_sets([1, 5, 9], [5, 7]), 16, 4, **kw),
    "matching": lambda **kw: verify_perfect_matching(
        RING, 6, [(0, 1), (2, 3), (4, 5)], 4, **kw),
    "connectivity": lambda **kw: verify_connectivity(
        RING, 6, (0, [(i, i + 1) for i in range(5)]), 4, **kw),
    "oddcycle": lambda **kw: verify_non_bipartite(RING, 6, [0, 1, 2, 0], 4, **kw),
}


@pytest.mark.parametrize("run", ENGINE_RUNS)
def test_online_info_reports_stages_used(run):
    r = ENGINE_RUNS[run](seed=2)
    assert r.accepted and "stages_used" in r.info
    r = ENGINE_RUNS[run](seed=2, prover=rewrite_chunk(
        "main-proof", lambda data: (data[0], None)))
    assert r.rejected and "stages_used" in r.info


FEW = [U(3, 2), U(7, 1), U(11, 4), U(3, 1)]
# (run, the start chunk that carries its hash, the reason its check gives)
SITES = {
    "engine": (lambda **kw: fk_online_run(FEW, 64, 2, 4, **kw), "hash",
               "bad universe hash"),
    "engine-stages": (lambda **kw: fk_online_run(FEW, 64, 2, 4, **kw),
                      "mi-hashes", "bad stage hash"),
    "multiindex": (lambda **kw: multiindex_run(FEW, 64, [(3, 3), (7, 1)], 4, **kw),
                   "mi-hashes", "bad stage hash"),
    "prescient-fk": (lambda **kw: fk_prescient_run(FEW, 64, 2, **kw), "hash",
                     "bad hash"),
    "prescient-disj": (lambda **kw: disj_prescient_run(
        tagged_sets([1, 9], [5, 7]), 16, **kw), "hash", "bad hash"),
    "online-disj": (lambda **kw: disj_online_run(
        tagged_sets([1, 9], [5, 7]), 16, 4, **kw), "pq-hash",
        "bad hash description"),
}


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("fields", [
    {"a": 1.5}, {"p": 0}, {"b": -1}, {"p": streams.next_prime(2 ** 200)},
], ids=["float-a", "zero-p", "negative-b", "oversized-p"])
def test_bad_start_hash_rejected(site, fields):
    # the site's hash check itself refuses each hash. oversized-p keeps
    # a, b < p and p >= universe, but p is 201 bits, far past twice the
    # universe: each hash check bounds p by 2 * max(universe, r, 2)
    run, kind, why = SITES[site]
    assert run(seed=2).accepted
    r = run(seed=2, prover=rewrite_start_chunk(kind, bad_hash(**fields)))
    assert r.info["reject"] == {"phase": "begin", "reason": why}


@dataclasses.dataclass(frozen=True)
class _SubHash(streams.PairwiseHash):
    """Computes the very buckets of its base class, but its code is the
    prover's: the verifier refuses it for its type alone."""


def _as_subclass(data):
    if isinstance(data, list):
        return [_SubHash(h.a, h.b, h.p, h.r) for h in data]
    return _SubHash(data.a, data.b, data.p, data.r)


@pytest.mark.parametrize("site", SITES)
def test_start_hash_subclass_rejected(site):
    run, kind, why = SITES[site]
    r = run(seed=2, prover=rewrite_start_chunk(kind, _as_subclass))
    assert r.info["reject"] == {"phase": "begin", "reason": why}


@pytest.mark.parametrize("kind, why", [("hash", "bad universe hash"),
                                       ("mi-hashes", "bad stage hash")],
                         ids=["engine", "stages"])
def test_engine_begin_refuses_hash_subclass(kind, why):
    ups = [U(3, 2), U(9, 1), U(3, 1)]
    meta = compute_meta(ups, 64)
    shape = Shape(64, meta.sparsity, 4, meta.weight, MODE_STRICT, mains=(2,))
    start = OnlineEngineProver(shape, random.Random(1)).start()
    tampered = [Chunk(c.kind, _as_subclass(c.data), c.bits) if c.kind == kind
                else c for c in start]
    OnlineEngineVerifier(shape, random.Random(2)).begin(start)
    with pytest.raises(Reject, match=why):
        OnlineEngineVerifier(shape, random.Random(2)).begin(tampered)


# -------------------------------------------------------------------- subset


def test_subset_trivial():
    assert subset_run([(T, U(3, 1)), (T, U(5, 1))], 8, 4).value == 1  # empty X
    ups = [(S, U(3, 1)), (T, U(3, 1)), (T, U(5, 1))]
    assert subset_run(ups, 8, 4).value == 1
    ups = [(S, U(2, 1)), (T, U(3, 1)), (T, U(5, 1))]
    assert subset_run(ups, 8, 4).value == 0


def test_subset_random(rng):
    for trial in range(8):
        y = rng.sample(range(N20), 60)
        if trial % 2 == 0:
            x = rng.sample(y, 20)
            want = 1
        else:
            x = rng.sample(y, 10) + rng.sample(sorted(set(range(100)) - set(y)), 3)
            want = 0
        ups = [(S, U(i, 1)) for i in x] + [(T, U(i, 1)) for i in y]
        rng.shuffle(ups)
        r = subset_run(ups, N20, 8, seed=trial)
        if r.accepted:
            assert r.value == want


@pytest.mark.parametrize("ups", [
    [(S, U(1, 1)), (S, U(5, 1)), (T, U(1, 2))],
    [(S, U(1, 2)), (T, U(1, 1))],
    [(S, U(1, 1)), (T, U(1, 1)), (T, U(1, 1)), (T, U(1, -1)), (T, U(3, 3))],
], ids=["count-2-in-Y", "count-2-in-X", "count-3-after-churn"])
def test_subset_needs_binary_vectors(ups):
    """With Y = {1 twice}, f_X . f_Y = 2 = |X| for X = {1, 5}, which is not a
    subset of Y: the run refuses a vector that is not 0/1."""
    with pytest.raises(ConfigError, match="subset needs 0/1 vectors"):
        subset_run(ups, 16, 4)


# ------------------------------------------- inner product / Hamming distance


def test_inner_product_and_hamming_trivial():
    e1 = [(S, U(1, 1)), (T, U(1, 1))]
    assert inner_product_run(e1, 8, 4).value == 1
    assert hamming_run(e1, 8, 4).value == 0
    disjoint = [(S, U(1, 1)), (T, U(2, 1))]
    assert inner_product_run(disjoint, 8, 4).value == 0
    assert hamming_run(disjoint, 8, 4).value == 2


@pytest.mark.parametrize("strategy", ["tamper-proof-polynomial", "wrong-answer",
                                      "false-collision-list"])
@pytest.mark.parametrize("run", [inner_product_run, hamming_run],
                         ids=["innerproduct", "hamming"])
def test_inner_product_and_hamming_adversaries_rejected(run, strategy):
    ups = tagged_sets(range(0, 50), range(25, 90))
    accepted = sum(run(ups, 1 << 16, 2, seed=t,
                       prover=adversary(strategy, t)).accepted
                   for t in range(10))
    assert accepted == 0


def test_inner_product_random_sparse(rng):
    for trial in range(5):
        f = {i: rng.randrange(1, 5) for i in rng.sample(range(N20), 25)}
        g = {i: rng.randrange(1, 5) for i in rng.sample(range(N20), 25)}
        for i in rng.sample(sorted(f), 6):
            g[i] = rng.randrange(1, 5)
        ups = [(S, U(i, v)) for i, v in f.items()] + [(T, U(i, v)) for i, v in g.items()]
        rng.shuffle(ups)
        want = sum(f[i] * g.get(i, 0) for i in f)
        r = inner_product_run(ups, N20, 8, seed=trial)
        assert r.accepted
        assert r.value == want


def test_hamming_random_binary(rng):
    for trial in range(5):
        f = set(rng.sample(range(N20), 30))
        g = set(rng.sample(range(N20), 30)) | set(rng.sample(sorted(f), 8))
        ups = [(S, U(i, 1)) for i in f] + [(T, U(i, 1)) for i in g]
        rng.shuffle(ups)
        want = len(f ^ g)
        r = hamming_run(ups, N20, 8, seed=trial)
        assert r.accepted
        assert r.value == want


def test_hamming_needs_binary_vectors():
    for ups in ([(S, U(1, 2))],
                [(S, U(1, 1)), (T, U(3, 1)), (T, U(3, 1))],
                [(S, U(1, 1)), (S, U(1, 1)), (S, U(1, -1)), (T, U(5, 2))]):
        with pytest.raises(ConfigError, match="0/1"):
            hamming_run(ups, 8, 4)
    # counts that pass through 2 but end at 0/1 are fine
    churned = [(S, U(1, 1)), (S, U(1, 1)), (S, U(1, -1)), (T, U(2, 1))]
    assert hamming_run(churned, 8, 4).value == 2


# ------------------------------------------- the prover maps net counts once


def _churn_stream(rng, items, length, tags=None):
    """Each item inserted once, then +2/-2 pairs on random items up to
    `length` updates; tags: the (tag, update) form, a random side per item."""
    counts = {i: rng.randrange(1, 4) for i in items}
    ups = [U(i, c) for i, c in counts.items()]
    while len(ups) < length:
        i = rng.choice(items)
        ups += [U(i, 2), U(i, -2)]
    if tags is None:
        return ups
    side = {i: rng.choice(tags) for i in items}
    return [(side[u.item], u) for u in ups]


def _counting_prover_updates(monkeypatch):
    calls = [0]
    update = sumcheck.DenseProver.update

    def counted(self, *args):
        calls[0] += 1
        return update(self, *args)

    monkeypatch.setattr(sumcheck.DenseProver, "update", counted)
    return calls


@pytest.mark.parametrize("tagged", [False, True], ids=["fk", "innerproduct"])
def test_prover_dense_updates_scale_with_ids_not_updates(tagged, monkeypatch, rng):
    items = rng.sample(range(1 << 16), 20)
    ups = _churn_stream(rng, items, 4000, tags=(S, T) if tagged else None)
    calls = _counting_prover_updates(monkeypatch)
    held, sent = [], []

    def keep(honest):
        held.append(honest)
        return ChunkTamper(honest, lambda chunks: sent.extend(chunks) or chunks)

    if tagged:
        r = inner_product_run(ups, 1 << 16, 4, seed=1, prover=keep)
        ids = {2 * su.item + tag for tag, su in ups}
    else:
        r = fk_online_run(ups, 1 << 16, 2, 4, seed=1, prover=keep)
        assert r.value == moment_oracle(ups, 2)
        ids = {u.item for u in ups}
    assert r.accepted
    p = held[0]
    entries = next(len(c.data) for c in sent if c.kind == "collision-list")
    assert entries > 0  # the removals are exercised
    # per mapped id: the main instance, the three main-injection vectors and,
    # at each stage, the SubF2 vector and three purity vectors; an entry's
    # stage claims and removal cost less than two ids
    fan_out = 1 + 3 + 4 * p.shape.t_max
    bound = (len(ids) + 2 * entries) * fan_out
    assert calls[0] <= bound < len(ups)


# ------------------------------------------- the verifier's per-update fan-out


ENGINE_CASES = ("strict", "ip", "footprint", "ama", "orders-1-2-3")


def _engine_case(case):
    """(shape, updates) of one engine configuration over n = 2^10 at
    c_v = 4, so that the universe hash collides: a strict one-sided stream
    for Fk of order 2 or of orders (1, 2, 3), a two-sided one for the
    inner product, its updates over the ids 2i + t as the engine takes
    them, and a non-strict one for footprint and AMA modes."""
    n = 1 << 10
    rng = random.Random(13)
    ups = strict_stream(rng, n, 40, churn=0.4)
    if case == "ip":
        ids, meta = tagged_meta([(S, u) for u in ups]
                                + [(T, u) for u in ups[:30]], n)
        return Shape(n, meta.sparsity, 4, meta.weight, MODE_STRICT,
                     mains=("ip",)), ids
    mode, mains = {"strict": (MODE_STRICT, (2,)),
                   "footprint": (MODE_FOOTPRINT, (2,)),
                   "ama": (MODE_AMA, (2,)),
                   "orders-1-2-3": (MODE_STRICT, (1, 2, 3))}[case]
    if mode != MODE_STRICT:  # net counts below zero, and items deleted to 0
        ups += [U(rng.randrange(n), -2) for _ in range(6)]
        ups += [U(u.item, -u.delta) for u in ups[:5]]
    meta = compute_meta(ups, n)
    return Shape(n, mode.base(meta), 4, meta.weight, mode, mains=mains,
                 coins_seed=1), ups


def _engine_pair(shape):
    """An honest prover and a verifier that has taken its start chunks."""
    prover = OnlineEngineProver(shape, random.Random(1))
    verifier = OnlineEngineVerifier(shape, random.Random(2))
    verifier.begin(prover.start())
    return prover, verifier


def _reference_update(v, u):
    """Map one update of id u.item, item i on side s as i * sides + s, into
    verifier v's instances by one update or add_purity call per instance,
    each bucket from PairwiseHash.__call__. Returns the buckets: the
    universe bucket, then one per stage."""
    sh, mi = v.shape, v.mi
    ident, delta, weight = u.item, u.delta, abs(u.delta)
    item, side = divmod(ident, sh.sides)
    occ = weight if sh.mode == MODE_FOOTPRINT else delta

    def terms(x):
        return ((x, occ) if sh.mode == MODE_AMA
                else purity_deltas(sh.field_purity, x, occ))

    b = v.h(item)
    for main in v.mains.values():
        main.update(side, b, delta)
    v.main_sink.add_purity(b, terms(item))
    for j, h in enumerate(mi.hs):
        bj = h(ident)
        mi.sf_net[j].update(0, bj, delta)
        mi.sinks[j].add_purity(bj, terms(ident))
        if mi.sf_abs is not None:
            mi.sf_abs[j].update(0, bj, weight)
    v.weight_seen += weight
    return [b] + [h(ident) for h in mi.hs]


def _verifier_rows(v):
    insts = [*v.mains.values(), v.main_inj]
    insts += [inst for stage in v.mi.instances for inst in stage]
    return [inst.rows for inst in insts]


@pytest.mark.parametrize("case", ENGINE_CASES)
def test_fused_bank_rows_match_per_instance_calls(case):
    # the one bank call per update, with its stage keys rewritten per side
    # and its purity terms shared, leaves every instance's rows (reduced on
    # read) where one call per instance and hash evaluation leaves them,
    # and returns the buckets those hash evaluations give
    shape, ups = _engine_case(case)
    prover, fused = _engine_pair(shape)
    reference = OnlineEngineVerifier(shape, random.Random(2))
    reference.begin(prover.start())
    returned = []

    def recorded(step):
        def call(*args):
            returned.append(step(*args))
            return returned[-1]
        return call

    fused.routes = [recorded(step) for step in fused.routes]
    for u in ups:
        prover.on_update(u)
        fused.update(u)
        assert returned[-1] == _reference_update(reference, u)
    assert fused.weight_seen == reference.weight_seen
    rows = _verifier_rows(fused)
    assert rows == _verifier_rows(reference)
    assert any(c for inst in rows for row in inst for c in row)
    chunks = prover.finish(None)
    assert next(len(c.data) for c in chunks if c.kind == "collision-list") > 0
    assert fused.end(chunks, None).accepted


@pytest.mark.parametrize("case", ENGINE_CASES)
def test_verifier_update_makes_one_bank_call(case, monkeypatch):
    # per stream update, in every mode and for one and two sides: one call
    # of the side's lane bank, returning 1 + t_max buckets (the universe
    # bucket, then one per stage), all from the hashes' fields
    shape, ups = _engine_case(case)
    calls = []

    def counted_bank(lanes, keys):
        bank = sumcheck.lane_bank(lanes, keys)

        def call(*args):
            buckets = bank(*args)
            calls.append(len(buckets))
            return buckets
        return call

    monkeypatch.setattr(moments, "lane_bank", counted_bank)
    prover, verifier = _engine_pair(shape)
    monkeypatch.setattr(streams.PairwiseHash, "__call__", _no_hash_call)
    for u in ups:
        prover.on_update(u)
        before = len(calls)
        verifier.update(u)
        assert calls[before:] == [1 + shape.t_max]
    monkeypatch.undo()
    assert verifier.end(prover.finish(None), None).accepted


def test_two_sided_stage_key_is_the_id_hash(rng):
    # (a * sides, a * s + b, p, r) applied to item i is the hash (a, b, p,
    # r) of id i * sides + s, for any hash of the family; the engine's
    # routes give each side's buckets that way
    for _ in range(300):
        n = rng.randrange(1, 1 << 40)
        h = random_pairwise_hash(2 * n, rng.randrange(1, 1 << 12), rng)
        for sides in (1, 2):
            for s in range(sides):
                i = rng.randrange(n)
                key = (h.a * sides, h.a * s + h.b, h.p, h.r)
                a, b, p, r = key
                assert (a * i + b) % p % r == h(i * sides + s)
    shape, _ = _engine_case("ip")
    _, verifier = _engine_pair(shape)
    for s, route in enumerate(verifier.routes):
        for i in rng.sample(range(shape.n), 50):
            assert route(i, 2 * i + s, 0, 0) == [verifier.h(i)] + [
                h(2 * i + s) for h in verifier.mi.hs]


def test_strict_verifier_update_stays_on_the_fused_lanes(monkeypatch, rng):
    # strict, one-sided, k = 2: every lane is a DenseVerifier pair, so a
    # stream update makes no DenseVerifier.update or add_purity call; the
    # generic lane-bank fallback would make 1 + t_max of each
    ups = strict_stream(rng, N20, 60, churn=0.4)
    meta = compute_meta(ups, N20)
    shape = Shape(N20, meta.sparsity, 4, meta.weight, MODE_STRICT, mains=(2,))
    prover = OnlineEngineProver(shape, random.Random(1))
    verifier = OnlineEngineVerifier(shape, random.Random(2))
    verifier.begin(prover.start())
    calls = {"update": 0, "add_purity": 0}
    for name in calls:
        def counted(self, *args, name=name, fn=getattr(sumcheck.DenseVerifier, name)):
            calls[name] += 1
            return fn(self, *args)
        monkeypatch.setattr(sumcheck.DenseVerifier, name, counted)
    for u in ups:
        prover.on_update(u)
        verifier.update(u)
    assert calls == {"update": 0, "add_purity": 0}
    monkeypatch.undo()
    assert verifier.end(prover.finish(None), None).value == {2: moment_oracle(ups, 2)}


# ------------------------------------------------ the prover's stage mapping

LAZY_CASES = ("strict", "footprint", "ama", "ip", "multiindex")


def _lazy_case(case):
    """An honest MultiIndex prover core that has summed a stream's updates,
    and finish(), which ends the run and returns (chunks, the core's
    claims): an engine prover's core for the engine cases, the standalone
    scheme's prover for "multiindex"."""
    if case == "multiindex":
        ups = strict_stream(random.Random(5), 1 << 12, 60, churn=0.2)
        meta = compute_meta(ups, 1 << 12)
        freq = freq_oracle(ups)
        claims = [(i, freq[i], None) for i in sorted(freq)[:20]]
        shape = Shape(1 << 12, meta.sparsity, 4, meta.weight, MODE_STRICT,
                      ell=len(claims))
        core = MultiIndexProverCore(shape, random.Random(1))
        for u in ups:
            core.on_update(u)
        return core, lambda: (core.finish(claims), claims)
    shape, ups = _engine_case(case)
    prover = OnlineEngineProver(shape, random.Random(1))
    for u in ups:
        prover.on_update(u)

    def finish():
        chunks = prover.finish(None)
        entries = next(c.data for c in chunks if c.kind == "collision-list")
        return chunks, [c for e in entries for c in prover.claims(e)]
    return prover.mi, finish


def _stage_vecs(core, j):
    return [inst.vecs for inst in core.instances[j]]


def _touched(core, j):
    return any(vec for inst in core.instances[j] for vec in inst.vecs)


@pytest.mark.parametrize("case", LAZY_CASES)
def test_prover_maps_only_the_marked_stages(case):
    # each marked stage's vectors are those of an eager reference that maps
    # every net count into every stage, then enters the same claims; no
    # other stage is touched. The marked stages' route is keyed by their
    # hashes alone and returns each id's bucket under them
    core, finish = _lazy_case(case)
    routed = []
    route = core.route

    def recording(keys, **kwargs):
        step = route(keys, **kwargs)

        def call(x, *args):
            routed.append((keys, x, step(x, *args)))
            return routed[-1][2]
        return call

    core.route = recording
    chunks, claims = finish()
    stages = next(c.data for c in chunks if c.kind == "mi-stages")
    assert claims and chunks[-1].kind != "mi-abort"
    eager = MultiIndexProverCore(core.shape, random.Random(0))
    eager.use_hashes(core.hs)
    for ident, delta, weight in core.net_counts():
        eager.feed(ident, delta, weight)
    marked = eager.enter(claims, stages, [eager.buckets(c[0]) for c in claims])
    assert marked == sorted({stage - 1 for stage in stages})
    assert len(routed) == len(list(core.net_counts()))
    for keys, x, buckets in routed:
        assert keys == [core.hkeys[j] for j in marked]
        assert buckets == [(a * x + b) % p % r for a, b, p, r in keys]
    for j in range(core.shape.t_max):
        if j in marked:
            assert _stage_vecs(core, j) == _stage_vecs(eager, j)
            assert _touched(core, j)
        else:
            assert not _touched(core, j)
    proofs = [c.data for c in chunks if c.kind == "mi-stage-proof"]
    assert proofs == [[inst.proof() for inst in eager.instances[j]]
                      for j in marked]


@pytest.mark.parametrize("case", LAZY_CASES)
def test_prover_abort_maps_no_stage(case):
    # every id lands in one bucket at every stage: with two ids or more
    # the stream leaves, no claim can be isolated
    core, finish = _lazy_case(case)
    core.hkeys[:] = [(0, 0, p, r) for _, _, p, r in core.hkeys]
    chunks, claims = finish()
    assert claims and chunks[-1].kind == "mi-abort"
    assert not any(_touched(core, j) for j in range(core.shape.t_max))


def test_one_stage_loop_serves_every_mode():
    # one strict stream whose collision list takes three stages, through
    # the stage loop and its purity sinks in every mode: each accepts the
    # exact value, and its costs are pinned (a change is a deliberate cost
    # change, as for the transcript pins)
    ups = strict_stream(random.Random(13), 1 << 10, 40, churn=0.4)
    want = {MODE_STRICT: (47048, 362), MODE_FOOTPRINT: (64954, 462),
            MODE_AMA: (400421, 324)}
    for mode, (hcost, vcost) in want.items():
        r = fk_online_multi(ups, 1 << 10, (2,), 4, seed=1, mode=mode,
                            coins_seed=1)
        assert r.value == {2: moment_oracle(ups, 2)} == {2: 375}
        assert r.info["stages_used"] == 3
        assert (r.cost.hcost_bits, r.cost.vcost_words) == (hcost, vcost)


# ---------------------------------------- the stage list's reject reasons

_STAGE_UPS = strict_stream(random.Random(5), 1 << 12, 60, churn=0.2)
_LOOP_UPS = strict_stream(random.Random(13), 1 << 10, 40, churn=0.4)

# the standalone scheme and the engine in each mode, each with several
# claims and a marked stage
STAGE_RUNS = {
    "multiindex": lambda **kw: multiindex_run(
        _STAGE_UPS, 1 << 12, sorted(freq_oracle(_STAGE_UPS).items())[:20], 16,
        **kw),
    **{name: partial(fk_online_multi, _LOOP_UPS, 1 << 10, (2,), 4, mode=mode,
                     coins_seed=1)
       for name, mode in (("strict", MODE_STRICT), ("footprint", MODE_FOOTPRINT),
                          ("ama", MODE_AMA))},
}


def _first(value):
    return lambda stages: [value, *stages[1:]]


def _abort_for_stages(honest):
    return ChunkTamper(honest, lambda chunks: [
        Chunk("mi-abort", None, 1) if c.kind == "mi-stages" else c
        for c in chunks])


# (prover wrapper, reason): each rewrites the stage list, the stage proofs
# or swaps an abort in for the stage list
_MISMATCH, _BUDGET = "stage list length mismatch", "stage outside budget"
STAGE_REWRITES = {
    "none": (lambda s: None, _MISMATCH),
    "string": (lambda s: "1" * len(s), _MISMATCH),
    "one-more": (lambda s: s + [1], _MISMATCH),
    "one-fewer": (lambda s: s[:-1], _MISMATCH),
    "tuple": (tuple, _MISMATCH),
    "true": (_first(True), _BUDGET),
    "false": (_first(False), _BUDGET),
    "zero": (_first(0), _BUDGET),
    "huge": (_first(10 ** 9), _BUDGET),
    "str-entry": (_first("1"), _BUDGET),
    "float-entry": (_first(1.0), _BUDGET),
    "negative": (_first(-1), _BUDGET),
    "none-entries": (lambda s: [None] * len(s), _BUDGET),
    "nested": (lambda s: [[x] for x in s], _BUDGET),
}
STAGE_TAMPERS = {
    **{name: (rewrite_chunk("mi-stages", fn), why)
       for name, (fn, why) in STAGE_REWRITES.items()},
    "proof-short": (rewrite_chunk("mi-stage-proof", lambda p: p[:-1]),
                    "malformed stage proof"),
    "proof-long": (rewrite_chunk("mi-stage-proof", lambda p: p + p[:1]),
                   "malformed stage proof"),
    "proof-tuple": (rewrite_chunk("mi-stage-proof", tuple),
                    "malformed stage proof"),
    "abort": (_abort_for_stages, "prover aborted"),
}


@pytest.mark.parametrize("run", STAGE_RUNS)
def test_stage_runs_accept_honestly(run):
    r = STAGE_RUNS[run](seed=1)
    assert r.accepted and r.info["stages_used"] >= 1
    assert r.value in (1, {2: moment_oracle(_LOOP_UPS, 2)})


@pytest.mark.parametrize("run", STAGE_RUNS)
@pytest.mark.parametrize("tamper", STAGE_TAMPERS)
def test_stage_annotation_rewrite_rejected(run, tamper):
    # each rewrite is refused at the end of the stream with its own reason,
    # and by a Reject: any other exception would escape the run
    prover, why = STAGE_TAMPERS[tamper]
    r = STAGE_RUNS[run](seed=1, prover=prover)
    assert r.info["reject"] == {"phase": "end", "reason": why}


# ------------------------------- the collision list's plausibility rules

# (mode, two-sided, rewrites of the first honest entry e, of item i, under
# a stream of weight w, reason): each entry breaks a plausibility rule of
# its mode. A footprint entry's weight is its MultiIndex claim's, which the
# stage list's claim check bounds by the weight the fields were sized for
_LISTED = "implausible listed frequency"
PLAUSIBILITY_CASES = {
    "strict": (MODE_STRICT, False, lambda i, w, e: [(i, 0), (i, w + 1)],
               _LISTED),
    "tagged": (MODE_STRICT, True,
               lambda i, w, e: [(i, 0, 0), (i, -1, 2), (i, w + 1, 0)], _LISTED),
    "footprint": (MODE_FOOTPRINT, False, lambda i, w, e: [(i, w + 1, e[2])],
                  _LISTED),
    "footprint-weight": (MODE_FOOTPRINT, False,
                         lambda i, w, e: [(i, e[1], 0), (i, e[1], w + 1)],
                         "implausible claimed weight"),
    "ama": (MODE_AMA, False, lambda i, w, e: [(i, 0)], _LISTED),
}


@pytest.mark.parametrize("case", PLAUSIBILITY_CASES)
def test_implausible_collision_entry_rejected(case):
    # the plausibility check, not a later stage proof, catches each entry
    mode, two_sided, rewrites, reason = PLAUSIBILITY_CASES[case]
    n = 1 << 10
    ups = strict_stream(random.Random(13), n, 40, churn=0.4)
    if two_sided:  # the engine takes the ids 2i + t
        ups, meta = tagged_meta([(S, u) for u in ups] + [(T, u) for u in ups], n)
        shape = Shape(n, meta.sparsity, 4, meta.weight, mode, mains=("ip",))
    else:
        meta = compute_meta(ups, n)
        shape = Shape(n, mode.base(meta), 4, meta.weight, mode, mains=(2,),
                      coins_seed=1)

    def engines():
        prover = OnlineEngineProver(shape, random.Random(1))
        verifier = OnlineEngineVerifier(shape, random.Random(2))
        verifier.begin(prover.start())
        for u in ups:
            prover.on_update(u)
            verifier.update(u)
        return verifier, prover.finish(None)

    verifier, chunks = engines()
    honest = chunks[0].data
    assert chunks[0].kind == "collision-list" and honest
    assert verifier.end(chunks, None).accepted
    w = verifier.weight_seen
    for bad in rewrites(honest[0][0], w, honest[0]):
        verifier, chunks = engines()
        chunks[0].data[0] = bad
        with pytest.raises(Reject, match=reason):
            verifier.end(chunks, None)
