import dataclasses
import marshal
import os
import random
import threading

import pytest

from streamcert import pointqueries, sumcheck
from streamcert.field import DEFAULT_FIELD, next_prime
from streamcert.harness import ChunkTamper, RunConfig, adversary, run_scheme
from streamcert.pointqueries import (BucketFingerprintState, dyadic_counts,
                                     heavyhitters_run, open_buckets, pq_run,
                                     selection_run)
from streamcert.protocol import (COUNT_BITS, Chunk, ConfigError, Prover, Reject,
                                 id_bits)
from streamcert.streams import (PairwiseHash, StreamUpdate, dyadic_decompose,
                                dyadic_levels, dyadic_prefix_nodes,
                                dyadic_universe, hash_fits,
                                random_pairwise_hash)

from conftest import (bad_hash, dyadic_node_range, freq_oracle, rewrite_chunk,
                      rewrite_start_chunk, strict_stream)


def test_pq_trivial():
    assert pq_run([StreamUpdate(5, 7)], 64, 5, c_a=4, c_v=4).value == 7
    assert pq_run([StreamUpdate(5, 7)], 64, 9, c_a=4, c_v=4).value == 0


def test_pq_matches_frequency_map(rng):
    n = 1 << 16
    ups = strict_stream(rng, n, 1000)
    freq = freq_oracle(ups)
    items = list(freq)
    for t in range(50):
        query = rng.choice(items) if t % 2 == 0 else rng.randrange(n)
        r = pq_run(ups, n, query, c_a=32, c_v=32, seed=t)
        if r.accepted:
            assert r.value == freq.get(query, 0)
    # completeness at these parameters is essentially certain
    accepted = sum(pq_run(ups, n, rng.choice(items), c_a=32, c_v=32, seed=t).accepted
                   for t in range(20))
    assert accepted >= 16


def test_pq_config_validation():
    with pytest.raises(ConfigError):
        pq_run([StreamUpdate(i, 1) for i in range(20)], 64, 3, c_a=4, c_v=4)


@pytest.mark.parametrize("query", [100, 64, -59, -1])
def test_pq_query_outside_universe_raises(query):
    with pytest.raises(ConfigError, match="outside"):
        pq_run([StreamUpdate(5, 3)], 64, query, c_a=4, c_v=4)


def test_pq_wrong_answer_rejected():
    ups = [StreamUpdate(5, 7), StreamUpdate(9, 2)]
    for t in range(100):
        r = pq_run(ups, 64, 5, c_a=4, c_v=4, seed=t,
                   prover=adversary("wrong-answer", t))
        assert r.rejected


def test_pq_oversize_and_misrouted_openings_rejected():
    ups = [StreamUpdate(i, 1) for i in range(16)]

    def oversize(honest):
        def finish(query):
            entries = [(i, 1) for i in range(50)]  # > 10 * c_a
            return [Chunk("opening", entries, 1)]
        honest.finish = finish
        return honest

    r = pq_run(ups, 64, 3, c_a=4, c_v=16, seed=1, prover=oversize)
    assert r.rejected


def test_selection_trivial():
    for rho in range(1, 6):
        assert selection_run([StreamUpdate(0, 5)], 8, rho, c_a=8, c_v=8).value == 0
    ups = [StreamUpdate(0, 1), StreamUpdate(1, 1), StreamUpdate(2, 1)]
    assert selection_run(ups, 8, 2, c_a=8, c_v=8).value == 1


def test_selection_matches_sort_oracle(rng):
    n = 256
    ups = strict_stream(rng, n, 25, churn=0.0)
    freq = freq_oracle(ups)
    total = sum(freq.values())
    expanded = []
    for i in sorted(freq):
        expanded.extend([i] * freq[i])
    for rho in range(1, total + 1, max(1, total // 17)):
        r = selection_run(ups, n, rho, c_a=64, c_v=8, seed=rho)
        if r.accepted:
            assert r.value == expanded[rho - 1]
    accepted = sum(selection_run(ups, n, rho, c_a=64, c_v=8, seed=rho).accepted
                   for rho in range(1, min(total, 20)))
    assert accepted >= 15


def test_selection_rank_out_of_range():
    for rank in (0, 6):
        with pytest.raises(ConfigError, match=f"rank {rank} outside"):
            selection_run([StreamUpdate(0, 5)], 8, rank, c_a=8, c_v=8)
    for rank in (1, 5):  # the ends of [1, N]
        assert selection_run([StreamUpdate(0, 5)], 8, rank, c_a=8,
                             c_v=8).value == 0


def test_selection_rank_bounds_read_the_one_pass():
    # N is the total of the final counts, 3 + 2 = 5 here, however the
    # churn goes: rank N is the last item's, and 0 and N + 1 are refused
    # with the range in the message
    ups = [StreamUpdate(2, 3), StreamUpdate(6, 4), StreamUpdate(6, -2),
           StreamUpdate(4, 1), StreamUpdate(4, -1)]
    for rank in (0, 6):
        with pytest.raises(ConfigError) as exc:
            selection_run(ups, 8, rank, c_a=8, c_v=8)
        assert str(exc.value) == f"rank {rank} outside [1, 5]"
    assert selection_run(ups, 8, 5, c_a=8, c_v=8).value == 6


def test_selection_wrong_answer_rejected(rng):
    ups = strict_stream(rng, 64, 10, churn=0.0)
    for t in range(30):
        r = selection_run(ups, 64, 3, c_a=32, c_v=8, seed=t,
                          prover=adversary("wrong-answer", t))
        assert r.rejected


@pytest.mark.parametrize("fn", [
    lambda es: [(str(i), f) for i, f in es],
    lambda es: [(i, f, 0) for i, f in es],
    lambda es: [i for i, _ in es],
    lambda es: None,
], ids=["string-item", "three-field-entry", "bare-items", "none"])
def test_pq_malformed_opening_rejected(fn):
    ups = [StreamUpdate(5, 7), StreamUpdate(9, 2)]
    assert pq_run(ups, 64, 5, c_a=4, c_v=4, seed=1).value == 7
    r = pq_run(ups, 64, 5, c_a=4, c_v=4, seed=1,
               prover=rewrite_chunk("opening", fn))
    assert r.rejected


@pytest.mark.parametrize("fn", [
    lambda answer: answer[0],
    lambda answer: answer + (0,),
    lambda answer: (str(answer[0]), answer[1]),
    lambda answer: (answer[0], [(str(b), es) for b, es in answer[1]]),
    lambda answer: (answer[0], [(b, [(str(v), c) for v, c in es])
                                for b, es in answer[1]]),
    lambda answer: (answer[0], [(b, [(v, c, 0) for v, c in es])
                                for b, es in answer[1]]),
], ids=["bare-item", "three-fields", "string-answer", "string-bucket",
        "string-entry", "three-field-entry"])
def test_selection_malformed_answer_rejected(fn):
    ups = [StreamUpdate(1, 2), StreamUpdate(3, 1), StreamUpdate(6, 4)]
    assert selection_run(ups, 8, 3, c_a=8, c_v=8, seed=1).value == 3
    r = selection_run(ups, 8, 3, c_a=8, c_v=8, seed=1,
                      prover=rewrite_chunk("selection-answer", fn))
    assert r.rejected


@pytest.mark.parametrize("kind, fn", [
    ("hh-records", lambda recs: [(v, c) for v, c, _ in recs]),
    ("hh-records", lambda recs: [(str(v), c, f) for v, c, f in recs]),
    ("hh-records", lambda recs: None),
    ("hh-openings", lambda ops: [(b, [(v, c) for v, c, _ in es]) for b, es in ops]),
    ("hh-openings", lambda ops: [(str(b), es) for b, es in ops]),
    ("hh-openings", lambda ops: [(b, [(v, c, bool(f)) for v, c, f in es])
                                 for b, es in ops]),
], ids=["two-field-record", "string-record", "no-records",
        "two-field-opening", "string-bucket", "bool-flag"])
def test_hh_malformed_annotation_rejected(kind, fn):
    ups = [StreamUpdate(0, 50), StreamUpdate(1, 40)] + \
        [StreamUpdate(i, 1) for i in range(2, 12)]
    assert heavyhitters_run(ups, 16, 0.3, c_a=16, c_v=8, seed=1).value == {0, 1}
    r = heavyhitters_run(ups, 16, 0.3, c_a=16, c_v=8, seed=1,
                         prover=rewrite_chunk(kind, fn))
    assert r.rejected


PQ_FAMILY = pytest.mark.parametrize("run", [
    lambda ups, **kw: pq_run(ups, 16, 0, c_a=16, c_v=8, **kw),
    lambda ups, **kw: selection_run(ups, 16, 3, c_a=16, c_v=8, **kw),
    lambda ups, **kw: heavyhitters_run(ups, 16, 0.3, c_a=16, c_v=8, **kw),
], ids=["pointquery", "selection", "heavyhitters"])


@PQ_FAMILY
@pytest.mark.parametrize("fields", [
    {"p": 0}, {"a": 1.5}, {"b": -1}, {"p": 2}, {"p": next_prime(2 ** 200)},
], ids=["zero-p", "float-a", "negative-b", "p-below-universe", "oversized-p"])
def test_pq_family_bad_hash_rejected(run, fields):
    # the hash check itself refuses each hash, p >= 2 * max(universe, r)
    # included
    ups = [StreamUpdate(0, 50), StreamUpdate(1, 40)] + \
        [StreamUpdate(i, 1) for i in range(2, 12)]
    assert run(ups, seed=1).accepted
    r = run(ups, seed=1, prover=rewrite_start_chunk("hash", bad_hash(**fields)))
    assert r.info["reject"] == {"phase": "begin",
                                "reason": "bad hash description"}


def test_hash_subclass_that_lies_rejected():
    # a PairwiseHash subclass is prover code: this one sends both stream
    # items to bucket 1 and then the query to bucket 0, which it opens
    # empty, claiming the value 0 (the true value is 3)
    calls = [0]

    @dataclasses.dataclass(frozen=True)
    class Lying(PairwiseHash):
        def __call__(self, x):
            calls[0] += 1
            return 1 if calls[0] <= 2 else 0

    class LyingProver(Prover):
        def start(self):
            return [Chunk("hash", Lying(a=1, b=0, p=67, r=4), 256)]

        def finish(self, query):
            return [Chunk("opening", [], 0)]

    assert not hash_fits(Lying(a=1, b=0, p=67, r=4), 64, 4)
    assert hash_fits(PairwiseHash(a=1, b=0, p=67, r=4), 64, 4)
    ups = [StreamUpdate(5, 3), StreamUpdate(9, 2)]
    assert pq_run(ups, 64, 5, c_a=4, c_v=4).value == 3
    assert pq_run(ups, 64, 5, c_a=4, c_v=4, prover=LyingProver()).rejected


def hh_oracle(ups, phi):
    freq = freq_oracle(ups)
    total = sum(freq.values())
    return frozenset(i for i, f in freq.items() if f >= phi * total)


def test_hh_trivial():
    assert heavyhitters_run([StreamUpdate(0, 10)], 8, 0.5, c_a=8, c_v=8).value == {0}
    uniform = [StreamUpdate(i, 1) for i in range(100)]
    assert heavyhitters_run(uniform, 128, 0.5, c_a=64, c_v=16).value == frozenset()


@pytest.mark.parametrize("mode", ["openings"])
def test_hh_zipf_matches_exact_counts(mode, rng):
    n = 1 << 12
    ups = []
    for rank in range(1, 40):
        item = rng.randrange(n)
        ups.append(StreamUpdate(item, max(1, 400 // rank)))
    rng.shuffle(ups)
    phi = 0.05
    want = hh_oracle(ups, phi)
    r = heavyhitters_run(ups, n, phi, c_a=128, c_v=8, seed=3, mode=mode)
    assert r.accepted and r.value == want


RUNS = {
    "pointquery": lambda ups, **kw: pq_run(ups, 64, 1, **kw),
    "selection": lambda ups, **kw: selection_run(ups, 64, 1, **kw),
    "heavyhitters": lambda ups, **kw: heavyhitters_run(ups, 64, 0.3, **kw),
}


@pytest.mark.parametrize("run", RUNS)
@pytest.mark.parametrize("c_a, c_v", [(1, 0), (-2, -1), (0, 64), (64, 0)])
@pytest.mark.parametrize("ups", [[], [StreamUpdate(1, 1), StreamUpdate(2, 1)]],
                         ids=["empty", "two-items"])
def test_cell_count_below_one_raises(run, c_a, c_v, ups):
    # the size check refuses before the cover check: with the cover check
    # alone, c_v = 0 on an empty stream divided by zero, and c_a = -2,
    # c_v = -1 (a product of 2) made the honest run reject or raise an
    # IndexError
    with pytest.raises(ConfigError, match="c_a and c_v must be at least 1"):
        RUNS[run](ups, c_a=c_a, c_v=c_v)


def test_hh_unknown_mode_raises():
    ups = [StreamUpdate(0, 5), StreamUpdate(1, 1)]
    for mode in ("bogus", "multiindex"):  # openings is the only mode
        with pytest.raises(ConfigError, match="unknown heavyhitters mode"):
            heavyhitters_run(ups, 16, 0.3, c_a=16, c_v=8, mode=mode)
        cfg = RunConfig("heavyhitters", n=16, params={
            "phi": 0.3, "c_a": 16, "c_v": 8, "hh_mode": mode})
        with pytest.raises(ConfigError, match="unknown heavyhitters mode"):
            run_scheme(cfg, ups)


def test_hh_config_validation():
    for phi in (0, 1, -0.5, 1.5):
        with pytest.raises(ConfigError, match="phi must be in"):
            heavyhitters_run([StreamUpdate(0, 5)], 16, phi, c_a=16, c_v=8)
    # n = 16: one item has 5 dyadic nodes, more than c_a * c_v = 4 cells
    with pytest.raises(ConfigError, match="derived dyadic sparsity"):
        heavyhitters_run([StreamUpdate(0, 5)], 16, 0.5, c_a=2, c_v=2)


@pytest.mark.parametrize("ups", [[], [StreamUpdate(3, 2), StreamUpdate(3, -2)]],
                         ids=["empty", "cancelled"])
def test_hh_empty_stream(ups):
    # no records give the empty set; any record is a claim on nothing
    run = lambda **kw: heavyhitters_run(ups, 16, 0.5, c_a=16, c_v=8, **kw)
    assert run().value == frozenset()
    assert run(prover=rewrite_chunk("hh-records", lambda _: [(1, 0, 1)])).rejected
    verifier = pointqueries.HeavyHittersVerifier(16, 16, 8, random.Random(0))
    h = random_pairwise_hash(dyadic_universe(16), 8, random.Random(1))
    verifier.begin([Chunk("hash", h, h.bits)])
    for u in ups:
        verifier.update(u)
    with pytest.raises(Reject, match="claims on an empty stream"):
        verifier.end([Chunk("hh-records", [(1, 0, 1)], 0)], 0.5)


def test_hh_omitted_heavy_hitter_rejected(rng):
    ups = [StreamUpdate(0, 50), StreamUpdate(1, 40)] + \
        [StreamUpdate(i, 1) for i in range(2, 12)]
    for t in range(50):
        r = heavyhitters_run(ups, 16, 0.3, c_a=16, c_v=8, seed=t,
                             prover=adversary("omitted-heavy-hitter", t))
        assert r.rejected


def test_derived_dyadic_sparsity_bound(rng):
    from streamcert.streams import (STRICT, compute_meta, dyadic_decompose,
                                    dyadic_levels, dyadic_universe)
    n = 256
    ups = strict_stream(rng, n, 30)
    levels = dyadic_levels(n)
    derived = [StreamUpdate(node, u.delta) for u in ups
               for node in dyadic_decompose(u.item, n)]
    meta = compute_meta(derived, dyadic_universe(n), STRICT)
    m = len(freq_oracle(ups))
    assert meta.sparsity <= m * (levels + 1)


def test_selection_vcost_single_bucket_state(rng):
    # space does not grow with the number of parallel openings
    ups = strict_stream(rng, 256, 20, churn=0.0)
    costs = set()
    for rho in (1, 5, 9):
        r = selection_run(ups, 256, rho, c_a=64, c_v=8, seed=7)
        if r.accepted:
            costs.add(r.cost.vcost_words)
    assert len(costs) == 1
    assert costs.pop() < 8 + 4 + 16  # c_v + hash + counters


def test_open_buckets_matches_per_bucket_scan(rng):
    n = 1 << 10
    freq = freq_oracle(strict_stream(rng, n, 80))
    freq[next(iter(freq))] = 0  # a cancelled item is never listed
    h = random_pairwise_hash(n, 8, rng)
    items = rng.sample(range(n), 5)
    for flagged in (None, set(items[:2])):
        openings, bits = open_buckets(h, freq, items, n, flagged)
        want = [(b, sorted((v, c) if flagged is None else (v, c, int(v in flagged))
                           for v, c in freq.items() if c and h(v) == b))
                for b in sorted({h(v) for v in items})]
        assert openings == want
        width = id_bits(n) + COUNT_BITS + (flagged is not None)
        assert bits == sum(COUNT_BITS + len(es) * width for _, es in want)


def test_dyadic_counts_sum_leaf_frequencies(rng):
    n = 256
    freq = freq_oracle(strict_stream(rng, n, 30))
    counts = dyadic_counts(freq, n)
    assert counts[1] == sum(freq.values())
    for node, c in counts.items():
        lo, hi = dyadic_node_range(node, n)
        assert c == sum(f for i, f in freq.items() if lo <= i <= hi)


def fingerprint_state(universe, c_v=4, seed=5):
    """A bucket-fingerprint state with its hash set; equal seeds give equal
    bases and hashes."""
    rng = random.Random(seed)
    state = BucketFingerprintState(DEFAULT_FIELD, 4, c_v, rng)
    state.set_hash(random_pairwise_hash(universe, c_v, rng), universe)
    return state


def assert_dyadic_walk_matches_per_node(n, items, deltas):
    levels = dyadic_levels(n)
    walked = fingerprint_state(dyadic_universe(n))
    per_node = fingerprint_state(dyadic_universe(n))
    for i in items:
        for delta in deltas:
            walked.update_dyadic(i, delta, levels)
            for node in dyadic_decompose(i, n):
                per_node.update(node, delta)
            assert walked.accs == per_node.accs
            assert walked.weight == per_node.weight


@pytest.mark.parametrize("n", [1, 2, 3, 8, 13, 17])
def test_update_dyadic_matches_per_node_updates(n):
    assert_dyadic_walk_matches_per_node(n, range(n), (1, -1, 3, -3))


def test_update_dyadic_matches_per_node_updates_large_universe(rng):
    n = 1 << 20
    items = [rng.randrange(n) for _ in range(200)]
    assert_dyadic_walk_matches_per_node(n, items, (1, -3))


@pytest.mark.parametrize("dyadic", [False, True])
def test_fingerprints_reduce_on_read_and_stay_bounded(dyadic, rng):
    # a churn stream through update or update_dyadic, with accs read
    # mid-stream: the buckets read as the oracle fingerprints of the net
    # counts, later updates land in the list the read returned, every raw
    # bucket stays below weight * q, and each bucket opens after the read
    n = 1 << 8
    levels = dyadic_levels(n)
    universe = dyadic_universe(n) if dyadic else n
    state = fingerprint_state(universe, c_v=32)
    q = state.field.q
    accs = state.accs
    ups = strict_stream(rng, n, 60, churn=0.5)
    net = {}

    def oracle():
        fp = [0] * state.c_v
        for v, f in net.items():
            fp[state.h(v)] = (fp[state.h(v)] + f * pow(state.basis, v, q)) % q
        return fp

    for t, u in enumerate(ups):
        if dyadic:
            state.update_dyadic(u.item, u.delta, levels)
            ids = dyadic_decompose(u.item, n)
        else:
            state.update(u.item, u.delta)
            ids = [u.item]
        for v in ids:
            net[v] = net.get(v, 0) + u.delta
        assert all(abs(a) < state.weight * q for a in state._accs)
        if t == len(ups) // 2:
            assert state.accs is accs and accs == oracle()
            assert all(0 <= a < q for a in accs)
    assert any(not 0 <= a < q for a in state._accs)
    for b in range(state.c_v):
        entries = sorted((v, f) for v, f in net.items() if f and state.h(v) == b)
        state.check_opening(b, entries, universe)
    assert state.accs is accs and accs == oracle()


def opened_state(universe, bucket, entries):
    """A state whose bucket holds the oracle fingerprint sum f * basis^v of
    the given entries."""
    state = fingerprint_state(universe)
    q = state.field.q
    state.accs[bucket] = sum(f * pow(state.basis, v, q) for v, f in entries) % q
    state.weight = sum(abs(f) for _, f in entries)
    return state


def opening_cases(universe):
    """(bucket, entries) openings: the bucket of id 0 with every id in it,
    a single entry, and the bucket of the last id with every id in it."""
    h = fingerprint_state(universe).h
    full = {b: [(v, 1 + v % 5) for v in range(universe) if h(v) == b]
            for b in (h(0), h(universe - 1))}
    single = universe // 3
    return [(h(0), full[h(0)]), (h(single), [(single, -2)]),
            (h(universe - 1), full[h(universe - 1)])]


def test_check_opening_accepts_oracle_fingerprint():
    universe = dyadic_universe(13)
    cases = opening_cases(universe)
    assert cases[0][1][0][0] == 0 and len(cases[1][1]) == 1
    assert cases[2][1][-1][0] == universe - 1
    for bucket, entries in cases:
        opened_state(universe, bucket, entries).check_opening(
            bucket, entries, universe)


@pytest.mark.parametrize("entry", [
    (0, True), (0.0, 1), (0, 1, 0), (0,), "01", None, {0: 0, 1: 1},
], ids=["bool-count", "float-id", "three-fields", "one-field", "str", "none",
        "dict"])
def test_check_opening_malformed_entry_rejected(entry):
    # the well-typed entry (0, 1) matches the fingerprint, so only the shape
    # check can refuse its malformed stand-in
    universe = dyadic_universe(13)
    bucket, entries = opening_cases(universe)[0]
    assert entries[0] == (0, 1)
    state = opened_state(universe, bucket, entries)
    state.check_opening(bucket, entries, universe)
    with pytest.raises(Reject, match="malformed opening entry"):
        state.check_opening(bucket, [entry] + entries[1:], universe)


@pytest.mark.parametrize("entry", [
    (0, 1, 0.0), (0, 1, True), (False, 1, 0), (0, True, 0), (0, 1),
    (0, 1, 0, 0),
], ids=["float-flag", "bool-flag", "bool-id", "bool-count", "two-fields",
        "four-fields"])
def test_check_opening_malformed_flagged_entry_rejected(entry):
    # as above, for the (item, freq, flag) records of heavy hitters: every
    # field is checked to be an int, and a record of the wrong arity is
    # refused before any of its fields is read
    universe = dyadic_universe(13)
    bucket, entries = opening_cases(universe)[0]
    flagged = [(i, f, 0) for i, f in entries]
    state = opened_state(universe, bucket, entries)
    state.check_opening(bucket, flagged, universe, arity=3)
    with pytest.raises(Reject, match="malformed opening entry"):
        state.check_opening(bucket, [entry] + flagged[1:], universe, arity=3)


@pytest.mark.parametrize("at", [0, -1], ids=["first-entry", "last-entry"])
def test_check_opening_rejects_one_off_count(at):
    universe = dyadic_universe(13)
    for bucket, entries in opening_cases(universe):
        state = opened_state(universe, bucket, entries)
        tampered = list(entries)
        v, f = tampered[at]
        tampered[at] = (v, f + 1)
        with pytest.raises(Reject, match="fingerprint mismatch"):
            state.check_opening(bucket, tampered, universe)


def count_read_pows(monkeypatch, verifier_cls):
    """Count the pow calls pointqueries makes, in this process, inside
    verifier_cls.read, and the updates read."""
    calls = {"pow": 0, "updates": 0}
    inside = [False]

    def counting_pow(*args):
        calls["pow"] += inside[0]
        return pow(*args)

    read = verifier_cls.read

    def counted_read(self, updates):
        calls["updates"] += len(updates)
        inside[0] = True
        try:
            read(self, updates)
        finally:
            inside[0] = False

    monkeypatch.setattr(pointqueries, "pow", counting_pow, raising=False)
    monkeypatch.setattr(verifier_cls, "read", counted_read)
    return calls


@pytest.mark.parametrize("scheme", ["heavyhitters", "selection"])
def test_dyadic_verifier_update_makes_one_pow_per_update(scheme, monkeypatch, rng):
    # serially, and split by level with or without the fork (the parent
    # then walks the child's levels too): at most one pow an update in each
    # worker, the child's one for the power above its top level
    n = 1 << 20
    ups = strict_stream(rng, n, 30)
    for path in ("serial", "split", "split-refused"):
        with monkeypatch.context() as m:
            if path == "serial":
                m.setattr(sumcheck, "_can_fork", lambda: False)
            else:
                m.setattr(sumcheck, "_can_fork", lambda: True)
                m.setattr(pointqueries, "_WALK_FORK_MIN", 0)
            if path == "split-refused":
                m.setattr(os, "fork", refuse_fork)
            if scheme == "heavyhitters":
                calls = count_read_pows(m, pointqueries.HeavyHittersVerifier)
                r = heavyhitters_run(ups, n, 0.2, c_a=128, c_v=8, seed=1)
            else:
                calls = count_read_pows(m, pointqueries.SelectionVerifier)
                r = selection_run(ups, n, 5, c_a=128, c_v=8, seed=1)
        assert r.accepted
        assert calls["updates"] == len(ups)
        assert calls["pow"] <= calls["updates"]


@pytest.mark.parametrize("run", [
    lambda ups: pq_run(ups, 8, 0, c_a=8, c_v=8),
    lambda ups: selection_run(ups, 8, 1, c_a=8, c_v=8),
    lambda ups: heavyhitters_run(ups, 8, 0.5, c_a=8, c_v=8),
], ids=["pointquery", "selection", "heavyhitters"])
@pytest.mark.parametrize("item", [10, 8, -1])
def test_stream_item_outside_universe_raises(run, item):
    with pytest.raises(ConfigError, match="outside"):
        run([StreamUpdate(item, 1)])
    with pytest.raises(ConfigError, match="outside"):
        run([StreamUpdate(3, 2), StreamUpdate(item, 1)])


# ---------------------------------------------- universes beyond 2^61 - 1
# Over q = 2^61 - 1 the ids v and v + q - 1 share every power of a basis,
# so above that size a prover could move a count between them unseen. Each
# forgery below moves one count by Q1 = q - 1 inside the single bucket
# (c_v = 1) and claims a wrong answer.

Q1 = DEFAULT_FIELD.q - 1
BIG = [1 << 62, 1 << 128]


def _moved(entries, old, new):
    """entries, ascending, with the one whose id is `old` moved to `new`."""
    return sorted((new, *e[1:]) if e[0] == old else e for e in entries)


@pytest.mark.parametrize("n", BIG, ids=["2^62", "2^128"])
def test_pq_forgery_across_field_period_rejected(n):
    forge = rewrite_chunk("opening", lambda _: [(5 + Q1, 3)])
    for seed in range(20):
        assert pq_run([StreamUpdate(5, 3)], n, 5, c_a=1, c_v=1, seed=seed).value == 3
        r = pq_run([StreamUpdate(5, 3)], n, 5, c_a=1, c_v=1, seed=seed,
                   prover=forge)
        assert r.rejected


@pytest.mark.parametrize("n", BIG, ids=["2^62", "2^128"])
def test_selection_forgery_across_field_period_rejected(n):
    # the one item is 4 + Q1; the forged answer 4 takes its leaf's count
    item, leaf = 4 + Q1, (1 << dyadic_levels(n)) + 4
    forge = rewrite_chunk("selection-answer", lambda data: (
        4, [(b, _moved(es, leaf + Q1, leaf)) for b, es in data[1]]))
    for seed in range(20):
        run = lambda **kw: selection_run([StreamUpdate(item, 3)], n, 1,
                                         c_a=256, c_v=1, seed=seed, **kw)
        assert run().value == item
        assert run(prover=forge).rejected


@pytest.mark.parametrize("n", BIG, ids=["2^62", "2^128"])
def test_hh_forgery_across_field_period_rejected(n):
    # the heavy item 5's leaf record and opening move to the leaf of 5 + Q1
    leaf = (1 << dyadic_levels(n)) + 5

    def forge(chunks):
        records, openings = chunks[0].data, chunks[1].data
        return [Chunk("hh-records", _moved(records, leaf, leaf + Q1), chunks[0].bits),
                Chunk("hh-openings", [(b, _moved(es, leaf, leaf + Q1))
                                      for b, es in openings], chunks[1].bits)]

    for seed in range(20):
        run = lambda **kw: heavyhitters_run([StreamUpdate(5, 3)], n, 0.5,
                                            c_a=256, c_v=1, seed=seed, **kw)
        assert run().value == frozenset({5})
        assert run(prover=lambda honest: ChunkTamper(honest, forge)).rejected


def test_hh_zero_record_for_heavy_leaf_rejected():
    # the heavy leaf of 77 is listed as an unclaimed record of count 0 and
    # its opened entry is unflagged, so neither count enters the tau
    # fingerprint; only the children-sum term of the closure ties it to its
    # parent's certified count
    n = 1 << 10
    leaf = (1 << dyadic_levels(n)) + 77

    def forge(chunks):
        records, openings = chunks[0].data, chunks[1].data
        return [Chunk("hh-records", [(leaf, 0, 0) if r[0] == leaf else r
                                     for r in records], chunks[0].bits),
                Chunk("hh-openings", [(b, [(leaf, e[1], 0) if e[0] == leaf else e
                                           for e in es]) for b, es in openings],
                      chunks[1].bits)]

    for seed in range(20):
        run = lambda **kw: heavyhitters_run(
            [StreamUpdate(77, 3), StreamUpdate(5, 1)], n, 0.5, c_a=64, c_v=4,
            seed=seed, **kw)
        assert run().value == frozenset({77})
        assert run(prover=lambda honest: ChunkTamper(honest, forge)).rejected


# ------------------------------------------------ the verifier on two CPUs
# Forced to split (the forks fixture), the dyadic walk and the opening
# checks must leave what the serial ones leave: the same raw buckets,
# weights, values, costs and reject reasons.


def refuse_fork():
    raise BlockingIOError(11, "Resource temporarily unavailable")


DYADIC = {
    "heavyhitters": (pointqueries.HeavyHittersProver,
                     pointqueries.HeavyHittersVerifier),
    "selection": (pointqueries.SelectionProver, pointqueries.SelectionVerifier),
}


def dyadic_case(scheme, n):
    """read(): a fresh verifier of the scheme that has taken its start
    chunk and read a churned stream over [n] through its one read call;
    the stream; and run(**kw), the scheme's run on it (heavy hitters at
    phi = 0.1, selection at the median rank)."""
    ups = strict_stream(random.Random(21), n, min(40, n // 2), churn=0.4)
    c_a, c_v = 128, 8
    prover, verifier = DYADIC[scheme]
    start = prover(n, c_v, random.Random(1)).start()

    def read(updates=ups):
        v = verifier(n, c_a, c_v, random.Random(2))
        v.begin(list(start))
        v.read(updates)
        return v

    if scheme == "heavyhitters":
        def run(**kw):
            return heavyhitters_run(ups, n, 0.1, c_a=c_a, c_v=c_v, seed=5, **kw)
    else:
        rank = (sum(u.delta for u in ups) + 1) // 2

        def run(**kw):
            return selection_run(ups, n, rank, c_a=c_a, c_v=c_v, seed=5, **kw)
    return read, ups, run


def walk_state(v):
    """The raw (unreduced) buckets, the state's weight, and the verifier's
    total and weight seen."""
    return list(v.state._accs), v.state.weight, v.total, v.weight_seen


def outcome(r):
    info = {k: v for k, v in r.info.items() if k != "timing"}
    return r.value, r.cost.hcost_bits, r.cost.vcost_words, info


def serially(monkeypatch, fn):
    with monkeypatch.context() as m:
        m.setattr(sumcheck, "_can_fork", lambda: False)
        return fn()


def only_split(monkeypatch, split):
    """Leave the other of the two splits serial."""
    other = "_OPEN_FORK_MIN" if split == "walk" else "_WALK_FORK_MIN"
    monkeypatch.setattr(pointqueries, other, 1 << 62)


def opened(scheme, run, **kw):
    """The honest openings of run(**kw), captured from its end chunk."""
    seen = []
    kind = "hh-openings" if scheme == "heavyhitters" else "selection-answer"
    run(prover=rewrite_chunk(kind, lambda d: seen.append(d) or d), **kw)
    return seen[0] if scheme == "heavyhitters" else seen[0][1]


def record_cuts(monkeypatch):
    """The stop index of each of this process's first _check_run calls,
    which is the split's cut (the child's calls are not seen here)."""
    cuts = []
    real = BucketFingerprintState._check_run

    def check_run(self, openings, start, stop, *args):
        if start == 0:
            cuts.append(stop)
        return real(self, openings, start, stop, *args)

    monkeypatch.setattr(BucketFingerprintState, "_check_run", check_run)
    return cuts


@pytest.mark.parametrize("n", [2, 8, 13, 1 << 10, 1 << 20],
                         ids=["2", "8", "13", "2^10", "2^20"])
@pytest.mark.parametrize("scheme", ["heavyhitters", "selection"])
def test_split_dyadic_verifier_is_the_serial_one(scheme, n, forks, monkeypatch):
    # the split walk leaves every raw bucket, the weight, the total and the
    # weight seen integer for integer where the serial walk does, with one
    # child where this process may fork; whole runs, openings split too,
    # give the serial value, costs and info
    read, _, run = dyadic_case(scheme, n)
    want = serially(monkeypatch, lambda: walk_state(read()))
    serial = serially(monkeypatch, run)
    assert walk_state(read()) == want
    assert len(forks) == sumcheck._can_fork()
    split = run()
    assert serial.accepted
    assert outcome(split) == outcome(serial)


FAILS = ["fork-refused", "child-raises", "child-truncated-bytes",
         "child-short-list"]


def fail_child(fail, monkeypatch):
    dumps = marshal.dumps
    if fail == "fork-refused":
        monkeypatch.setattr(os, "fork", refuse_fork)
    elif fail == "child-raises":
        def boom(value):
            raise MemoryError
        monkeypatch.setattr(marshal, "dumps", boom)
    elif fail == "child-truncated-bytes":
        monkeypatch.setattr(marshal, "dumps", lambda v: dumps(v)[:-5])
    else:
        monkeypatch.setattr(marshal, "dumps", lambda v: dumps(v[:-1]))


@pytest.mark.parametrize("fail", FAILS)
@pytest.mark.parametrize("split", ["walk", "openings"])
@pytest.mark.parametrize("scheme", ["heavyhitters", "selection"])
def test_split_dyadic_verifier_survives_a_failed_child(scheme, split, fail,
                                                        forks, monkeypatch):
    # whatever goes wrong in the child (marshal.dumps runs there alone),
    # this process does the child's share itself, with the same code: the
    # honest run's collected counts, and the reject of a bad opening that
    # was the child's, are the serial ones
    read, _, run = dyadic_case(scheme, 1 << 10)
    only_split(monkeypatch, split)
    openings = opened(scheme, run)
    last = max(i for i, (_, es) in enumerate(openings) if es)
    bad = rewrite_openings(scheme, lambda ops: spoil(ops, {last: "one-off-count"}))
    if split == "walk":
        def state():
            return walk_state(read())
    else:
        def state():
            return outcome(run()), run(prover=bad).info["reject"]
    want = serially(monkeypatch, state)
    forks.clear()
    fail_child(fail, monkeypatch)
    assert state() == want
    forked = sumcheck._can_fork() and fail != "fork-refused"
    assert len(forks) == forked * (1 if split == "walk" else 2)


@pytest.mark.parametrize("split", ["walk", "openings"])
@pytest.mark.parametrize("scheme", ["heavyhitters", "selection"])
def test_split_dyadic_verifier_reaps_the_child_when_the_parent_raises(
        scheme, split, forks, monkeypatch):
    parent = os.getpid()
    read, ups, run = dyadic_case(scheme, 1 << 10)
    only_split(monkeypatch, split)
    if split == "walk":
        class Stream(list):
            def __iter__(self):
                if os.getpid() == parent:
                    raise KeyError("parent")
                return super().__iter__()

        with pytest.raises(KeyError, match="parent"):
            read(Stream(ups))
    else:
        real = BucketFingerprintState.check_opening

        def check_opening(self, *args):
            if os.getpid() == parent:
                raise KeyError("parent")
            return real(self, *args)

        monkeypatch.setattr(BucketFingerprintState, "check_opening",
                            check_opening)
        with pytest.raises(KeyError, match="parent"):
            run()
    assert len(forks) == sumcheck._can_fork()


@pytest.mark.parametrize("split", ["walk", "openings"])
@pytest.mark.parametrize("scheme", ["heavyhitters", "selection"])
def test_split_dyadic_verifier_stays_serial_on_one_cpu_with_a_thread_or_short(
        scheme, split, forks, monkeypatch):
    read, ups, run = dyadic_case(scheme, 1 << 10)
    only_split(monkeypatch, split)
    if split == "walk":
        def state():
            return walk_state(read())
        # one node-update below the cutoff
        size = len(ups) * (dyadic_levels(1 << 10) + 1)
        cutoff = "_WALK_FORK_MIN"
    else:
        def state():
            return outcome(run())
        # one opened entry below the cutoff
        size = sum(len(es) for _, es in opened(scheme, run))
        cutoff = "_OPEN_FORK_MIN"
    want = serially(monkeypatch, state)
    forks.clear()
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert state() == want
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert state() == want
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    monkeypatch.setattr(pointqueries, cutoff, size + 1)
    assert state() == want
    assert forks == []


SPOIL_REASONS = {
    "one-off-count": "bucket fingerprint mismatch",
    "wrong-bucket": "opening item in wrong bucket",
    "malformed-entry": "malformed opening entry",
}


def spoil(openings, spoiled):
    """openings with each opening i of `spoiled`, {i: kind}, spoiled: its
    first count one off, an entry of another opening (whose id hashes to
    another bucket) added, or its first entry's id a string."""
    out = [(b, list(es)) for b, es in openings]
    for i, kind in spoiled.items():
        es = out[i][1]
        e = es[0]
        if kind == "one-off-count":
            es[0] = (e[0], e[1] + 1, *e[2:])
        elif kind == "malformed-entry":
            es[0] = (str(e[0]), *e[1:])
        else:
            other = next(es for j, (_, es) in enumerate(openings)
                         if j != i and es)
            es.append(other[0])
            es.sort()
    return out


def rewrite_openings(scheme, fn):
    if scheme == "heavyhitters":
        return rewrite_chunk("hh-openings", fn)
    return rewrite_chunk("selection-answer", lambda d: (d[0], fn(d[1])))


@pytest.mark.parametrize("kind", list(SPOIL_REASONS))
@pytest.mark.parametrize("where", ["parent", "child", "both"])
@pytest.mark.parametrize("scheme", ["heavyhitters", "selection"])
def test_split_openings_reject_for_the_serial_reason(scheme, where, kind,
                                                     forks, monkeypatch):
    # a bad opening in this process's run, in the child's, or one in each
    # (the child's of the next kind): the reason is the serial one, that of
    # the lowest bad opening
    _, _, run = dyadic_case(scheme, 1 << 10)
    openings = opened(scheme, run)
    full = [i for i, (_, es) in enumerate(openings) if es]
    first, last = full[0], full[-1]
    kinds = list(SPOIL_REASONS)
    other = kinds[(kinds.index(kind) + 1) % len(kinds)]
    spoiled = {"parent": {first: kind}, "child": {last: kind},
               "both": {first: kind, last: other}}[where]
    tamper = rewrite_openings(scheme, lambda ops: spoil(ops, spoiled))
    serial = serially(monkeypatch, lambda: run(prover=tamper))
    cuts = record_cuts(monkeypatch)
    split = run(prover=tamper)
    assert serial.info["reject"] == {"phase": "end",
                                     "reason": SPOIL_REASONS[kind]}
    assert split.info["reject"] == serial.info["reject"]
    if sumcheck._can_fork():
        assert first < cuts[-1] <= last


def drop_opening(scheme, where):
    """The openings with this process's first or the child's last opening
    left out."""
    return rewrite_openings(
        scheme, lambda ops: ops[1:] if where == "parent" else ops[:-1])


def zero_record_forger():
    """test_hh_zero_record_for_heavy_leaf_rejected's run and forger."""
    n = 1 << 10
    leaf = (1 << dyadic_levels(n)) + 77

    def forge(chunks):
        records, openings = chunks[0].data, chunks[1].data
        return [Chunk("hh-records", [(leaf, 0, 0) if r[0] == leaf else r
                                     for r in records], chunks[0].bits),
                Chunk("hh-openings", [(b, [(leaf, e[1], 0) if e[0] == leaf else e
                                           for e in es]) for b, es in openings],
                      chunks[1].bits)]

    def run():
        return heavyhitters_run([StreamUpdate(77, 3), StreamUpdate(5, 1)], n,
                                0.5, c_a=64, c_v=4, seed=3,
                                prover=lambda honest: ChunkTamper(honest, forge))
    return run


MALFORMED_HH = {
    "two-field-record": ("hh-records", lambda recs: [(v, c) for v, c, _ in recs]),
    "string-record": ("hh-records", lambda recs: [(str(v), c, f)
                                                  for v, c, f in recs]),
    "no-records": ("hh-records", lambda recs: None),
    "two-field-opening": ("hh-openings", lambda ops: [
        (b, [(v, c) for v, c, _ in es]) for b, es in ops]),
    "string-bucket": ("hh-openings", lambda ops: [(str(b), es) for b, es in ops]),
    "bool-flag": ("hh-openings", lambda ops: [
        (b, [(v, c, bool(f)) for v, c, f in es]) for b, es in ops]),
}


def other_forgeries():
    """(name, run): the dropped openings chunk and dropped openings, the
    zero-record forger, and the malformed heavy-hitter annotations, each
    of which the serial verifier rejects."""
    hh = dyadic_case("heavyhitters", 1 << 10)[2]
    sel = dyadic_case("selection", 1 << 10)[2]
    drop_chunk = lambda honest: ChunkTamper(
        honest, lambda chunks: [c for c in chunks if c.kind != "hh-openings"])
    cases = [("hh-openings-chunk-dropped", lambda: hh(prover=drop_chunk)),
             ("zero-record-forger", zero_record_forger())]
    for scheme, run in (("heavyhitters", hh), ("selection", sel)):
        for where in ("parent", "child"):
            cases.append((f"{scheme}-{where}-opening-dropped",
                          lambda run=run, t=drop_opening(scheme, where):
                          run(prover=t)))
    small = [StreamUpdate(0, 50), StreamUpdate(1, 40)] + \
        [StreamUpdate(i, 1) for i in range(2, 12)]
    for name, (kind, fn) in MALFORMED_HH.items():
        cases.append((name, lambda kind=kind, fn=fn: heavyhitters_run(
            small, 16, 0.3, c_a=16, c_v=8, seed=1,
            prover=rewrite_chunk(kind, fn))))
    return cases


OTHER_FORGERIES = other_forgeries()


@pytest.mark.parametrize("name, run", OTHER_FORGERIES,
                         ids=[name for name, _ in OTHER_FORGERIES])
def test_split_verifier_rejects_forgeries_for_the_serial_reason(name, run,
                                                                forks,
                                                                monkeypatch):
    serial = serially(monkeypatch, run)
    assert serial.rejected
    assert run().info["reject"] == serial.info["reject"]


def test_split_selection_collects_counts_across_the_pipe(forks, monkeypatch):
    # the prefix nodes' counts that the child's openings hold reach this
    # process: the honest answer passes the rank predicate, and a wrong
    # answer, honestly opened, fails it as the serial run does
    _, _, run = dyadic_case("selection", 1 << 10)
    n = 1 << 10
    openings = opened("selection", run)
    serial = serially(monkeypatch, run)
    cuts = record_cuts(monkeypatch)
    split = run()
    assert serial.accepted and outcome(split) == outcome(serial)
    j = serial.value
    wanted = set(dyadic_prefix_nodes(j, n) + dyadic_prefix_nodes(j + 1, n))
    if sumcheck._can_fork():
        assert any(v in wanted for _, es in openings[cuts[-1]:] for v, _ in es)

    def wrong(honest):
        answer = honest.answer
        honest.answer = lambda rank: answer(rank) + 1
        return honest

    serial = serially(monkeypatch, lambda: run(prover=wrong))
    assert serial.info["reject"] == {"phase": "end",
                                     "reason": "rank predicate violated"}
    assert run(prover=wrong).info["reject"] == serial.info["reject"]
