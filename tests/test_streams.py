import random

import pytest

from streamcert.field import Field, M61
from streamcert.pointqueries import BucketFingerprintState
from streamcert.protocol import ConfigError
from streamcert.streams import (BucketedUpdate, ModelViolation, PairwiseHash,
                                PerfectHashError, StreamUpdate, compute_meta,
                                dyadic_decompose, dyadic_prefix_nodes, dyadic_universe,
                                find_perfect_hash, fingerprint_of_range,
                                random_pairwise_hash, read_pairs, read_stream,
                                stream_ids, validate_stream, write_stream,
                                INSERT_ONLY, NONSTRICT, STRICT)

from conftest import dyadic_node_range, freq_oracle, strict_stream

F101 = Field(101)


def test_meta_matches_naive_counters(rng):
    for _ in range(20):
        n = 256
        ups = strict_stream(rng, n, rng.randrange(1, 40))
        meta = compute_meta(ups, n)
        freq = {}
        touched = set()
        weight = 0
        for u in ups:
            freq[u.item] = freq.get(u.item, 0) + u.delta
            touched.add(u.item)
            weight += abs(u.delta)
        assert meta.length == len(ups)
        assert meta.sparsity == sum(1 for v in freq.values() if v)
        assert meta.footprint == len(touched)
        assert meta.weight == weight
        assert meta.sparsity <= meta.footprint <= meta.length


def test_validate_models():
    validate_stream([StreamUpdate(1, 2), StreamUpdate(1, -2)], 4, STRICT)
    with pytest.raises(ModelViolation):
        validate_stream([StreamUpdate(1, -1)], 4, STRICT)
    with pytest.raises(ModelViolation):
        validate_stream([StreamUpdate(1, -1)], 4, INSERT_ONLY)
    validate_stream([StreamUpdate(1, -1)], 4, NONSTRICT)
    with pytest.raises(ModelViolation):
        validate_stream([StreamUpdate(9, 1)], 4, STRICT)
    with pytest.raises(ModelViolation, match="zero-delta update"):
        validate_stream([StreamUpdate(1, 2), StreamUpdate(1, 0)], 4, NONSTRICT)
    with pytest.raises(ModelViolation, match="unknown model 'bogus'"):
        validate_stream([StreamUpdate(1, 2)], 4, "bogus")


def test_validate_strict_matches_prefix_oracle(rng):
    for _ in range(50):
        ups = [StreamUpdate(rng.randrange(8), rng.choice([-1, 1, 2]))
               for _ in range(12)]
        freq, ok = {}, True
        for u in ups:
            freq[u.item] = freq.get(u.item, 0) + u.delta
            if freq[u.item] < 0:
                ok = False
                break
        if ok:
            validate_stream(ups, 8, STRICT)
        else:
            with pytest.raises(ModelViolation):
                validate_stream(ups, 8, STRICT)


def fingerprint(field, basis):
    """One-bucket fingerprint state: accs[0] is sum_i f_i * basis^i."""
    fp = BucketFingerprintState(field, 1, 1, random.Random(0))
    fp.basis = basis
    fp.set_hash(PairwiseHash(a=1, b=0, p=67, r=1), 64)  # 67 = next_prime(64)
    return fp


def test_fingerprint_basics():
    fp = fingerprint(F101, 3)
    assert fp.accs == [0]
    fp.update(5, 3)
    fp.update(5, -3)
    assert fp.accs == [0]
    fp2 = fingerprint(F101, 3)
    fp2.update(1, 2)
    fp2.update(2, 1)
    assert fp2.accs == [15]  # 2*3 + 1*9


def test_fingerprint_order_insensitive_and_homomorphic(rng):
    a = [StreamUpdate(rng.randrange(50), rng.choice([-2, -1, 1, 3])) for _ in range(30)]
    b = list(a)
    rng.shuffle(b)
    rho = F101.rand(rng)
    fa, fb = fingerprint(F101, rho), fingerprint(F101, rho)
    for u in a:
        fa.update(u.item, u.delta)
    for u in b:
        fb.update(u.item, u.delta)
    assert fa.accs == fb.accs
    # concat homomorphism
    c = [StreamUpdate(rng.randrange(50), 1) for _ in range(10)]
    fc = fingerprint(F101, rho)
    for u in c:
        fc.update(u.item, u.delta)
    fac = fingerprint(F101, rho)
    for u in a + c:
        fac.update(u.item, u.delta)
    assert fac.accs[0] == (fa.accs[0] + fc.accs[0]) % 101


def test_fingerprint_no_collisions_over_many_bases():
    fm = Field(M61)
    rng = random.Random(12)
    collisions = 0
    for _ in range(10_000):
        rho = fm.rand(rng)
        a = fingerprint(fm, rho)
        b = fingerprint(fm, rho)
        for i, f in ((0, 2), (3, 1), (7, 5)):
            a.update(i, f)
            b.update(i, f)
        b.update(3, 1)  # differ in one item
        if a.accs == b.accs:
            collisions += 1
    assert collisions == 0


def test_fingerprint_of_range():
    rho = 7
    direct = sum(pow(rho, i, 101) for i in range(9)) % 101
    assert fingerprint_of_range(F101, rho, 9) == direct
    assert fingerprint_of_range(F101, 1, 9) == 9


def test_pairwise_hash_identity_and_constant():
    h = PairwiseHash(a=1, b=0, p=11, r=11)
    assert all(h(x) == x for x in range(11))
    h1 = PairwiseHash(a=5, b=3, p=11, r=1)
    assert all(h1(x) == 0 for x in range(11))


def test_pairwise_collision_rate(rng):
    r = 100
    trials = 100_000
    hits = 0
    for _ in range(trials):
        h = random_pairwise_hash(10_000, r, rng)
        x, y = rng.randrange(10_000), rng.randrange(10_000)
        if x != y and h(x) == h(y):
            hits += 1
    assert 0.005 <= hits / trials <= 0.02


def test_find_perfect_hash():
    rng = random.Random(4)
    h = find_perfect_hash([42], 1, 1, rng)
    assert h(42) == 0
    with pytest.raises(PerfectHashError):
        find_perfect_hash([0, 1], 1, 20, rng)
    trials_used = []
    for seed in range(50):
        rng = random.Random(seed)
        items = rng.sample(range(1 << 30), 100)
        h = find_perfect_hash(items, 10_000, 50, rng)
        assert len({h(x) for x in items}) == 100
        # count draws: expected collisions ~ 0.5, so the median is small
        probe = random.Random(seed)
        count = 1
        while True:
            hh = random_pairwise_hash(max(items) + 1, 10_000, probe)
            if len({hh(x) for x in items}) == 100:
                break
            count += 1
        trials_used.append(count)
    trials_used.sort()
    assert trials_used[len(trials_used) // 2] <= 2


def test_dyadic_decompose_examples():
    ids0 = dyadic_decompose(0, 8)
    ranges0 = sorted(dyadic_node_range(v, 8) for v in ids0)
    assert ranges0 == [(0, 0), (0, 1), (0, 3), (0, 7)]
    ids5 = dyadic_decompose(5, 8)
    ranges5 = sorted(dyadic_node_range(v, 8) for v in ids5)
    assert ranges5 == [(0, 7), (4, 5), (4, 7), (5, 5)]
    for i in range(64):
        assert len(dyadic_decompose(i, 64)) == 7  # log2(64) + 1


def test_dyadic_shared_ids_match_lca_depth():
    n = 64
    for i in range(0, n, 7):
        for j in range(0, n, 5):
            a, b = set(dyadic_decompose(i, n)), set(dyadic_decompose(j, n))
            shared = len(a & b)
            brute = sum(1 for v in a
                        if dyadic_node_range(v, n)[0] <= j <= dyadic_node_range(v, n)[1])
            assert shared == brute


def test_dyadic_prefix_nodes():
    n = 16
    for count in range(0, n + 1):
        nodes = dyadic_prefix_nodes(count, n)
        assert len(nodes) <= 5
        covered = []
        for v in nodes:
            lo, hi = dyadic_node_range(v, n)
            covered.extend(range(lo, hi + 1))
        assert sorted(covered) == list(range(count))


def test_dyadic_universe_bound():
    for i in range(20):
        for node in dyadic_decompose(i, 20):
            assert 1 <= node < dyadic_universe(20)


def test_stream_file_roundtrip(tmp_path, rng):
    ups = strict_stream(rng, 64, 10)
    path = tmp_path / "s.txt"
    write_stream(path, ups, 64, STRICT)
    got, n, model, params = read_stream(path)
    assert got == ups and n == 64 and model == STRICT and params == {}
    assert freq_oracle(got) == freq_oracle(ups)
    # the other kinds, with a blank line and comments, indented or not
    files = {
        "tagged": ("# n=16 model=nonstrict\nS 3 1\n\n  # note\nt 5 -2\nY 3 1\n",
                   [(0, StreamUpdate(3, 1)), (1, StreamUpdate(5, -2)),
                    (1, StreamUpdate(3, 1))], 16, NONSTRICT, {}),
        "bucketed": ("# r=4 n=8\n3 0 1\n# note\n5 3 2\n",
                     [BucketedUpdate(3, 0, 1), BucketedUpdate(5, 3, 2)],
                     8, STRICT, {"r": 4}),
        "edges": ("# vertices=5 model=insert\n0 1 1\n\t# note\n3 4 1\n",
                  [(0, 1, 1), (3, 4, 1)], 5, INSERT_ONLY, {}),
    }
    for kind, (text, records, size, model_, header) in files.items():
        path = tmp_path / f"{kind}.txt"
        path.write_text(text)
        assert read_stream(path, kind) == (records, size, model_, header)


@pytest.mark.parametrize("kind, header, line", [
    ("plain", "# n=8", "3 1 1"),
    ("plain", "# n=8", "3"),
    ("plain", "# n=8", "3 x"),
    ("tagged", "# n=8", "S 3"),
    ("tagged", "# n=8", "S 3 1.5"),
    ("bucketed", "# n=8 r=2", "3 1"),
    ("edges", "# vertices=4", "0 1 1 1"),
], ids=["plain-long", "plain-short", "plain-word", "tagged-short",
        "tagged-float", "bucketed-short", "edges-long"])
def test_bad_stream_line_names_path_and_line(kind, header, line, tmp_path):
    path = tmp_path / "s.txt"
    path.write_text(f"{header}\n# note\n{line}\n")
    with pytest.raises(ValueError, match="line 3") as exc:
        read_stream(path, kind)
    assert str(path) in str(exc.value)


def test_witness_file_skips_comments_and_names_bad_lines(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("  # item count\n5 1\n\n\t#\n17 2\n")
    assert read_pairs(path) == [(5, 1), (17, 2)]
    path.write_text("5 1\n17\n")
    with pytest.raises(ValueError, match="line 2") as exc:
        read_pairs(path)
    assert str(path) in str(exc.value)


def test_stream_ids_flatten_each_kind():
    plain = [StreamUpdate(3, 1)]
    assert stream_ids("plain", plain, 8)[0] is plain
    assert stream_ids("tagged", [(0, StreamUpdate(3, 1)), (1, StreamUpdate(3, 2))],
                      8) == ([StreamUpdate(6, 1), StreamUpdate(7, 2)], 16)
    assert stream_ids("bucketed", [BucketedUpdate(3, 2, 1)], 8, {"r": 4}) == (
        [StreamUpdate(14, 1)], 32)
    assert stream_ids("edges", [(2, 0, 1), (0, 1, 1), (0, 1, -1)], 4) == (
        [StreamUpdate(1, 1), StreamUpdate(0, 1), StreamUpdate(0, -1)], 6)


@pytest.mark.parametrize("kind, records, params, message", [
    ("tagged", [(0, StreamUpdate(3, 1)), (1, StreamUpdate(40, 1))], None,
     "item 40 of T outside [0, 16)"),
    ("tagged", [(0, StreamUpdate(-1, 1))], None, "item -1 of S outside [0, 16)"),
    ("tagged", [(2, StreamUpdate(3, 1))], None, "tag 2 is neither 0 (S) nor 1 (T)"),
    ("bucketed", [BucketedUpdate(16, 0, 1)], {"r": 4}, "item 16 outside [0, 16)"),
    ("bucketed", [BucketedUpdate(3, 4, 1)], {"r": 4}, "bucket 4 outside [0, 4)"),
    ("edges", [(-1, 2, 1), (2, 3, 1)], None,
     "vertex -1 of edge (-1, 2) outside [0, 16)"),
    ("edges", [(3, 16, 1)], None, "vertex 16 of edge (3, 16) outside [0, 16)"),
    ("edges", [(2, 2, 1)], None, "self loop at vertex 2"),
    ("edges", [(0, 1, 1), (1, 0, 1), (1, 2, 1)], None,
     "edge (0, 1) has final count 2, not 0 or 1"),
    ("edges", [(1, 2, 1), (1, 2, -2)], None,
     "edge (1, 2) has final count -1, not 0 or 1"),
], ids=["tagged-high", "tagged-negative", "tagged-bad-tag", "bucketed-item",
        "bucketed-bucket", "edge-negative", "edge-high", "edge-self-loop",
        "edge-repeated", "edge-negative-count"])
def test_stream_ids_name_the_record_as_given(kind, records, params, message):
    with pytest.raises(ConfigError) as exc:
        stream_ids(kind, records, 16, params)
    assert str(exc.value) == message


@pytest.mark.parametrize("item", [8, -1])
def test_compute_meta_refuses_items_outside_universe(item):
    with pytest.raises(ConfigError, match=rf"item {item} outside \[0, 8\)"):
        compute_meta([StreamUpdate(3, 1), StreamUpdate(item, 1)], 8)
