import marshal
import os
import random
import threading
from dataclasses import replace
from math import factorial

import pytest

from streamcert import sumcheck
from streamcert.field import Field, M61, field_at_least
from streamcert.moments import fk_ama_mode, fk_footprint_mode, fk_online_run
from streamcert.protocol import ConfigError, Reject
from streamcert.purity import (AmaPurity, ama_params, draw_public_coins,
                              purity_deltas)
from streamcert.sumcheck import (DenseParams, DenseProof, DenseProver,
                                 DenseVerifier, g_power, g_product, g_purity,
                                 g_sub_purity, g_sub_square, g_triple_product,
                                 lane_bank, prop1_min_field, _ExtGrid)

from conftest import (dense_prover_proof, lagrange_basis_at, moment_oracle,
                      strict_stream)

FM = Field(M61)


def params_for(universe, c_a, c_v, vectors, degree, g, bound, field=FM, **kw):
    return DenseParams(field, universe, c_a, c_v, vectors, degree, g, bound, **kw)


def brute_value(vectors, g):
    n = max(len(v) for v in vectors)
    total = 0
    for i in range(n):
        total += g([v[i] if i < len(v) else 0 for v in vectors])
    return total


def test_zero_vectors_give_zero_polynomial():
    p = params_for(8, 4, 2, 1, 2, g_power(FM, 2), 100)
    proof = dense_prover_proof([[0] * 8], p)
    assert all(v == 0 for v in proof.values)
    st = DenseVerifier(p, random.Random(1))
    assert st.verify(proof, "dense") == 0


def test_single_column_constant_polynomial():
    # c_a = 1: b(X) is the constant F
    p = params_for(4, 1, 4, 1, 2, g_power(FM, 2), 1000)
    f = [1, 2, 3, 4]
    proof = dense_prover_proof([f], p)
    assert len(proof.values) == 1
    st = DenseVerifier(p, random.Random(7))
    for i, v in enumerate(f):
        st.update(0, i, v)
    assert st.verify(proof, "dense") == 30


def test_spec_square_example():
    p = params_for(4, 2, 2, 1, 2, g_power(FM, 2), 1000)
    f = [1, 2, 3, 4]
    st = DenseVerifier(p, random.Random(3))
    for i, v in enumerate(f):
        st.update(0, i, v)
    proof = dense_prover_proof([f], p)
    assert sum(proof.values[:2]) % FM.q == 30
    assert st.verify(proof, "dense") == 30


def test_inner_product_of_disjoint_indicators_is_zero():
    p = params_for(8, 4, 2, 2, 2, g_product(FM), 100)
    a = [1, 0, 1, 0, 0, 0, 0, 0]
    b = [0, 1, 0, 0, 1, 0, 0, 1]
    st = DenseVerifier(p, random.Random(5))
    for i in range(8):
        if a[i]:
            st.update(0, i, a[i])
        if b[i]:
            st.update(1, i, b[i])
    assert st.verify(dense_prover_proof([a, b], p), "dense") == 0


class FixedPoint:
    """Stands in for the verifier's rng: every draw returns r, so a
    DenseVerifier built over it has its secret point, and its Lagrange row,
    at r."""

    def __init__(self, r):
        self.r = r

    def randrange(self, stop):
        assert 0 <= self.r < stop
        return self.r


def test_update_cancellation_and_own_node():
    p = params_for(16, 4, 4, 1, 2, g_power(FM, 2), 10_000)
    st = DenseVerifier(p, random.Random(11))
    before = [row[:] for row in st.rows]
    st.update(0, 9, 5)
    st.update(0, 9, -5)
    assert st.rows == before
    # r landing on a grid row makes the Lagrange factor one
    st = DenseVerifier(p, FixedPoint(2))  # x = 2 holds items 8..11
    st.update(0, 9, 7)
    assert st.rows[0][1] == 7


def test_add_purity_is_three_updates(rng):
    # one fused purity cell leaves both sides exactly as three updates do,
    # including a cell whose terms cancel, which pops the prover's entries
    p = params_for(16, 4, 4, 4, 3, g_sub_purity(FM), 10 ** 6, gate=3)
    fused_v, plain_v = DenseVerifier(p, random.Random(5)), DenseVerifier(p, random.Random(5))
    fused_p, plain_p = DenseProver(p), DenseProver(p)
    cells = [(rng.randrange(15), tuple(rng.randrange(-5, 6) for _ in range(3)))
             for _ in range(40)]
    cells += [(15, (2, FM.q - 3, 4)), (15, (-2, 3, FM.q - 4))]
    for item, terms in cells:
        for fused, plain in ((fused_v, plain_v), (fused_p, plain_p)):
            fused.add_purity(item, terms)
            for j, t in enumerate(terms):
                plain.update(j, item, t)
    assert fused_v.rows == plain_v.rows
    assert fused_p.vecs == plain_p.vecs
    assert all(15 not in vec for vec in fused_p.vecs)
    assert fused_v.rows[3] == [0] * 4 and fused_p.vecs[3] == {}


# ------------------------------------------------------------ the lane bank

F80 = field_at_least(1 << 80)  # the lanes' purity field, apart from FM
LANES = 3
COUNT_P = params_for(16, 4, 4, 2, 3, g_sub_square(FM), 10 ** 6, gate=1)
PURITY_P = params_for(16, 4, 4, 4, 3, g_sub_purity(F80), 10 ** 9, field=F80,
                      gate=3)
# one (a, b, p, r) key a lane into the 16 buckets
_keys_rng = random.Random(4)
KEYS = [(_keys_rng.randrange(1, M61), _keys_rng.randrange(M61), M61, 16)
        for _ in range(LANES)]


def _buckets(x):
    return [(a * x + b) % p % r for a, b, p, r in KEYS]


def _bank_cases(rng, terms_of):
    """(x, delta, head, terms) per bank call: random items, items that
    land in bucket 0 and in the last bucket in each lane, negative deltas,
    and a call undone by its negation, whose terms cancel. The first
    lane's terms, head, are those of another item than the other lanes'
    terms."""
    def case(x, delta):
        return x, delta, terms_of((x + 17) % 40, delta), terms_of(x % 40, delta)

    cases = [case(rng.randrange(1000), rng.randrange(-5, 6)) for _ in range(30)]
    for k in range(LANES):
        for target in (0, 15):
            x = next(x for x in range(1000) if _buckets(x)[k] == target)
            cases.append(case(x, rng.choice((-4, 3))))
    undone = rng.randrange(1000)
    cases.append(case(undone, 6))
    cases.append(case(undone, -6))
    return cases


def _separately(lanes, x, delta, head, terms):
    for k, (b, (count, j, sink)) in enumerate(zip(_buckets(x), lanes)):
        count.update(j, b, delta)
        sink.add_purity(b, terms if k else head)


def test_lane_bank_matches_separate_calls(monkeypatch, rng):
    # verifier lanes over two fields take the fused loop, which makes no
    # update or add_purity call, returns the item's bucket in every lane,
    # and leaves the rows those calls leave
    def lanes():
        seeds = random.Random(8)
        return [(DenseVerifier(COUNT_P, seeds), 0, DenseVerifier(PURITY_P, seeds))
                for _ in range(LANES)]

    fused, plain = lanes(), lanes()
    cases = _bank_cases(rng, lambda i, d: purity_deltas(F80, i, d))
    for case in cases:
        _separately(plain, *case)
    for name in ("update", "add_purity"):
        monkeypatch.setattr(DenseVerifier, name, None)
    add = lane_bank(fused, KEYS)
    for case in cases:
        assert add(*case) == _buckets(case[0])
    for (c1, _, s1), (c2, _, s2) in zip(fused, plain):
        assert (c1.rows, s1.rows) == (c2.rows, s2.rows)
    assert any(row != [0] * 4 for c, _, s in fused for row in c.rows + s.rows)
    # the same terms in every lane, as one-sided updates pass them
    one = lanes()
    add = lane_bank(one, KEYS)
    monkeypatch.undo()
    ref = lanes()
    for x, delta, _, terms in cases:
        assert add(x, delta, terms, terms) == _buckets(x)
        _separately(ref, x, delta, terms, terms)
    for (c1, _, s1), (c2, _, s2) in zip(one, ref):
        assert (c1.rows, s1.rows) == (c2.rows, s2.rows)


def test_lane_bank_over_provers_and_ama_sinks(rng):
    # any other lane makes the update and add_purity calls, and returns
    # the same buckets: prover lanes, whose cancelled cells leave no entry,
    # and verifier counts with AMA purity sinks, whose terms are (item,
    # count)
    def prover_lanes():
        return [(DenseProver(COUNT_P), 0, DenseProver(PURITY_P))
                for _ in range(LANES)]

    fused, plain = prover_lanes(), prover_lanes()
    add = lane_bank(fused, KEYS)
    for case in _bank_cases(rng, lambda i, d: purity_deltas(F80, i, d)):
        assert add(*case) == _buckets(case[0])
        _separately(plain, *case)
    for (c1, _, s1), (c2, _, s2) in zip(fused, plain):
        assert (c1.vecs, s1.vecs) == (c2.vecs, s2.vecs)

    lgn, coins = 6, draw_public_coins(F80, 3)
    ama = ama_params(F80, 16, lgn, 32, 4)

    def ama_lanes():
        seeds = random.Random(9)
        return [(DenseVerifier(COUNT_P, seeds), 1,
                 AmaPurity(DenseVerifier(ama, seeds), coins, 40, lgn))
                for _ in range(LANES)]

    fused, plain = ama_lanes(), ama_lanes()
    add = lane_bank(fused, KEYS)
    for case in _bank_cases(rng, lambda i, d: (i, d)):
        assert add(*case) == _buckets(case[0])
        _separately(plain, *case)
    for (c1, _, s1), (c2, _, s2) in zip(fused, plain):
        assert (c1.rows, s1.dense.rows) == (c2.rows, s2.dense.rows)


def test_empty_lane_bank_adds_nothing():
    # no lane, so no count instance or sink to type-check: whatever the
    # terms' shape (AMA's are pairs), add takes them, adds nothing and
    # returns no bucket
    add = lane_bank([], [])
    assert add(5, 3, (7, 2), (7, 2)) == []
    assert add(6, -1, (1, 2, 3), (4, 5, 6)) == []


def test_lane_bank_refuses_a_key_count_other_than_its_lanes():
    # one key a lane, over the fused verifier loop and the generic one
    # alike: a key short or a key over is refused when the bank is built
    seeds = random.Random(8)
    for lanes in ([(DenseVerifier(COUNT_P, seeds), 0,
                    DenseVerifier(PURITY_P, seeds))] * LANES,
                  [(DenseProver(COUNT_P), 0, DenseProver(PURITY_P))] * LANES):
        for keys in (KEYS[:-1], KEYS + KEYS[:1]):
            with pytest.raises(ValueError):
                lane_bank(lanes, keys)
    with pytest.raises(ValueError):
        lane_bank([], KEYS[:1])


# ------------------------------------------------------ packed purity cells


def test_packed_purity_cells_at_their_worst_case():
    # terms q - 1 at Lagrange entries q - 1, the largest addend a slot
    # takes, many times into one column: the rows read as three plain
    # updates per add leave them
    p = params_for(16, 4, 4, 4, 3, g_sub_purity(F80), 10 ** 9, field=F80,
                   gate=3)
    packed, plain = DenseVerifier(p, random.Random(5)), DenseVerifier(p, random.Random(5))
    q = F80.q
    for st in (packed, plain):
        st.lrow[:] = [q - 1 - k for k in range(len(st.lrow))]
    top = (q - 1, q - 1, q - 1)
    for k in range(3000):
        item = 4 * (k % 4) + 2  # column 2, every row x
        packed.add_purity(item, top)
        for j, t in enumerate(top):
            plain.update(j, item, t)
    assert packed.rows == plain.rows
    assert packed._pack == [0] * 4
    # a cell read back at the edge of each signed slot
    s = packed.slot
    edge = (1 << (s - 1)) - 1
    for u, v, w in ((edge, -edge, edge), (-edge, edge, -edge), (0, -1, 1)):
        st = DenseVerifier(p, random.Random(6))
        st._pack[1] = u + (v << s) + (w << 2 * s)
        assert [row[1] for row in st.rows[:3]] == [u % q, v % q, w % q]
        assert st._pack == [0] * 4


def test_reading_rows_between_adds_changes_nothing(rng):
    # rows read after every few adds, which fold the packed cells each
    # time, end where one read after the last add ends
    p = params_for(16, 4, 4, 4, 3, g_sub_purity(F80), 10 ** 9, field=F80,
                   gate=3)
    often, once = DenseVerifier(p, random.Random(7)), DenseVerifier(p, random.Random(7))
    for k in range(300):
        item, delta = rng.randrange(16), rng.randrange(-4, 5)
        terms = purity_deltas(F80, rng.randrange(40), delta)
        for st in (often, once):
            st.add_purity(item, terms)
            st.update(3, item, 1)
        if k % 7 == 0:
            assert often.rows[:3] != [[0] * 4] * 3
    assert often.rows == once.rows


def test_rows_match_direct_extension(rng):
    # independent oracle: evaluate the low-degree extension directly
    p = params_for(16, 4, 4, 2, 2, g_product(FM), 10 ** 9)
    st = DenseVerifier(p, random.Random(23))
    grid = [[[0] * 4 for _ in range(4)] for _ in range(2)]
    for _ in range(20):
        j = rng.randrange(2)
        item = rng.randrange(16)
        delta = rng.choice([-3, -1, 1, 2, 5])
        st.update(j, item, delta)
        grid[j][item // 4][item % 4] += delta
    for j in range(2):
        for y in range(4):
            direct = sum(grid[j][x][y] % FM.q * lagrange_basis_at(FM, 4, x, st.r)
                         for x in range(4)) % FM.q
            assert st.rows[j][y] == direct


# ------------------------------------------------------- delayed reduction


def test_rows_reduce_on_read_and_stay_bounded(rng):
    # a churn stream through the fused bank and plain update and add_purity
    # calls on the same instances, with the rows read mid-stream: the rows
    # read as an eager oracle's, the bank keeps writing into the row lists
    # and packed cells the read folded, and every raw cell stays below
    # A * q^2 after A additions into its instance
    seeds = random.Random(8)
    lanes = [(DenseVerifier(COUNT_P, seeds), 0, DenseVerifier(PURITY_P, seeds))
             for _ in range(LANES)]
    insts = [st for count, _, sink in lanes for st in (count, sink)]
    held = {st: (list(st._rows), st._pack) for st in insts}
    eager = {st: [[0] * st.c_v for _ in st._rows] for st in insts}
    adds = dict.fromkeys(insts, 0)

    def oracle(st, j, item, d):
        x, y = divmod(item, st.c_v)
        eager[st][j][y] = (eager[st][j][y] + d * st.lrow[x]) % st.q
        adds[st] += 1

    add = lane_bank(lanes, KEYS)
    live = {}
    for step in range(400):
        item = rng.randrange(40)
        net = live.get(item, 0)
        if net and rng.random() < 0.4:
            delta = -rng.randrange(1, net + 1)
        else:
            delta = rng.randrange(1, 4)
        live[item] = net + delta
        head = purity_deltas(F80, item + 40, delta)
        terms = purity_deltas(F80, item, delta)
        buckets = add(item, delta, head, terms)
        assert buckets == _buckets(item)
        for k, (b, (count, j, sink)) in enumerate(zip(buckets, lanes)):
            oracle(count, j, b, delta)
            for jj, t in enumerate(terms if k else head):
                oracle(sink, jj, b, t)
        count, _, sink = lanes[step % LANES]
        b = rng.randrange(16)
        count.update(1, b, 1)
        sink.add_purity(b, terms)
        oracle(count, 1, b, 1)
        for jj, t in enumerate(terms):
            oracle(sink, jj, b, t)
        if step == 200:
            for st in insts:
                assert st.rows == eager[st]
                assert all(0 <= c < st.q for row in st._rows for c in row)
    assert any(c >= st.q or c < 0 for st in insts for row in st._rows for c in row)
    assert all(any(sink._pack) for _, _, sink in lanes)
    for st in insts:
        assert all(abs(c) < adds[st] * st.q ** 2 for row in st._rows for c in row)
        rows = st.rows
        assert all(a is b for a, b in zip(rows, held[st][0]))
        assert st._pack is held[st][1] and not any(st._pack)
        assert rows == eager[st]


@pytest.mark.parametrize("g_name", ["square", "cube", "product"])
def test_completeness_randomized(g_name, rng):
    for _ in range(40):
        n = rng.randrange(2, 64)
        c_a = rng.choice([1, 2, 4, 8])
        c_v = (n + c_a - 1) // c_a
        if g_name == "square":
            vectors, degree, g = 1, 2, g_power(FM, 2)
        elif g_name == "cube":
            vectors, degree, g = 1, 3, g_power(FM, 3)
        else:
            vectors, degree, g = 2, 2, g_product(FM)
        p = params_for(n, c_a, c_v, vectors, degree, g, 10 ** 12)
        vecs = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(vectors)]
        st = DenseVerifier(p, random.Random(rng.random()))
        for j, vec in enumerate(vecs):
            for i, v in enumerate(vec):
                if v:
                    st.update(j, i, v)
        got = st.verify(dense_prover_proof(vecs, p), "dense")

        def g_int(vals):
            if g_name == "square":
                return vals[0] ** 2
            if g_name == "cube":
                return vals[0] ** 3
            return vals[0] * vals[1]

        assert got == brute_value(vecs, g_int)


def test_soundness_tampered_proofs(rng):
    p = params_for(32, 8, 4, 1, 2, g_power(FM, 2), 10 ** 9)
    f = [rng.randrange(0, 5) for _ in range(32)]
    proof = dense_prover_proof([f], p)
    accepts = 0
    for t in range(100):
        st = DenseVerifier(p, random.Random(4100 + t))
        for i, v in enumerate(f):
            if v:
                st.update(0, i, v)
        values = list(proof.values)
        values[rng.randrange(len(values))] += 1
        try:
            st.verify(DenseProof(values, proof.field_bits), "dense")
        except Reject as exc:
            assert str(exc) == "dense proof failed"
        else:
            accepts += 1
    assert accepts == 0


@pytest.mark.parametrize("r", [2, 123456789])
def test_noncanonical_proof_value_rejected_at_every_point(r):
    # values[2] + q is congruent to the honest value: the proof must be
    # rejected whether or not r lands on the grid point 2, where the value
    # would be read as it stands
    p = params_for(8, 4, 2, 1, 2, g_power(FM, 2), 1000)
    f = [3, 0, 0, 6, 0, 0, 0, 0]
    proof = dense_prover_proof([f], p)

    def verifier():
        st = DenseVerifier(p, FixedPoint(r))
        for i, v in enumerate(f):
            st.update(0, i, v)
        return st

    assert verifier().verify(proof, "dense") == 45
    values = list(proof.values)
    values[2] += FM.q
    with pytest.raises(Reject, match="^dense proof failed$"):
        verifier().verify(DenseProof(values, proof.field_bits), "dense")
    values[2] -= 2 * FM.q
    with pytest.raises(Reject, match="^dense proof failed$"):
        verifier().verify(DenseProof(values, proof.field_bits), "dense")


def test_degree_violation_rejected():
    p = params_for(4, 2, 2, 1, 2, g_power(FM, 2), 1000)
    f = [1, 2, 3, 4]
    st = DenseVerifier(p, random.Random(3))
    for i, v in enumerate(f):
        st.update(0, i, v)
    proof = dense_prover_proof([f], p)
    long_proof = DenseProof(proof.values + [0], proof.field_bits)
    with pytest.raises(Reject, match="^dense proof failed$"):
        st.verify(long_proof, "dense")


def test_output_bound_enforced():
    p = params_for(4, 2, 2, 1, 2, g_power(FM, 2), bound=10)
    f = [1, 2, 3, 4]  # F = 30 > bound
    st = DenseVerifier(p, random.Random(3))
    for i, v in enumerate(f):
        st.update(0, i, v)
    with pytest.raises(Reject, match="^dense proof failed$"):
        st.verify(dense_prover_proof([f], p), "dense")


def test_verifier_seed_determinism_and_uniformity():
    p = params_for(4, 2, 2, 1, 2, g_power(FM, 2), 1000)
    assert DenseVerifier(p, random.Random(9)).r == DenseVerifier(p, random.Random(9)).r
    f101 = Field(101)
    p101 = DenseParams(f101, 4, 2, 2, 1, 1, g_power(f101, 1), 8)
    counts = [0] * 101
    for s in range(10_000):
        counts[DenseVerifier(p101, random.Random(s)).r] += 1
    expect = 10_000 / 101
    chi2 = sum((c - expect) ** 2 / expect for c in counts)
    assert chi2 < 162  # df=100 critical value at alpha=0.0001


def direct_values(p, vecs):
    """b on {0, ..., proof_len - 1} from the Lagrange extension of every
    column, one basis element at a time: the oracle for the packed
    multi-point evaluation."""
    q = p.field.q

    def ext(vec, point, y):
        total = 0
        for x in range(p.c_a):
            item = x * p.c_v + y
            val = vec.get(item, 0) if item < p.universe else 0
            total += val * lagrange_basis_at(p.field, p.c_a, x, point)
        return total % q

    return [sum(p.g([ext(vec, point, y) for vec in vecs])
                for y in range(p.c_v)) % q
            for point in range(p.proof_len)]


def test_prover_values_match_direct_extension_oracle(rng):
    universe, c_a, c_v = 11, 4, 3
    p = params_for(universe, c_a, c_v, 2, 2, g_product(FM), 10 ** 9)
    vecs = [{rng.randrange(universe): rng.randrange(1, 9) for _ in range(5)}
            for _ in range(2)]
    assert dense_prover_proof(vecs, p).values == direct_values(p, vecs)


def test_closed_form_grid_inverts_up_to_q_minus_one():
    # proof_len = 3 * 33 + 1 = 100 = q - 1: the grid build inverts every
    # k in 1 .. 99, the largest range DenseParams admits in GF(101)
    f101 = Field(101)
    p = DenseParams(f101, 68, 34, 2, 1, 3, g_power(f101, 3), 50)
    assert p.proof_len == f101.q - 1
    vecs = [{3: 1, 40: 2, 67: 1, 20: 100}]  # 1 + 8 + 1 - 1 = 9
    proof = dense_prover_proof(vecs, p)
    assert proof.values == direct_values(p, vecs)
    for seed in range(5):
        st = DenseVerifier(p, random.Random(seed))
        for item, v in vecs[0].items():
            st.update(0, item, v)
        assert st.verify(proof, "dense") == 9


def packed(values, limb_bytes):
    return int.from_bytes(b"".join(v.to_bytes(limb_bytes, "little")
                                   for v in values), "little")


@pytest.mark.parametrize("field", [Field(101), FM, field_at_least(1 << 79)],
                         ids=["q101", "m61", "q80bit"])
@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("c_a", [1, 2, 3, 5, 8])
def test_ext_grid_packs_match_lagrange_oracle(field, degree, c_a):
    # a little past proof_len, so that c_a = 1 has extension points too
    s = degree * c_a + 1
    grid = _ExtGrid(field, c_a)
    grid.ensure(s)
    n = grid.seg_len
    assert n == max(1, c_a - 1)
    # whole segments, as few as cover the points below s
    assert len(grid.segments) == -(-(s - c_a) // n)
    assert grid.s == c_a + len(grid.segments) * n >= s
    q = field.q
    for k, segment in enumerate(grid.segments):
        assert len(segment) == c_a
        # the grid leaves C(p) = p! / (p - c_a)! out of its limbs
        points = range(c_a + k * n, c_a + (k + 1) * n)
        cps = [factorial(p) // factorial(p - c_a) % q for p in points]
        assert grid.scale(k, degree) == [pow(c, degree, q) for c in cps]
        for x, col in enumerate(segment):
            want = [lagrange_basis_at(field, c_a, x, p) for p in points]
            limbs = grid.unpack(col)
            assert [c * v % q for c, v in zip(cps, limbs)] == want
            assert col == packed([v % q for v in limbs],
                                 grid.limb_bytes)  # limbs already reduced


@pytest.mark.parametrize("bits", [61, 80, 168, 296])
def test_ext_grid_packed_reduction_at_real_widths(bits):
    # c_a = 512, degree 3: the widest grid the benchmark builds, in every
    # field width the universe tests reach; each column is a window of the
    # packed inverses times w_x, reduced limb by limb in packed form
    field = FM if bits == 61 else field_at_least(1 << bits - 1)
    assert field.bits == bits
    q, c_a = field.q, 512
    grid = _ExtGrid(field, c_a)
    grid.ensure(3 * (c_a - 1) + 1)
    n = grid.seg_len
    assert len(grid.segments) == 2
    for k, segment in enumerate(grid.segments):
        p0 = c_a + k * n
        for x in (0, 1, 255, 510, 511):
            w = pow(factorial(x) * factorial(c_a - 1 - x), -1, q)
            w = q - w if (c_a - 1 - x) % 2 else w
            assert grid.unpack(segment[x]) == [
                w * pow(p - x, -1, q) % q for p in range(p0, p0 + n)]
        assert max(max(grid.unpack(col)) for col in segment) < q


def test_ext_grid_grows_to_a_fresh_build():
    grown = _ExtGrid(FM, 8)
    grown.ensure(12)
    first = grown.segments[0]
    grown.ensure(22)
    fresh = _ExtGrid(FM, 8)
    fresh.ensure(22)
    assert grown.segments == fresh.segments and grown.s == fresh.s == 22
    # growing builds only the new segments
    assert grown.segments[0] is first
    built = list(grown.segments)
    grown.ensure(15)  # never shrinks
    assert grown.s == 22 and len(grown.segments) == len(built)
    assert all(a is b for a, b in zip(grown.segments, built))


def test_vcost_words_exact():
    p = params_for(16, 4, 4, 3, 2, g_purity(FM), 10 ** 9)
    st = DenseVerifier(p, random.Random(0))
    assert st.words == 3 * 4 + 2


def test_params_validation():
    with pytest.raises(ConfigError):
        params_for(16, 2, 2, 1, 2, g_power(FM, 2), 100)  # grid too small
    with pytest.raises(ConfigError):
        DenseParams(Field(11), 4, 2, 2, 1, 2, g_power(Field(11), 2), 100)
    with pytest.raises(ConfigError, match="vanish at zero"):
        params_for(16, 4, 4, 1, 2, lambda v: (v[0] * v[0] + 1) % FM.q, 100)
    for shape, match in [
            ((FM, 0, 4, 4, 1, 2), "degenerate dense shape"),
            ((FM, 16, 0, 4, 1, 2), "degenerate dense shape"),
            ((FM, 16, 4, 0, 1, 2), "degenerate dense shape"),
            ((FM, 16, 4, 4, 0, 2), "at least one vector"),
            ((FM, 16, 4, 4, 1, 0), "at least one vector"),
            # proof_len = 3 * 39 + 1 = 118 values do not fit in GF(101)
            ((Field(101), 80, 40, 2, 1, 3), "too small for the proof degree")]:
        with pytest.raises(ConfigError, match=match):
            DenseParams(*shape, g_power(shape[0], 2), 1)
    assert prop1_min_field(2, 4, 10) == 2 * 2 * 14 ** 2 + 1


def test_params_refuse_inhomogeneous_g():
    # the prover factors C(p)^degree out of g: g must be homogeneous of
    # its declared degree
    with pytest.raises(ConfigError, match="homogeneous of degree 2"):
        params_for(16, 4, 4, 1, 2, lambda v: (v[0] * v[0] + v[0]) % FM.q, 100)
    with pytest.raises(ConfigError, match="homogeneous of degree 3"):
        params_for(16, 4, 4, 1, 3, g_power(FM, 2), 100)
    for degree, g in [(1, g_power(FM, 1)), (3, g_power(FM, 3)),
                      (2, g_product(FM)), (3, g_triple_product(FM))]:
        params_for(16, 4, 4, 3, degree, g, 100)


G_FAMILIES = {
    "z": (1, 1, g_power, None), "z^2": (1, 2, g_power, None),
    "z^3": (1, 3, g_power, None), "ab": (2, 2, g_product, None),
    "purity": (3, 2, g_purity, None), "sub-purity": (4, 3, g_sub_purity, 3),
    "sub-square": (2, 3, g_sub_square, 1),
    "abc": (3, 3, g_triple_product, None),
}


ORACLE_FIELDS = {"q101": Field(101), "m61": FM, "q80bit": field_at_least(1 << 79)}
ORACLE_C_A = (1, 2, 3, 5, 8)


def oracle_cases(family, c_a, field):
    """(params, [three random vector lists]) of one oracle case."""
    vectors, degree, make, gate = G_FAMILIES[family]
    g = make(field, degree) if make is g_power else make(field)
    c_v = 3
    p = DenseParams(field, c_a * c_v, c_a, c_v, vectors, degree, g,
                    (field.q - 1) // 2, gate=gate)
    rng = random.Random(f"{family}-{c_a}-{field.q}")
    return p, [[{rng.randrange(p.universe): rng.randrange(1, field.q)
                 for _ in range(2 * c_a)} for _ in range(vectors)]
               for _ in range(3)]


@pytest.mark.parametrize("field", list(ORACLE_FIELDS.values()),
                         ids=list(ORACLE_FIELDS))
@pytest.mark.parametrize("c_a", ORACLE_C_A)
@pytest.mark.parametrize("family", list(G_FAMILIES))
def test_proof_matches_direct_oracle_for_every_g(family, c_a, field):
    # the proof's extension values carry C(p)^degree, which only a g
    # homogeneous of its declared degree turns into b(p)
    p, samples = oracle_cases(family, c_a, field)
    for vecs in samples:
        assert dense_prover_proof(vecs, p).values == direct_values(p, vecs)


# ------------------------------------------------------------- prove_all


def oracle_batch():
    """A DenseProver for every sample of every oracle case above."""
    batch = []
    for family in G_FAMILIES:
        for c_a in ORACLE_C_A:
            for field in ORACLE_FIELDS.values():
                p, samples = oracle_cases(family, c_a, field)
                for vecs in samples:
                    prover = DenseProver(p)
                    prover.vecs = [dict(v) for v in vecs]
                    batch.append(prover)
    return batch


@pytest.fixture
def forks(monkeypatch, fork_any_batch):
    """os.fork, counted: the list of pids it returned in this process, which
    forks for any batch with two proofs of work. After the test no child of
    this process is left, running or not."""
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


def proof_values(proofs):
    assert all(type(p) is DenseProof for p in proofs)
    return [(p.values, p.field_bits) for p in proofs]


def test_prove_all_is_the_serial_proofs(forks):
    batch = oracle_batch()
    want = proof_values([p.proof() for p in batch])
    assert proof_values(sumcheck.prove_all(batch)) == want
    # one child, where this process may fork at all
    assert len(forks) == sumcheck._can_fork()


@pytest.mark.parametrize("fail", ["fork-refused", "child-raises",
                                  "child-truncated-bytes", "child-short-list"])
def test_prove_all_survives_a_failed_child(fail, forks, monkeypatch):
    # marshal.dumps runs in the child alone; whatever goes wrong there,
    # the parent makes the child's proofs itself
    batch = oracle_batch()
    want = proof_values([p.proof() for p in batch])
    dumps = marshal.dumps
    if fail == "fork-refused":
        def refuse():
            raise BlockingIOError(11, "Resource temporarily unavailable")
        monkeypatch.setattr(os, "fork", refuse)
    elif fail == "child-raises":
        def boom(values):
            raise MemoryError
        monkeypatch.setattr(marshal, "dumps", boom)
    elif fail == "child-truncated-bytes":
        monkeypatch.setattr(marshal, "dumps", lambda v: dumps(v)[:-5])
    else:
        monkeypatch.setattr(marshal, "dumps", lambda v: dumps(v[:-1]))
    assert proof_values(sumcheck.prove_all(batch)) == want
    forked = sumcheck._can_fork() and fail != "fork-refused"
    assert len(forks) == forked


def test_prove_all_reaps_the_child_when_the_parent_raises(forks, monkeypatch):
    parent = os.getpid()
    real = DenseProver.proof

    def proof(self):
        if os.getpid() == parent:
            raise KeyError("parent")
        return real(self)

    batch = oracle_batch()
    monkeypatch.setattr(DenseProver, "proof", proof)
    with pytest.raises(KeyError, match="parent"):
        sumcheck.prove_all(batch)
    assert len(forks) == sumcheck._can_fork()


def test_prove_all_stays_serial_below_its_cutoff(monkeypatch):
    # the oracle batch is far too small to pay for a fork
    batch = oracle_batch()
    assert sum(map(sumcheck._proof_work, batch)) < sumcheck._FORK_MIN_WORK
    monkeypatch.delattr(os, "fork")  # a call would raise AttributeError
    monkeypatch.setattr(sumcheck, "_can_fork", lambda: True)
    assert (proof_values(sumcheck.prove_all(batch))
            == proof_values([p.proof() for p in batch]))


def test_prove_all_stays_serial_with_a_thread_or_one_proof(forks):
    batch = oracle_batch()
    want = proof_values([p.proof() for p in batch])
    heavy = max(batch, key=sumcheck._proof_work)
    idle = [p for p in batch if not sumcheck._proof_work(p)]
    assert sumcheck._proof_work(heavy) and idle
    # one proof with work, alone or among proofs with none
    for alone in ([heavy], [heavy, *idle]):
        assert (proof_values(sumcheck.prove_all(alone))
                == proof_values([p.proof() for p in alone]))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert proof_values(sumcheck.prove_all(batch)) == want
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []


def test_ext_grid_budget_evicts_the_other_grids(monkeypatch, rng):
    cache = {}
    monkeypatch.setattr(sumcheck, "_EXT_CACHE", cache)
    small = params_for(64, 8, 8, 1, 2, g_power(FM, 2), 10 ** 9)
    large = params_for(64, 16, 4, 1, 2, g_power(FM, 2), 10 ** 9)
    vecs = [{rng.randrange(64): rng.randrange(1, 9) for _ in range(6)}]
    want = {p.c_a: dense_prover_proof(vecs, p).values for p in (small, large)}
    assert set(cache) == {(FM.q, 8), (FM.q, 16)}
    # room for either grid, not for both: each build evicts the other
    monkeypatch.setattr(sumcheck, "_EXT_BUDGET",
                        max(g.nbytes for g in cache.values()))
    for p in (small, large, small):
        assert dense_prover_proof(vecs, p).values == want[p.c_a]
        assert set(cache) == {(FM.q, p.c_a)}


def test_oversized_extension_grid_refused_when_built():
    field = Field(M61)
    # c_a x (proof_len - c_a) limbs: 16384 x 16383 x 18 bytes, about 4.8 GB
    big = DenseParams(field, 16384, 16384, 1, 1, 2, g_power(field, 2), 1)
    with pytest.raises(ConfigError, match=f"c_a=16384 needs {16384 * 16383 * 18} bytes"):
        DenseProver(big)
    DenseProver(DenseParams(field, 1024, 1024, 1, 1, 2, g_power(field, 2), 1))


# ------------------------------------------------------- gated instances


def gated_vecs(rng, universe, c_v, z_cols):
    """u, v, w nonzero at a random cell of every column and at a few more;
    marks z at one cell of each column in z_cols only."""
    def cells(cols):
        return [rng.randrange(universe // c_v) * c_v + y for y in cols]

    vecs = [{i: rng.randrange(1, 50)
             for i in cells(range(c_v)) + rng.sample(range(universe), 6)}
            for _ in range(3)]
    vecs.append({i: rng.randrange(1, 4) for i in cells(z_cols)})
    return vecs


@pytest.mark.parametrize("z_cols", [(), (0, 1, 2, 3), (0, 2, 3)],
                         ids=["no-live-column", "all-live", "dead-column-1"])
def test_gated_proof_matches_direct_extension_oracle(z_cols, rng):
    universe, c_a, c_v = 24, 6, 4
    p = params_for(universe, c_a, c_v, 4, 3, g_sub_purity(FM), 10 ** 15, gate=3)
    for _ in range(5):
        vecs = gated_vecs(rng, universe, c_v, z_cols)
        proof = dense_prover_proof(vecs, p)
        assert proof.values == direct_values(p, vecs)
        if not z_cols:
            assert proof.values == [0] * p.proof_len
        st = DenseVerifier(p, random.Random(rng.random()))
        for j, vec in enumerate(vecs):
            for item, v in vec.items():
                st.update(j, item, v)
        assert st.verify(proof, "dense") == sum(
            vecs[3].get(i, 0) * (vecs[1].get(i, 0) ** 2
                                 - vecs[0].get(i, 0) * vecs[2].get(i, 0))
            for i in range(universe))


def test_degree_two_proof_reads_a_prefix_of_a_grown_grid(monkeypatch, rng):
    monkeypatch.setattr(sumcheck, "_EXT_CACHE", {})
    field = Field(10007)
    universe, c_a, c_v = 35, 7, 5
    p3 = DenseParams(field, universe, c_a, c_v, 2, 3, g_sub_square(field),
                     5000, gate=1)
    p2 = DenseParams(field, universe, c_a, c_v, 2, 2, g_product(field), 5000)
    vecs = [{i: rng.randrange(1, 9) for i in rng.sample(range(universe), 12)}
            for _ in range(2)]
    assert dense_prover_proof(vecs, p3).values == direct_values(p3, vecs)
    grid = sumcheck._EXT_CACHE[(field.q, c_a)]
    assert grid.s == p3.proof_len > p2.proof_len
    assert len(grid.segments) == 2
    # a degree-2 proof reads segment 0 only: garbage in segment 1, every
    # limb set, leaves its values the oracle's
    ones = (1 << 8 * grid.seg_len * grid.limb_bytes) - 1
    grid.segments[1] = [ones] * c_a
    assert dense_prover_proof(vecs, p2).values == direct_values(p2, vecs)
    assert grid.nbytes == c_a * (p3.proof_len - c_a) * grid.limb_bytes


def test_gate_validation():
    with pytest.raises(ConfigError, match="not a vector index"):
        params_for(16, 4, 4, 4, 3, g_sub_purity(FM), 100, gate=4)
    with pytest.raises(ConfigError, match="not a vector index"):
        params_for(16, 4, 4, 4, 3, g_sub_purity(FM), 100, gate=-1)
    with pytest.raises(ConfigError, match="not a vector index"):
        params_for(16, 4, 4, 4, 3, g_sub_purity(FM), 100, gate=True)
    # g = z * (v^2 - u*w) does not vanish where u does
    with pytest.raises(ConfigError, match="where the gate vector does"):
        params_for(16, 4, 4, 4, 3, g_sub_purity(FM), 100, gate=0)
    with pytest.raises(ConfigError, match="where the gate vector does"):
        params_for(16, 4, 4, 3, 2, g_purity(FM), 100, gate=1)
    for gate in range(3):  # every factor of a * b * z gates it
        params_for(16, 4, 4, 3, 3, g_triple_product(FM), 100, gate=gate)


@pytest.mark.parametrize("run, want_gates", [
    (fk_ama_mode, {1, 2}), (fk_online_run, {1, 3}), (fk_footprint_mode, {1, 3}),
], ids=["ama", "strict", "footprint"])
def test_gated_stage_proofs_equal_ungated(run, want_gates, monkeypatch, rng):
    # without os.fork every proof is made in this process, where the
    # patched proof below sees it
    monkeypatch.delattr(os, "fork")
    real = DenseProver.proof
    gates = []

    def checked(self):
        proof = real(self)
        if self.params.gate is not None:
            plain = DenseProver(replace(self.params, gate=None))
            plain.vecs = self.vecs
            assert proof.values == real(plain).values
            gates.append(self.params.gate)
        return proof

    monkeypatch.setattr(DenseProver, "proof", checked)
    n = 1 << 12
    ups = strict_stream(rng, n, 60)
    r = run(ups, n, 2, 4, seed=3)
    assert r.value == moment_oracle(ups, 2)
    assert set(gates) == want_gates


# ------------------------------------------------------ verifier Lagrange row


def closed_form_row(field, c, r):
    """L_x(r) = C(r) * w_x / (r - x) for r off {0, ..., c-1}, from r and the
    public weights w_x = (-1)^(c-1-x) / (x! (c-1-x)!)."""
    q = field.q
    big_c = 1
    for k in range(c):
        big_c = big_c * (r - k) % q
    row = []
    for x in range(c):
        w = (-1) ** (c - 1 - x) * pow(factorial(x) * factorial(c - 1 - x), q - 2, q)
        row.append(big_c * w * pow(r - x, q - 2, q) % q)
    return row


@pytest.mark.parametrize("field", [Field(101), FM], ids=["q101", "m61"])
@pytest.mark.parametrize("c_a", [1, 2, 5, 16])
def test_verifier_row_is_the_closed_form_lagrange_row(field, c_a):
    p = DenseParams(field, c_a, c_a, 1, 1, 1, g_power(field, 1), 10)
    for seed in range(20):
        st = DenseVerifier(p, random.Random(seed))
        if st.r < c_a:
            continue
        assert st.lrow == closed_form_row(field, c_a, st.r)
    for r in range(c_a):  # on the grid the row is the unit vector at r
        st = DenseVerifier(p, FixedPoint(r))
        assert st.lrow == [int(x == r) for x in range(c_a)]
