import random
from dataclasses import replace
from math import factorial

import pytest

from streamcert import sumcheck
from streamcert.field import Field, M61, field_at_least
from streamcert.moments import fk_ama_mode, fk_footprint_mode, fk_online_run
from streamcert.protocol import ConfigError
from streamcert.purity import (AmaPurity, ama_params, draw_public_coins,
                              purity_deltas)
from streamcert.sumcheck import (DenseParams, DenseProof, DenseProver,
                                 DenseVerifier, g_power, g_product, g_purity,
                                 g_sub_purity, g_sub_square, g_triple_product,
                                 lane_bank, prop1_min_field, _EXT_CACHE,
                                 _ExtGrid)

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
    assert st.verify(proof) == 0


def test_single_column_constant_polynomial():
    # c_a = 1: b(X) is the constant F
    p = params_for(4, 1, 4, 1, 2, g_power(FM, 2), 1000)
    f = [1, 2, 3, 4]
    proof = dense_prover_proof([f], p)
    assert len(proof.values) == 1
    st = DenseVerifier(p, random.Random(7))
    for i, v in enumerate(f):
        st.update(0, i, v)
    assert st.verify(proof) == 30


def test_spec_square_example():
    p = params_for(4, 2, 2, 1, 2, g_power(FM, 2), 1000)
    f = [1, 2, 3, 4]
    st = DenseVerifier(p, random.Random(3))
    for i, v in enumerate(f):
        st.update(0, i, v)
    proof = dense_prover_proof([f], p)
    assert sum(proof.values[:2]) % FM.q == 30
    assert st.verify(proof) == 30


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
    assert st.verify(dense_prover_proof([a, b], p)) == 0


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


def _bank_cases(rng, terms_of):
    """(buckets, delta, terms) per bank call: random ones, bucket 0 and the
    last bucket in every lane, negative deltas, and a call undone by its
    negation, whose terms cancel."""
    cases = []
    for _ in range(30):
        item, delta = rng.randrange(40), rng.randrange(-5, 6)
        cases.append(([rng.randrange(16) for _ in range(LANES)], delta,
                      terms_of(item, delta)))
    cases.append(([0] * LANES, -4, terms_of(7, -4)))
    cases.append(([15] * LANES, 3, terms_of(9, 3)))
    undone = [rng.randrange(16) for _ in range(LANES)]
    cases.append((undone, 6, terms_of(11, 6)))
    cases.append((undone, -6, terms_of(11, -6)))
    return cases


def _separately(lanes, buckets, delta, terms):
    for b, (count, j, sink) in zip(buckets, lanes):
        count.update(j, b, delta)
        sink.add_purity(b, terms)


def test_lane_bank_matches_separate_calls(monkeypatch, rng):
    # verifier lanes over two fields take the fused loop, which makes no
    # update or add_purity call, and leave the rows those calls leave
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
    add = lane_bank(fused)
    for case in cases:
        add(*case)
    for (c1, _, s1), (c2, _, s2) in zip(fused, plain):
        assert (c1.rows, s1.rows) == (c2.rows, s2.rows)
    assert any(row != [0] * 4 for c, _, s in fused for row in c.rows + s.rows)


def test_lane_bank_over_provers_and_ama_sinks(rng):
    # any other lane makes the update and add_purity calls: prover lanes,
    # whose cancelled cells leave no entry, and verifier counts with AMA
    # purity sinks, whose terms are (item, count)
    def prover_lanes():
        return [(DenseProver(COUNT_P), 0, DenseProver(PURITY_P))
                for _ in range(LANES)]

    fused, plain = prover_lanes(), prover_lanes()
    add = lane_bank(fused)
    for case in _bank_cases(rng, lambda i, d: purity_deltas(F80, i, d)):
        add(*case)
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
    add = lane_bank(fused)
    for case in _bank_cases(rng, lambda i, d: (i, d)):
        add(*case)
        _separately(plain, *case)
    for (c1, _, s1), (c2, _, s2) in zip(fused, plain):
        assert (c1.rows, s1.dense.rows) == (c2.rows, s2.dense.rows)


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
        got = st.verify(dense_prover_proof(vecs, p))

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
        if st.verify(DenseProof(values, proof.field_bits)) is not None:
            accepts += 1
    assert accepts == 0


def test_degree_violation_rejected():
    p = params_for(4, 2, 2, 1, 2, g_power(FM, 2), 1000)
    f = [1, 2, 3, 4]
    st = DenseVerifier(p, random.Random(3))
    for i, v in enumerate(f):
        st.update(0, i, v)
    proof = dense_prover_proof([f], p)
    long_proof = DenseProof(proof.values + [0], proof.field_bits)
    assert st.verify(long_proof) is None


def test_output_bound_enforced():
    p = params_for(4, 2, 2, 1, 2, g_power(FM, 2), bound=10)
    f = [1, 2, 3, 4]  # F = 30 > bound
    st = DenseVerifier(p, random.Random(3))
    for i, v in enumerate(f):
        st.update(0, i, v)
    assert st.verify(dense_prover_proof([f], p)) is None


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
        assert st.verify(proof) == 9


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
    ext = s - c_a
    assert len(grid.pack) == c_a
    for x, col in enumerate(grid.pack):
        want = [lagrange_basis_at(field, c_a, x, c_a + e) for e in range(ext)]
        assert grid.unpack(col, ext) == want
        assert col == packed(want, grid.limb_bytes)  # limbs already reduced


def test_ext_grid_grows_to_a_fresh_build():
    grown = _ExtGrid(FM, 8)
    grown.ensure(12)
    grown.ensure(22)
    fresh = _ExtGrid(FM, 8)
    fresh.ensure(22)
    assert grown.pack == fresh.pack and grown.s == fresh.s == 22
    grown.ensure(15)  # never shrinks
    assert grown.pack == fresh.pack and grown.s == 22


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
        assert st.verify(proof) == sum(
            vecs[3].get(i, 0) * (vecs[1].get(i, 0) ** 2
                                 - vecs[0].get(i, 0) * vecs[2].get(i, 0))
            for i in range(universe))


def test_degree_two_proof_reads_a_prefix_of_a_grown_grid(rng):
    field = Field(10007)
    universe, c_a, c_v = 35, 7, 5
    p3 = DenseParams(field, universe, c_a, c_v, 2, 3, g_sub_square(field),
                     5000, gate=1)
    p2 = DenseParams(field, universe, c_a, c_v, 2, 2, g_product(field), 5000)
    vecs = [{i: rng.randrange(1, 9) for i in rng.sample(range(universe), 12)}
            for _ in range(2)]
    assert dense_prover_proof(vecs, p3).values == direct_values(p3, vecs)
    grid = _EXT_CACHE[(field.q, c_a)]
    assert grid.s >= p3.proof_len > p2.proof_len
    assert len(grid.slices) == grid.s - c_a
    assert dense_prover_proof(vecs, p2).values == direct_values(p2, vecs)


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
