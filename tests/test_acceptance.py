"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantity next to its required tolerance. Run with `pytest -s`
to see the lines."""

import itertools
import math
import random
import time

from streamcert.field import Field, M61
from streamcert.graphs import count_triangles_run, triple_universe
from streamcert.graphs import verify_connectivity, verify_non_bipartite, verify_perfect_matching
from streamcert.harness import adversary, synthetic_stream
from streamcert.moments import (disj_online_run, disj_prescient_run,
                                fk_online_run, multiindex_run)
from streamcert.pointqueries import pq_run
from streamcert.protocol import Reject
from streamcert.purity import ama_injection_run, injection_run, subinjection_run
from streamcert.streams import BucketedUpdate, StreamUpdate, compute_meta
from streamcert.sumcheck import (DenseParams, DenseProof, DenseVerifier,
                                 g_power, g_product)

from conftest import (dense_prover_proof, freq_oracle, moment_oracle,
                      strict_stream)


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_dense_exactness():
    """1000 random streams, n <= 64, g in {z^2, z^3, z1*z2}: perfect
    completeness, exact values, under 10 seconds."""
    fm = Field(M61)
    rng = random.Random(101)
    start = time.perf_counter()
    rejections = mismatches = 0
    for trial in range(1000):
        n = rng.randrange(2, 65)
        c_a = rng.choice([1, 2, 4, 8])
        c_v = -(-n // c_a)
        kind = trial % 3
        if kind == 0:
            vectors, degree, g = 1, 2, g_power(fm, 2)
            g_int = lambda v: v[0] ** 2
        elif kind == 1:
            vectors, degree, g = 1, 3, g_power(fm, 3)
            g_int = lambda v: v[0] ** 3
        else:
            vectors, degree, g = 2, 2, g_product(fm)
            g_int = lambda v: v[0] * v[1]
        params = DenseParams(fm, n, c_a, c_v, vectors, degree, g, 10 ** 12)
        vecs = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(vectors)]
        st = DenseVerifier(params, random.Random(trial))
        for j, vec in enumerate(vecs):
            for i, v in enumerate(vec):
                if v:
                    st.update(j, i, v)
        want = sum(g_int([vec[i] for vec in vecs]) for i in range(n))
        try:
            got = st.verify(dense_prover_proof(vecs, params), "dense")
        except Reject:
            rejections += 1
        else:
            mismatches += got != want
    elapsed = time.perf_counter() - start
    report(1, rejections == 0 and mismatches == 0 and elapsed < 10.0,
           f"1000 honest dense runs: {rejections} rejections, "
           f"{mismatches} mismatches, {elapsed:.1f}s (< 10s)")


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_dense_soundness():
    """500 tampered proofs at q = 2^61 - 1: zero acceptances."""
    fm = Field(M61)
    rng = random.Random(202)
    params = DenseParams(fm, 32, 8, 4, 1, 2, g_power(fm, 2), 10 ** 9)
    f = [rng.randrange(0, 6) for _ in range(32)]
    honest = dense_prover_proof([f], params)
    accepts = 0
    for trial in range(500):
        st = DenseVerifier(params, random.Random(70_000 + trial))
        for i, v in enumerate(f):
            if v:
                st.update(0, i, v)
        values = list(honest.values)
        values[rng.randrange(len(values))] += rng.randrange(1, fm.q)
        try:
            st.verify(DenseProof(values, honest.field_bits), "dense")
        except Reject:
            pass
        else:
            accepts += 1
    report(2, accepts == 0, f"500 tampered dense proofs at q=2^61-1: "
                            f"{accepts} accepted (required 0)")


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_pointquery_completeness():
    """200 seeded honest runs at m=1000, c_a=c_v=32: acceptance >= 0.8."""
    rng = random.Random(303)
    accepted = 0
    runs = 200
    for t in range(runs):
        ups = synthetic_stream(1000, 1 << 20, 9000 + t)
        items = [u.item for u in ups]
        query = rng.choice(items)
        r = pq_run(ups, 1 << 20, query, c_a=32, c_v=32, seed=t)
        if r.accepted:
            assert r.value == freq_oracle(ups)[query]
            accepted += 1
    rate = accepted / runs
    report(3, rate >= 0.8, f"point-query honest acceptance {rate:.3f} (>= 0.8)")


# ---------------------------------------------------------------- criterion 4


def _purity_oracle(updates):
    pairs = {}
    for t in updates:
        pairs[(t.item, t.bucket)] = pairs.get((t.item, t.bucket), 0) + t.delta
    buckets = {}
    for (j, b), c in pairs.items():
        if c > 0:
            buckets.setdefault(b, set()).add(j)
    return {b: len(s) <= 1 for b, s in buckets.items()}


def test_criterion_4_injection_correctness():
    """Exhaustive purity-identity and tiny-stream agreement, plus 1000 random
    larger instances: zero discrepancies."""
    # per-bucket identity, every count vector in {0..3}^8
    for counts in itertools.product(range(4), repeat=8):
        u = sum(counts)
        v = sum(c * j for j, c in enumerate(counts))
        w = sum(c * j * j for j, c in enumerate(counts))
        pure = sum(1 for c in counts if c > 0) <= 1
        assert v * v <= u * w and (v * v == u * w) == pure
    # full scheme, exhaustive over tiny shapes
    checked = 0
    for n, r in ((2, 2), (3, 2), (2, 3)):
        cells = list(itertools.product(range(n), range(r)))
        for counts in itertools.product(range(4), repeat=len(cells)):
            ups = [BucketedUpdate(j, b, c) for (j, b), c in zip(cells, counts) if c]
            oracle = _purity_oracle(ups)
            want = 1 if all(oracle.values()) else 0
            assert injection_run(ups, n, r, seed=checked).value == want
            checked += 1
    # random larger instances, injection and subinjection
    rng = random.Random(404)
    bad = 0
    for trial in range(1000):
        n, r = 64, 8
        ups = [BucketedUpdate(rng.randrange(n), rng.randrange(r),
                              rng.randrange(1, 4))
               for _ in range(rng.randrange(1, 30))]
        oracle = _purity_oracle(ups)
        if trial % 2 == 0:
            want = 1 if all(oracle.values()) else 0
            got = injection_run(ups, n, r, seed=trial).value
        else:
            marked = rng.sample(range(r), rng.randrange(0, 4))
            want = 1 if all(oracle.get(b, True) for b in marked) else 0
            got = subinjection_run(ups, [(b, 1) for b in marked], n, r,
                                   seed=trial).value
        if got != want:
            bad += 1
    report(4, bad == 0, f"exhaustive purity identity (4^8 vectors), "
                        f"{checked} exhaustive tiny schemes, 1000 random "
                        f"instances: {bad} discrepancies (required 0)")


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_ama_cancellation_detection():
    """The bucket (items 1,2,3; counts 2,8,-1) satisfies v^2 = u*w yet is
    impure; the public-coin check rejects >= 499/500 while the integer
    identity alone passes it."""
    u = 2 + 8 - 1
    v = 1 * 2 + 2 * 8 + 3 * (-1)
    w = 1 * 2 + 4 * 8 + 9 * (-1)
    assert (u, v, w) == (9, 15, 25) and v * v == 225 == u * w
    ups = [BucketedUpdate(1, 2, 2), BucketedUpdate(2, 2, 8),
           BucketedUpdate(3, 2, -1)]
    fooled = injection_run(ups, 4, 4, seed=1).value
    rejected = sum(1 for s in range(500)
                   if ama_injection_run(ups, 4, 4, coins_seed=s, seed=s).value == 0)
    report(5, fooled == 1 and rejected >= 499,
           f"integer identity fooled (returned {fooled}); public-coin check "
           f"rejected {rejected}/500 (required >= 499)")


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_online_fk_end_to_end():
    """300 random strict streams (m <= 2000, n = 2^20, k in {2,3},
    c_v in {4,16,64}): accepting runs exact, completion >= 2/3, and a
    wrong-frequency adversary accepted 0/500."""
    n = 1 << 20
    caps = {4: 400, 16: 1200, 64: 2000}
    cells = [(k, c_v) for k in (2, 3) for c_v in (4, 16, 64)]
    completed = mismatches = runs = 0
    for idx in range(300):
        k, c_v = cells[idx % len(cells)]
        rng = random.Random(6000 + idx)
        lo, hi = 30, caps[c_v]
        m = int(math.exp(rng.uniform(math.log(lo), math.log(hi))))
        ups = strict_stream(rng, n, m)
        r = fk_online_run(ups, n, k, c_v, seed=idx)
        runs += 1
        if r.accepted:
            completed += 1
            if r.value != moment_oracle(ups, k):
                mismatches += 1
    rate = completed / runs
    rng = random.Random(606)
    ups = strict_stream(rng, n, 80, churn=0.0)
    adv_accepts = 0
    for t in range(500):
        r = fk_online_run(ups, n, 2, 4, seed=t,
                          prover=adversary("false-collision-list", t))
        if r.accepted:
            adv_accepts += 1
    report(6, mismatches == 0 and rate >= 2 / 3 and adv_accepts == 0,
           f"300 online Fk runs: 0 required mismatches (got {mismatches}), "
           f"completion {rate:.3f} (>= 0.667), wrong-frequency adversary "
           f"accepted {adv_accepts}/500 (required 0)")


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_cost_scaling():
    """hcost(m) fit over m in {256, 1024, 4096} at c_v=16 has exponent in
    [0.8, 1.2]; vcost(c_v=64)/vcost(c_v=16) in [2, 6]."""
    n = 1 << 20
    hcost = {}
    for m in (256, 1024, 4096):
        ups = synthetic_stream(m, n, 7000 + m)
        for attempt in range(6):
            r = fk_online_run(ups, n, 2, 16, seed=7100 + 7 * m + attempt)
            if r.accepted:
                hcost[m] = r.cost.hcost_bits
                break
        assert m in hcost, f"no accepting run at m={m}"
    exponent = math.log(hcost[4096] / hcost[256]) / math.log(4096 / 256)
    vcost = {}
    ups = synthetic_stream(1024, n, 7777)
    for c_v in (16, 64):
        r = fk_online_run(ups, n, 2, c_v, seed=7200 + c_v)
        assert r.accepted
        vcost[c_v] = r.cost.vcost_words
    ratio = vcost[64] / vcost[16]
    report(7, 0.8 <= exponent <= 1.2 and 2 <= ratio <= 6,
           f"hcost exponent {exponent:.3f} (in [0.8, 1.2]), "
           f"vcost ratio {ratio:.2f} (in [2, 6])")


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_sparse_disjointness():
    """500 instance pairs (half disjoint, half intersecting, m <= 500):
    prescient and online match the oracle; adversaries never get a false
    'disjoint'."""
    n = 1 << 20
    wrong = incomplete = 0
    for idx in range(500):
        rng = random.Random(8000 + idx)
        m = int(math.exp(rng.uniform(math.log(8), math.log(500))))
        sa = rng.sample(range(n), m)
        if idx % 2 == 0:
            sb = rng.sample(range(n), m)
            while set(sa) & set(sb):
                sb = rng.sample(range(n), m)
        else:
            sb = rng.sample(sa, max(1, m // 3)) + rng.sample(range(n), m // 2)
        want = 1 if not (set(sa) & set(sb)) else 0
        ups = [(0, StreamUpdate(i, 1)) for i in sa] + \
              [(1, StreamUpdate(i, 1)) for i in sb]
        rp = disj_prescient_run(ups, n, seed=idx)
        ro = disj_online_run(ups, n, 16, seed=idx)
        for r in (rp, ro):
            if r.accepted:
                if r.value != want:
                    wrong += 1
            else:
                incomplete += 1
    # adversarial: intersecting inputs must never be certified disjoint
    false_disjoint = 0
    rng = random.Random(808)
    sa = rng.sample(range(n), 60)
    sb = rng.sample(sa, 20) + rng.sample(range(n), 40)
    ups = [(0, StreamUpdate(i, 1)) for i in sa] + \
          [(1, StreamUpdate(i, 1)) for i in sb]
    for t in range(100):
        rp = disj_prescient_run(ups, n, seed=t,
                                prover=adversary("tamper-proof-polynomial", t))
        ro = disj_online_run(ups, n, 8, seed=t,
                             prover=adversary("false-collision-list", t))
        for r in (rp, ro):
            if r.accepted and r.value == 1:
                false_disjoint += 1
    report(8, wrong == 0 and false_disjoint == 0 and incomplete <= 150,
           f"500 disjointness pairs x 2 modes: {wrong} wrong verdicts, "
           f"{incomplete} incomplete, adversarial false-disjoint "
           f"{false_disjoint}/200 (required 0)")


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_triangles():
    """200 random graphs with n <= 40 match brute force; K4 counts 4."""
    from itertools import combinations
    k4 = [(u, v, 1) for u, v in combinations(range(4), 2)]
    r = count_triangles_run(k4, 4, 8, seed=0)
    assert r.accepted and r.value == 4
    wrong = incomplete = 0
    for idx in range(200):
        rng = random.Random(9000 + idx)
        n = rng.randrange(4, 41)
        p = min(1.0, 2.5 / n) if idx % 3 else 0.5 if n <= 12 else 2.5 / n
        edges = [(u, v, 1) for u, v in combinations(range(n), 2)
                 if rng.random() < p]
        if not edges:
            continue
        es = {(u, v) for u, v, _ in edges}
        want = sum(1 for a, b, c in combinations(range(n), 3)
                   if {(a, b), (a, c), (b, c)} <= es)
        r = count_triangles_run(edges, n, 64, seed=idx)
        if not r.accepted:
            incomplete += 1
        elif r.value != want:
            wrong += 1
    report(9, wrong == 0 and incomplete <= 60,
           f"K4 -> 4; 200 random graphs: {wrong} wrong counts (required 0), "
           f"{incomplete} incomplete")


# --------------------------------------------------------------- criterion 10


def test_criterion_10_graph_relaxed_schemes():
    """Planted witnesses all accepted; 500 adversarial witnesses (fake edge,
    short tree, even cycle) all rejected."""
    from itertools import combinations
    planted_fail = 0
    planted_runs = 0
    for idx in range(20):
        rng = random.Random(10_000 + idx)
        # matching
        half = rng.randrange(2, 7)
        matching = [(i, half + i) for i in range(half)]
        extra = [(u, half + v, 1) for u in range(half) for v in range(half)
                 if rng.random() < 0.3]
        edges = sorted({(u, v, 1) for u, v in matching} | set(extra))
        planted_runs += 1
        if not verify_perfect_matching(edges, 2 * half, matching, seed=idx).accepted:
            planted_fail += 1
        # connectivity: random connected graph with its BFS tree
        nv = rng.randrange(4, 12)
        gedges = [(u, v, 1) for u, v in combinations(range(nv), 2)
                  if rng.random() < 0.7]
        adj = {}
        for u, v, _ in gedges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        seen, tree, frontier = {0}, [], [0]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj.get(x, ()):
                    if y not in seen:
                        seen.add(y)
                        tree.append((y, x))
                        nxt.append(y)
            frontier = nxt
        if len(seen) == nv:
            planted_runs += 1
            if not verify_connectivity(gedges, nv, (0, tree), seed=idx).accepted:
                planted_fail += 1
        # odd cycle
        cyc = [0, 1, 2, 3, 4, 0]
        cedges = sorted({(min(a, b), max(a, b)) for a, b in zip(cyc, cyc[1:])})
        planted_runs += 1
        if not verify_non_bipartite([(u, v, 1) for u, v in cedges], 5, cyc,
                                    seed=idx).accepted:
            planted_fail += 1

    accepted_adversarial = 0
    half = 4
    matching = [(i, half + i) for i in range(half)]
    medges = [(u, v, 1) for u, v in matching]
    star = [(0, i, 1) for i in range(1, 7)]
    tree_witness = (0, [(0, i) for i in range(1, 7)])
    c5 = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (0, 4, 1)]
    for t in range(167):
        if verify_perfect_matching(medges, 2 * half, matching, seed=t,
                                   prover=adversary("fake-witness", t)).accepted:
            accepted_adversarial += 1
        if verify_connectivity(star, 7, tree_witness, seed=t,
                               prover=adversary("fake-witness", t)).accepted:
            accepted_adversarial += 1
        if verify_non_bipartite(c5, 5, [0, 1, 2, 3, 4, 0], seed=t,
                                prover=adversary("fake-witness", t)).accepted:
            accepted_adversarial += 1
    report(10, planted_fail == 0 and accepted_adversarial == 0,
           f"{planted_runs} planted witnesses all accepted "
           f"({planted_fail} failures); 501 adversarial witnesses accepted "
           f"{accepted_adversarial} times (required 0)")


# --------------------------------------------------------------- criterion 11


def test_criterion_11_multiindex_stage_budget():
    """Honest runs with l=100 claims at c_v=16 resolve within
    ceil(log16 100) + 3 = 5 stages for >= 2/3 of seeds."""
    budget = math.ceil(math.log(100, 16)) + 3
    assert budget == 5
    n = 1 << 20
    within = runs = 0
    for seed in range(30):
        rng = random.Random(11_000 + seed)
        ups = strict_stream(rng, n, 400, churn=0.0)
        freq = freq_oracle(ups)
        claims = [(i, freq[i]) for i in sorted(freq)[:100]]
        r = multiindex_run(ups, n, claims, 16, seed=seed)
        if r.rejected or r.value != 1:
            continue
        runs += 1
        if r.info.get("stages_used", 99) <= budget:
            within += 1
    rate = within / max(1, runs)
    report(11, runs >= 20 and rate >= 2 / 3,
           f"multiindex l=100, c_v=16: {within}/{runs} runs resolved within "
           f"{budget} stages ({rate:.2f} >= 0.667)")
