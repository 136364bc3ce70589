import random
from itertools import combinations

import pytest

from streamcert import moments, streams, sumcheck
from streamcert.graphs import (count_triangles_run, edge_universe, pair_rank,
                               triangle_derived_stream, triangles_from_moments,
                               triple_rank, triple_universe,
                               verify_connectivity, verify_non_bipartite,
                               verify_perfect_matching, witness_tree_records)
from streamcert.harness import adversary
from streamcert.moments import hamming_run, subset_run
from streamcert.protocol import ConfigError, CostReport, RelaxedOutcome
from streamcert.streams import (STRICT, ModelViolation, StreamUpdate as U,
                                compute_meta)

from conftest import rewrite_chunk

# a triangle with a pendant edge, and a perfect matching {0, 1}, {2, 3}
GRAPH = [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1)]


def random_graph(rng, n, p):
    return [(u, v, 1) for u, v in combinations(range(n), 2) if rng.random() < p]


def brute_triangles(edges, n):
    es = {(u, v) for u, v, _ in edges}
    return sum(1 for a, b, c in combinations(range(n), 3)
               if {(a, b), (a, c), (b, c)} <= es)


def test_pair_and_triple_ranks_bijective():
    n = 12
    pairs = {pair_rank(u, v) for u, v in combinations(range(n), 2)}
    assert pairs == set(range(edge_universe(n)))
    triples = {triple_rank(a, b, c) for a, b, c in combinations(range(n), 3)}
    assert triples == set(range(triple_universe(n)))
    with pytest.raises(ValueError):
        pair_rank(3, 3)


def test_triangle_indicator_identity_exhaustive():
    # f(f-1)(f-2)/6 equals [f == 3] on the whole derived-frequency range
    for f in range(4):
        assert (f ** 3 - 3 * f ** 2 + 2 * f) // 6 == (1 if f == 3 else 0)
    assert triangles_from_moments(1, 1, 2) is None  # 2-3+2 = 1, not divisible


def test_triangle_trivial_graphs():
    k3 = [(0, 1, 1), (0, 2, 1), (1, 2, 1)]
    assert count_triangles_run(k3, 3, 4).value == 1
    assert count_triangles_run([(0, 1, 1), (1, 2, 1)], 3, 4).value == 0
    k4 = [(u, v, 1) for u, v in combinations(range(4), 2)]
    assert count_triangles_run(k4, 4, 4).value == 4


@pytest.mark.parametrize("n", [0, 1, 2])
def test_triangles_need_three_vertices(n):
    with pytest.raises(ConfigError, match="at least three vertices"):
        count_triangles_run([], n, 4)


def test_triangle_random_graphs_match_brute_force(rng):
    for trial in range(6):
        n = rng.randrange(4, 13)
        edges = random_graph(rng, n, 0.5)
        if not edges:
            continue
        r = count_triangles_run(edges, n, 16, seed=trial)
        if r.accepted:
            assert r.value == brute_triangles(edges, n)


def test_triangle_rejected_run_keeps_its_reject():
    k4 = [(u, v, 1) for u, v in combinations(range(4), 2)]
    for t in range(5):
        r = count_triangles_run(k4, 4, 4, seed=t,
                                prover=adversary("tamper-proof-polynomial", t))
        assert r.rejected and r.value is None


def test_triangles_check_the_edges_not_only_the_derived_stream():
    # the one triple's derived prefix counts are 1, 2, 1, 2, 3, never below
    # zero, while edge (0, 1) starts at -1
    edges = [(0, 2, 1), (1, 2, 1), (0, 1, -1), (0, 1, 1), (0, 1, 1)]
    derived = triangle_derived_stream(edges, 3)
    compute_meta(derived, triple_universe(3), STRICT)
    with pytest.raises(ModelViolation, match="item 0 dropped below zero"):
        count_triangles_run(edges, 3)


def test_triangle_derived_sparsity():
    n = 9
    edges = [(0, 1, 1), (2, 3, 1), (4, 5, 1)]
    derived = triangle_derived_stream(edges, n)
    meta = compute_meta(derived, triple_universe(n), STRICT)
    assert meta.sparsity == len(edges) * (n - 2)


def test_matching_trivial_and_planted(rng):
    r = verify_perfect_matching([(0, 1, 1)], 2, [(0, 1)])
    assert isinstance(r.outcome, RelaxedOutcome) and r.accepted
    # planted matching in a random bipartite graph
    half = 6
    matching = [(i, half + i) for i in range(half)]
    extra = [(u, half + v, 1) for u in range(half) for v in range(half)
             if rng.random() < 0.4]
    edges = sorted({(u, v, 1) for u, v in matching} | set(extra))
    r = verify_perfect_matching(edges, 2 * half, matching, seed=3)
    assert r.accepted


def test_matching_bad_witnesses_rejected(rng):
    edges = [(0, 1, 1), (2, 3, 1)]
    # omits vertices 2,3 / covers a vertex twice
    assert verify_perfect_matching(edges, 4, [(0, 1), (0, 1)]).rejected
    # wrong size
    assert verify_perfect_matching(edges, 4, [(0, 1)]).rejected
    # fake edge (not streamed)
    assert verify_perfect_matching(edges, 4, [(0, 2), (1, 3)], seed=1).rejected


def test_matching_fake_witness_strategy(rng):
    half = 4
    matching = [(i, half + i) for i in range(half)]
    edges = [(u, v, 1) for u, v in matching]
    for t in range(30):
        r = verify_perfect_matching(edges, 2 * half, matching, seed=t,
                                    prover=adversary("fake-witness", t))
        assert r.rejected


def bfs_tree(edges, n, root=0):
    adj = {}
    for u, v, _ in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen = {root}
    tree = []
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    tree.append((w, v))
                    nxt.append(w)
        frontier = nxt
    return tree if len(seen) == n else None


def test_connectivity_star_and_random(rng):
    star = [(0, i, 1) for i in range(1, 6)]
    r = verify_connectivity(star, 6, (0, [(0, i) for i in range(1, 6)]))
    assert r.accepted
    for trial in range(5):
        n = rng.randrange(4, 12)
        edges = random_graph(rng, n, 0.6)
        tree = bfs_tree(edges, n)
        if tree is None:
            continue
        r = verify_connectivity(edges, n, (0, tree), seed=trial)
        assert r.accepted


def test_connectivity_bad_witnesses_rejected():
    star = [(0, i, 1) for i in range(1, 6)]
    # too few edges: unusable witness gives bottom
    r = verify_connectivity(star, 6, (0, [(0, i) for i in range(1, 5)]))
    assert r.rejected and isinstance(r.outcome, RelaxedOutcome)
    assert r.cost == CostReport(0, 0, 0, 0.0)
    # spanning tree with a fake edge
    fake = (0, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5)])
    assert verify_connectivity(star, 6, fake, seed=2).rejected


def test_connectivity_disconnected_graph_unprovable():
    # component {3,4} unreachable from the root: no witness can span it, and
    # the mutual-parent forgery (3,4),(4,3) has no consistent depth order
    edges = [(0, 1, 1), (0, 2, 1), (3, 4, 1)]
    r = verify_connectivity(edges, 5, (0, [(0, 1), (0, 2), (3, 4), (4, 3)]))
    assert r.rejected


def test_connectivity_short_tree_strategy(rng):
    star = [(0, i, 1) for i in range(1, 6)]
    witness = (0, [(0, i) for i in range(1, 6)])
    for t in range(30):
        r = verify_connectivity(star, 6, witness, seed=t,
                                prover=adversary("fake-witness", t))
        assert r.rejected


def test_witness_tree_records_requires_spanning():
    with pytest.raises(ConfigError):
        witness_tree_records(4, 0, [(0, 1)])


def test_oddcycle_trivial_and_planted(rng):
    tri = [(0, 1, 1), (1, 2, 1), (0, 2, 1)]
    assert verify_non_bipartite(tri, 3, [0, 1, 2, 0]).accepted
    c4 = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)]
    assert verify_non_bipartite(c4, 4, [0, 1, 2, 3, 0]).rejected
    # plant a 5-cycle in a sparse random graph
    cyc = [3, 4, 5, 6, 7, 3]
    planted = {(min(a, b), max(a, b)) for a, b in zip(cyc, cyc[1:])}
    extra = {(0, 1), (1, 2)}
    edges = [(u, v, 1) for u, v in sorted(planted | extra)]
    assert verify_non_bipartite(edges, 8, cyc, seed=4).accepted


def test_oddcycle_bad_witnesses_rejected():
    tri = [(0, 1, 1), (1, 2, 1), (0, 2, 1)]
    assert verify_non_bipartite(tri, 3, [0, 1, 0]).rejected      # repeated edge? length 2, even
    assert verify_non_bipartite(tri, 3, [0, 1, 2]).rejected      # not closed
    path = [(0, 1, 1), (1, 2, 1)]
    assert verify_non_bipartite(path, 3, [0, 1, 2, 0], seed=5).rejected  # fake edge


def test_oddcycle_fake_witness_strategy():
    c5 = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (0, 4, 1)]
    for t in range(30):
        r = verify_non_bipartite(c5, 5, [0, 1, 2, 3, 4, 0], seed=t,
                                 prover=adversary("fake-witness", t))
        assert r.rejected



C5 = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (0, 4, 1)]


@pytest.mark.parametrize("run", [
    lambda: verify_perfect_matching([(0, 1, 1), (2, 3, 1), (1, 2, 1)], 4,
                                    [(0, 1), (2, 2)], c_v=4),
    lambda: verify_connectivity(C5, 5, (0, [(0, 1), (1, 2), (2, 3), (3, 3)])),
    lambda: verify_non_bipartite(C5, 5, [0, 1, 2, 3, 3, 0]),
], ids=["matching", "connectivity", "oddcycle"])
def test_self_loop_witness_refused(run):
    # the honest prover cannot map a self loop, so the run ends unconvinced
    # before the stream instead of raising, and costs nothing
    r = run()
    assert isinstance(r.outcome, RelaxedOutcome) and r.rejected
    assert r.cost == CostReport(0, 0, 0, 0.0)


@pytest.mark.parametrize("run", [
    lambda: verify_perfect_matching([(0, 1, 1), (2, 3, 1), (1, 2, 1)], 4,
                                    [(0, 1), (2, 9)], c_v=4),
    lambda: verify_connectivity([(0, i, 1) for i in range(1, 6)], 6,
                                (0, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5)]),
                                seed=2),
], ids=["matching", "connectivity"])
def test_rejected_graph_certificate_is_a_refusal(run):
    # a run the verifier rejects ends unconvinced, as an unusable witness
    # does, and keeps its costs
    r = run()
    assert isinstance(r.outcome, RelaxedOutcome) and r.rejected
    assert r.cost.hcost_bits > 0 and r.cost.vcost_words > 0


def test_grid_budget_refusal_is_a_config_error(monkeypatch):
    # a shape the dense prover refuses is no refused witness: the run
    # raises, as fk_online_run does, and does not end unconvinced
    monkeypatch.setattr(sumcheck, "_EXT_BUDGET", 1000)
    edges = [(0, 1, 1), (2, 3, 1), (4, 5, 1), (6, 7, 1), (1, 2, 1)]
    with pytest.raises(ConfigError, match="extension grid"):
        verify_perfect_matching(edges, 8, [(0, 1), (2, 3), (4, 5), (6, 7)], 2,
                                seed=1)


TRI = [(0, 1, 1), (1, 2, 1), (0, 2, 1)]
SQUARE = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)]
STAR = [(0, i, 1) for i in range(1, 4)]


@pytest.mark.parametrize("run, kind, fn", [
    (lambda **kw: verify_perfect_matching(SQUARE, 4, [(0, 1), (2, 3)], **kw),
     "matching-witness", lambda w: [e + (0,) for e in w]),
    (lambda **kw: verify_perfect_matching(SQUARE, 4, [(0, 1), (2, 3)], **kw),
     "matching-witness", lambda w: 7),
    (lambda **kw: verify_connectivity(STAR, 4, (0, [(0, 1), (0, 2), (0, 3)]), **kw),
     "tree-witness", lambda w: (0, [])),
    (lambda **kw: verify_connectivity(STAR, 4, (0, [(0, 1), (0, 2), (0, 3)]), **kw),
     "tree-witness", lambda w: (w[0], w[1][:-1] + [(3, 0)], w[2])),
    (lambda **kw: verify_non_bipartite(TRI, 3, [0, 1, 2, 0], **kw),
     "cycle-witness", lambda w: [str(v) for v in w]),
], ids=["matching-triples", "matching-int", "tree-pair", "tree-two-field-record",
        "cycle-strings"])
def test_malformed_graph_witness_rejected(run, kind, fn):
    assert run(seed=1).accepted
    assert run(seed=1, prover=rewrite_chunk(kind, fn)).rejected


@pytest.mark.parametrize("run", [
    lambda edges: verify_perfect_matching(edges, 4, [(0, 1), (2, 3)]),
    lambda edges: verify_connectivity(edges, 4, (2, [(2, 0), (2, 1), (2, 3)])),
    lambda edges: verify_non_bipartite(edges, 4, [0, 1, 2, 0]),
    lambda edges: count_triangles_run(edges, 4),
], ids=["matching", "connectivity", "oddcycle", "triangles"])
@pytest.mark.parametrize("edges, message", [
    # pair_rank(-1, 2) is pair_rank(0, 1): the edge {0, 1} was never streamed
    ([(-1, 2, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1)],
     r"vertex -1 of edge \(-1, 2\) outside \[0, 4\)"),
    ([(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 4, 1)],
     r"vertex 4 of edge \(2, 4\) outside \[0, 4\)"),
    # with Y not 0/1, X . Y == |X| no longer shows X inside Y
    ([(0, 1, 2), (1, 2, 1), (2, 3, 1)],
     r"edge \(0, 1\) has final count 2, not 0 or 1"),
], ids=["vertex-negative", "vertex-n", "repeated-edge"])
def test_graph_runs_refuse_a_stream_that_is_not_a_simple_graph(run, edges,
                                                                message):
    with pytest.raises(ConfigError, match=message):
        run(edges)


@pytest.mark.parametrize("run", [
    lambda: verify_perfect_matching(GRAPH, 4, [(0, 1), (2, 3)]),
    lambda: verify_connectivity(GRAPH, 4, (2, [(2, 0), (2, 1), (2, 3)])),
    lambda: verify_non_bipartite(GRAPH, 4, [0, 1, 2, 0]),
    lambda: count_triangles_run(GRAPH, 4),
    lambda: hamming_run([(0, U(1, 1)), (0, U(2, 1)), (1, U(2, 1)),
                         (1, U(3, 1)), (1, U(3, -1))], 8, 4),
    lambda: subset_run([(0, U(1, 1)), (1, U(1, 1)), (1, U(2, 1))], 8, 4),
], ids=["matching", "connectivity", "oddcycle", "triangles", "hamming",
        "subset"])
def test_zero_one_checks_read_the_one_pass(run, monkeypatch):
    # the 0/1 checks on final counts read the counts of the one pass that
    # sizes the run (or, for edges, of the loop that flattens them): no
    # run here makes another pass with frequency_map
    calls = []
    for module in (streams, moments):
        real = module.frequency_map
        monkeypatch.setattr(module, "frequency_map",
                            lambda ups, real=real: calls.append(1) or real(ups))
    assert run().accepted
    assert calls == []


def test_repeated_edge_does_not_count_extra_triangles():
    # at the parent this certified 4 triangles of a 3-vertex graph
    with pytest.raises(ConfigError, match="final count 2"):
        count_triangles_run([(0, 1, 2), (1, 2, 1), (0, 2, 1)], 3)
    # an edge streamed twice and deleted once is a simple graph
    assert count_triangles_run([(0, 1, 1), (0, 1, 1), (1, 2, 1), (0, 2, 1),
                                (0, 1, -1)], 3).value == 1
