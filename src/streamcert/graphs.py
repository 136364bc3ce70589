"""Graph schemes over edge streams: exact triangle counting through derived-
stream moments, and relaxed (one-sided) certificates for perfect matching,
connectivity, and non-bipartiteness.

Each certificate is a witness edge set plus O(1) fingerprint checks on its
structure. One prover, _RelaxedProver, sends the witness chunk that its
verify_* function builds and plays the witness edges into the tagged
inner-product machinery, which checks their membership in the streamed edge
set (X . Y == |X| with Y the 0/1 edge indicator). The verifiers share one
end: each declares its witness chunk's `kind` and a check_witness that
validates the payload and feeds its edges. The membership test is sound
only on a simple graph, so every run first reads its edges through
streams.stream_ids, which refuses (ConfigError) a vertex outside [0, n), a
self loop and an edge whose final count is not 0 or 1. The engine sees
ids: edge {a, b} of rank pair_rank(a, b) is id 2 * rank + 1 on the
streamed side Y, which the run builds once from those edges' ranks, and id
2 * rank on the witness side X (_edge_update)."""

import time
from functools import partial

from .moments import (MODE_STRICT, OnlineEngineProver, OnlineEngineVerifier,
                      Shape, fk_online_multi)
from .protocol import (Chunk, ConfigError, CostReport, Outcome,
                       RelaxedOutcome, RunResult, id_bits, int_record, need,
                       run_protocol, take)
from .streams import (StreamUpdate, compute_meta, edge_universe,
                      fingerprint_of_range, pair_rank, stream_ids)


def triple_rank(a: int, b: int, c: int) -> int:
    """Combinatorial-number-system rank of a vertex triple in [C(n,3)]."""
    a, b, c = sorted((a, b, c))
    return a + b * (b - 1) // 2 + c * (c - 1) * (c - 2) // 6


def triple_universe(n: int) -> int:
    return n * (n - 1) * (n - 2) // 6


def triangle_derived_stream(edges, n):
    """Each edge update touches the C(n-2, 1) triples containing it; a triple
    with derived frequency 3 is a triangle."""
    out = []
    for u, v, delta in edges:
        for w in range(n):
            if w != u and w != v:
                out.append(StreamUpdate(triple_rank(u, v, w), delta))
    return out


def triangles_from_moments(f1, f2, f3):
    """Triples holding all three of their edges: the indicator of f == 3 on
    {0,1,2,3} is f(f-1)(f-2)/6 = (f^3 - 3 f^2 + 2 f)/6."""
    num = f3 - 3 * f2 + 2 * f1
    if num % 6:
        return None
    return num // 6


def count_triangles_run(edges, n, c_v=64, *, seed=0, prover=None) -> RunResult:
    """Certified exact triangle count of a simple graph given as a strict
    edge stream."""
    if n < 3:
        raise ConfigError("need at least three vertices")
    stream_ids("edges", edges, n)
    derived = triangle_derived_stream(edges, n)
    result = fk_online_multi(derived, triple_universe(n), (1, 2, 3), c_v,
                             seed=seed, prover=prover)
    if result.outcome.rejected:
        return result
    moments = result.outcome.value
    count = triangles_from_moments(moments[1], moments[2], moments[3])
    result.outcome = Outcome.reject() if count is None else Outcome.ok(count)
    return result


# ------------------------------------------------------- witness subset glue


def _edge_update(a, b):
    """Witness edge {a, b} as an update of the subset engine: count 1 of
    its X-side id 2 * pair_rank(a, b). The streamed graph is the Y side."""
    return StreamUpdate(2 * pair_rank(a, b), 1)


class _UnusableWitness(Exception):
    """The honest prover of a graph certificate refused its witness."""


def _relaxed_run(edges, n, witness_len, c_v, seed, label, verifier, witness,
                 prover) -> RunResult:
    """A graph certificate's run on one Shape for the subset engine over the
    C(n,2) edge universe: the streamed edges plus up to witness_len witness
    edges. verifier(n, shape, rng) builds the verifier, and witness() the
    honest prover's (witness chunk, witness edges). The outcome is a
    RelaxedOutcome whether the witness is unusable or the verifier rejects;
    a rejected run keeps its costs, an unusable witness (ConfigError while
    the honest prover forms its witness or maps the witness edges) has
    none, and its reject reason, in phase "begin", is "witness refused: "
    and the ConfigError's text; its timing is the honest prover's seconds
    to the refusal and a verifier time of 0.0, as the verifier reads no
    transcript. Any other ConfigError, such as the extension grid's
    budget, propagates."""
    ids, universe = stream_ids("edges", edges, n)
    meta = compute_meta(ids, universe)
    y_ids = [StreamUpdate(2 * u.item + 1, u.delta) for u in ids]
    shape = Shape(edge_universe(n), max(1, meta.sparsity + witness_len), c_v,
                  max(1, meta.weight + witness_len), MODE_STRICT, mains=("ip",))

    started = 0.0

    def honest(rng):
        nonlocal started
        started = time.perf_counter()
        try:
            chunk, edges = witness()
            x_updates = [_edge_update(a, b) for a, b in edges]
        except ConfigError as exc:
            raise _UnusableWitness(f"witness refused: {exc}") from exc
        return _RelaxedProver(shape, rng, chunk, x_updates)

    try:
        result = run_protocol(y_ids, seed, label, partial(verifier, n, shape),
                              honest, prover)
    except _UnusableWitness as exc:
        # the prover cannot even form its annotation
        timing = {"prover_s": time.perf_counter() - started,
                  "verifier_s": 0.0}
        return RunResult(RelaxedOutcome(False), CostReport(0, 0, 0, 0.0),
                         {"reject": {"phase": "begin", "reason": str(exc)},
                          "timing": timing})
    if result.rejected:
        result.outcome = RelaxedOutcome(False)
    return result


class _RelaxedProver(OnlineEngineProver):
    """Streams the graph's edges as the Y side of the subset engine; at the
    end, sends the witness chunk and plays the witness edges, x_updates, as
    the X side."""

    def __init__(self, shape, rng, chunk, x_updates):
        self.chunk = chunk
        self.x_updates = x_updates
        super().__init__(shape, rng)

    def finish(self, query):
        for u in self.x_updates:
            self.on_update(u)
        return [self.chunk] + super().finish(query)


class _RelaxedVerifierBase(OnlineEngineVerifier):
    """The subset engine's verifier over the C(n,2) edge universe, which
    takes the graph's edges as its Y side, the stream of ids 2 * rank + 1
    that the run builds, and the witness edges as X (_edge_update). The
    engine's n is that edge universe, so the graph's n is `vertices`. A
    subclass names its witness chunk's `kind` and checks that chunk's
    payload in check_witness, feeding the witness edges through _x_edge."""

    def __init__(self, n, shape, rng):
        self.vertices = n
        super().__init__(shape, rng)
        self.field = shape.field
        self.x_count = 0

    def _x_edge(self, a, b):
        n = self.vertices
        need(0 <= a < n and 0 <= b < n and a != b, "bad witness edge")
        self.update(_edge_update(a, b))
        self.x_count += 1

    def end(self, chunks, query):
        self.check_witness(take(chunks, self.kind))
        out = super().end(chunks, None)
        need(out.value["ip"] == self.x_count, "witness edges not all in the graph")
        return RelaxedOutcome(True)

    @property
    def words(self):
        return super().words + 6


# ------------------------------------------------------------ perfect matching


class MatchingVerifier(_RelaxedVerifierBase):
    kind = "matching-witness"

    def __init__(self, n, shape, rng):
        super().__init__(n, shape, rng)
        self.rho = self.field.rand(rng)

    def check_witness(self, witness):
        need(isinstance(witness, list) and all(int_record(e, 2) for e in witness),
             "malformed matching witness")
        n = self.vertices
        need(n % 2 == 0 and len(witness) == n // 2, "wrong matching size")
        q = self.field.q
        fp_endpoints = 0
        for a, b in witness:
            self._x_edge(a, b)
            fp_endpoints = (fp_endpoints + pow(self.rho, a, q)
                            + pow(self.rho, b, q)) % q
        need(fp_endpoints == fingerprint_of_range(self.field, self.rho, n),
             "matched endpoints do not cover every vertex once")


def verify_perfect_matching(edges, n, witness, c_v=16, *, seed=0,
                            prover=None) -> RunResult:
    """Relaxed check that `witness` is a perfect matching inside the streamed
    edge set: convinced, or not convinced (never 'no matching exists')."""
    return _relaxed_run(edges, n, len(witness), c_v, seed, "match",
                        MatchingVerifier, lambda: (
                            Chunk("matching-witness", list(witness),
                                  len(witness) * 2 * id_bits(n)), witness),
                        prover)


# --------------------------------------------------------------- connectivity


def witness_tree_records(n, root, tree_edges):
    """(edge records, vertex records) for a spanning-tree witness: each edge
    carries its child's depth, each vertex its depth and child count."""
    children = {}
    adj = {}
    for a, b in tree_edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    depth = {root: 0}
    parent = {}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj.get(v, ()):
                if w not in depth:
                    depth[w] = depth[v] + 1
                    parent[w] = v
                    children[v] = children.get(v, 0) + 1
                    nxt.append(w)
        frontier = nxt
    if len(depth) != n:
        raise ConfigError("witness edges do not span the graph")
    edge_recs = sorted((child, parent[child], depth[child]) for child in parent)
    vert_recs = [(v, depth[v], children.get(v, 0)) for v in range(n)]
    return edge_recs, vert_recs


class ConnectivityVerifier(_RelaxedVerifierBase):
    kind = "tree-witness"

    def __init__(self, n, shape, rng):
        super().__init__(n, shape, rng)
        self.rho = self.field.rand(rng)
        self.sigma = self.field.rand(rng)

    def check_witness(self, data):
        need(isinstance(data, tuple) and len(data) == 3 and type(data[0]) is int
             and all(isinstance(recs, list) and all(int_record(e, 3) for e in recs)
                     for recs in data[1:]), "malformed tree witness")
        root, edge_recs, vert_recs = data
        n, q = self.vertices, self.field.q
        need(0 <= root < n, "bad root")
        need(len(edge_recs) == n - 1 and len(vert_recs) == n, "wrong witness size")
        fp_child = 0
        fp_pairs_actual = 0
        for child, par, d in edge_recs:
            need(1 <= d < n, "bad edge depth")
            self._x_edge(child, par)
            fp_child = (fp_child + pow(self.rho, child, q)) % q
            fp_pairs_actual = (fp_pairs_actual
                               + pow(self.sigma, par * n + (d - 1), q)) % q
        fp_vert = 0
        fp_pairs_expected = 0
        total_children = 0
        prev = -1
        for v, d, cc in vert_recs:
            need(prev < v < n, "vertex records not sorted")
            prev = v
            need(0 <= d < n and cc >= 0, "bad vertex record")
            need((d == 0) == (v == root), "depth zero iff root")
            fp_vert = (fp_vert + pow(self.rho, v, q)) % q
            if cc:
                fp_pairs_expected = (fp_pairs_expected
                                     + cc * pow(self.sigma, v * n + d, q)) % q
            total_children += cc
        need(total_children == n - 1, "child counts do not sum to n-1")
        all_fp = fingerprint_of_range(self.field, self.rho, n)
        need(fp_vert == all_fp, "vertex records do not cover every vertex once")
        need(fp_child == (all_fp - pow(self.rho, root, q)) % q,
             "children do not cover the non-root vertices once")
        need(fp_pairs_actual == fp_pairs_expected,
             "parent depths inconsistent with vertex depths")


def verify_connectivity(edges, n, witness, c_v=16, *, seed=0,
                        prover=None) -> RunResult:
    """Relaxed connectivity: witness is (root, list of n-1 tree edges).

    Depth-tagged parent records certify the edges form a tree spanning all n
    vertices; membership of every tree edge in the stream goes through the
    subset machinery."""
    root, tree_edges = witness

    def honest_witness():
        edge_recs, vert_recs = witness_tree_records(n, root, tree_edges)
        bits = (len(edge_recs) * 3 + len(vert_recs) * 3 + 1) * id_bits(n ** 2)
        return (Chunk("tree-witness", (root, edge_recs, vert_recs), bits),
                [(child, par) for child, par, _ in edge_recs])

    return _relaxed_run(edges, n, max(1, n - 1), c_v, seed, "conn",
                        ConnectivityVerifier, honest_witness, prover)


# ------------------------------------------------------------ non-bipartiteness


class OddCycleVerifier(_RelaxedVerifierBase):
    kind = "cycle-witness"

    def check_witness(self, cycle):
        need(isinstance(cycle, list) and all(type(v) is int for v in cycle),
             "malformed cycle witness")
        length = len(cycle) - 1
        need(length >= 3 and length % 2 == 1, "cycle length not odd")
        need(cycle[0] == cycle[-1], "cycle not closed")
        for a, b in zip(cycle, cycle[1:]):
            self._x_edge(a, b)


def verify_non_bipartite(edges, n, witness, c_v=16, *, seed=0,
                         prover=None) -> RunResult:
    """Relaxed non-bipartiteness: the witness is an odd closed walk (first
    vertex == last) played in order; every step must be a streamed edge."""
    cycle = list(witness)
    return _relaxed_run(edges, n, len(cycle), c_v, seed, "cyc",
                        OddCycleVerifier, lambda: (
                            Chunk("cycle-witness", cycle, len(cycle) * id_bits(n)),
                            zip(cycle, cycle[1:])),
                        prover)
