"""Graph schemes over edge streams: exact triangle counting through derived-
stream moments, and relaxed (one-sided) certificates for perfect matching,
connectivity, and non-bipartiteness.

Witness edge sets are checked for membership in the streamed edge set with
the tagged inner-product machinery (X . Y == |X| with Y the 0/1 edge
indicator), and witness structure is checked with O(1) fingerprint state.
That test is sound only on a simple graph, so every run first reads its
edges through streams.stream_ids, which refuses (ConfigError) a vertex
outside [0, n), a self loop and an edge whose final count is not 0 or 1."""

from .moments import (MODE_STRICT, OnlineEngineProver, OnlineEngineVerifier,
                      Shape, fk_online_multi)
from .protocol import (Chunk, ConfigError, CostReport, Outcome,
                       RelaxedOutcome, RunResult, derive_rng, id_bits,
                       int_record, need, resolve_prover, run_protocol)
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


def _edge_update(side, a, b, delta=1):
    """Edge {a, b} as an update of the subset engine: the streamed graph is
    side 1 (Y), the witness edges side 0 (X)."""
    return side, StreamUpdate(pair_rank(a, b), delta)


def _relaxed_run(edges, n, witness_len, c_v, seed, label, verifier, honest,
                 prover) -> RunResult:
    """A graph certificate's run on one Shape for the subset engine over the
    C(n,2) edge universe: the streamed edges plus up to witness_len witness
    edges. verifier(n, shape, rng) and honest(shape, rng) build the two
    sides. The outcome is a RelaxedOutcome whether the witness is unusable
    or the verifier rejects; a rejected run keeps its costs."""
    meta = compute_meta(*stream_ids("edges", edges, n))
    shape = Shape(edge_universe(n), max(1, meta.sparsity + witness_len), c_v,
                  max(1, meta.weight + witness_len), MODE_STRICT, mains=("ip",))
    verifier = verifier(n, shape, derive_rng(seed, label + "-v"))
    try:
        prover = resolve_prover(prover, lambda: honest(
            shape, derive_rng(seed, label + "-p")))
    except ConfigError:
        # witness unusable: the prover cannot even form its annotation
        return RunResult(RelaxedOutcome(False), CostReport(0, 0, 0, 0.0))
    result = run_protocol(verifier, prover, edges)
    if result.rejected:
        result.outcome = RelaxedOutcome(False)
    return result


class _RelaxedProverBase(OnlineEngineProver):
    """Streams the graph's edges as the Y side of the subset engine; at the
    end, plays the witness edges as the X side after the witness chunk.
    Subclasses set their witness before this constructor, which maps its
    edges and so raises ConfigError on an unusable one. The engine's n is
    the C(n,2) edge universe, so the graph's n is `vertices`."""

    def __init__(self, n, shape, rng):
        self.vertices = n
        self.chunk, edges = self.witness()
        self.x_updates = [_edge_update(0, a, b) for a, b in edges]
        super().__init__(shape, rng)

    def on_update(self, u):
        super().on_update(_edge_update(1, *u))

    def witness(self):
        """(witness chunk, witness edges)."""
        raise NotImplementedError

    def finish(self, query):
        for u in self.x_updates:
            super().on_update(u)
        return [self.chunk] + super().finish(query)


class _RelaxedVerifierBase(OnlineEngineVerifier):
    """The subset engine's verifier over the C(n,2) edge universe, which
    takes the graph's edges as its Y side and the witness edges as X."""

    def __init__(self, n, shape, rng):
        self.vertices = n
        super().__init__(shape, rng)
        self.field = shape.field
        self.x_count = 0

    def update(self, u):
        super().update(_edge_update(1, *u))

    def _x_edge(self, a, b):
        n = self.vertices
        need(0 <= a < n and 0 <= b < n and a != b, "bad witness edge")
        super().update(_edge_update(0, a, b))
        self.x_count += 1

    def _subset_holds(self, chunks):
        out = super().end(chunks, None)
        need(out.value["ip"] == self.x_count, "witness edges not all in the graph")

    @property
    def words(self):
        return super().words + 6


# ------------------------------------------------------------ perfect matching


class MatchingProver(_RelaxedProverBase):
    def __init__(self, n, shape, matching, rng):
        self.matching = matching
        super().__init__(n, shape, rng)

    def witness(self):
        bits = len(self.matching) * 2 * id_bits(self.vertices)
        return Chunk("matching-witness", list(self.matching), bits), self.matching


class MatchingVerifier(_RelaxedVerifierBase):
    def __init__(self, n, shape, rng):
        super().__init__(n, shape, rng)
        self.rho = self.field.rand(rng)
        self.fp_endpoints = 0

    def end(self, chunks, query):
        chunks = list(chunks)
        need(chunks and chunks[0].kind == "matching-witness", "missing witness")
        witness = chunks[0].data
        need(isinstance(witness, list) and all(int_record(e, 2) for e in witness),
             "malformed matching witness")
        n = self.vertices
        need(n % 2 == 0 and len(witness) == n // 2, "wrong matching size")
        q = self.field.q
        for a, b in witness:
            self._x_edge(a, b)
            self.fp_endpoints = (self.fp_endpoints + pow(self.rho, a, q)
                                 + pow(self.rho, b, q)) % q
        need(self.fp_endpoints == fingerprint_of_range(self.field, self.rho, n),
             "matched endpoints do not cover every vertex once")
        self._subset_holds(chunks[1:])
        return RelaxedOutcome(True)


def verify_perfect_matching(edges, n, witness, c_v=16, *, seed=0,
                            prover=None) -> RunResult:
    """Relaxed check that `witness` is a perfect matching inside the streamed
    edge set: convinced, or not convinced (never 'no matching exists')."""
    return _relaxed_run(edges, n, len(witness), c_v, seed, "match",
                        MatchingVerifier, lambda shape, rng: MatchingProver(
                            n, shape, witness, rng), prover)


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


class ConnectivityProver(_RelaxedProverBase):
    def __init__(self, n, shape, root, tree_edges, rng):
        self.root = root
        self.records = witness_tree_records(n, root, tree_edges)
        super().__init__(n, shape, rng)

    def witness(self):
        edge_recs, vert_recs = self.records
        bits = (len(edge_recs) * 3 + len(vert_recs) * 3 + 1) * id_bits(self.vertices ** 2)
        return (Chunk("tree-witness", (self.root, edge_recs, vert_recs), bits),
                [(child, par) for child, par, _ in edge_recs])


class ConnectivityVerifier(_RelaxedVerifierBase):
    def __init__(self, n, shape, rng):
        super().__init__(n, shape, rng)
        self.rho = self.field.rand(rng)
        self.sigma = self.field.rand(rng)

    def end(self, chunks, query):
        chunks = list(chunks)
        need(chunks and chunks[0].kind == "tree-witness", "missing witness")
        data = chunks[0].data
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
        self._subset_holds(chunks[1:])
        return RelaxedOutcome(True)


def verify_connectivity(edges, n, witness, c_v=16, *, seed=0,
                        prover=None) -> RunResult:
    """Relaxed connectivity: witness is (root, list of n-1 tree edges).

    Depth-tagged parent records certify the edges form a tree spanning all n
    vertices; membership of every tree edge in the stream goes through the
    subset machinery."""
    root, tree_edges = witness
    return _relaxed_run(edges, n, max(1, n - 1), c_v, seed, "conn",
                        ConnectivityVerifier, lambda shape, rng: ConnectivityProver(
                            n, shape, root, tree_edges, rng), prover)


# ------------------------------------------------------------ non-bipartiteness


class OddCycleProver(_RelaxedProverBase):
    def __init__(self, n, shape, cycle, rng):
        self.cycle = cycle  # closed vertex list, first == last
        super().__init__(n, shape, rng)

    def witness(self):
        bits = len(self.cycle) * id_bits(self.vertices)
        return (Chunk("cycle-witness", list(self.cycle), bits),
                zip(self.cycle, self.cycle[1:]))


class OddCycleVerifier(_RelaxedVerifierBase):
    def end(self, chunks, query):
        chunks = list(chunks)
        need(chunks and chunks[0].kind == "cycle-witness", "missing witness")
        cycle = chunks[0].data
        need(isinstance(cycle, list) and all(type(v) is int for v in cycle),
             "malformed cycle witness")
        length = len(cycle) - 1
        need(length >= 3 and length % 2 == 1, "cycle length not odd")
        need(cycle[0] == cycle[-1], "cycle not closed")
        for a, b in zip(cycle, cycle[1:]):
            self._x_edge(a, b)
        self._subset_holds(chunks[1:])
        return RelaxedOutcome(True)


def verify_non_bipartite(edges, n, witness, c_v=16, *, seed=0,
                         prover=None) -> RunResult:
    """Relaxed non-bipartiteness: the witness is an odd closed walk played in
    order; every step must be a streamed edge."""
    cycle = list(witness)
    return _relaxed_run(edges, n, len(cycle), c_v, seed, "cyc",
                        OddCycleVerifier, lambda shape, rng: OddCycleProver(
                            n, shape, cycle, rng), prover)
