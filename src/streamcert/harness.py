"""Protocol runner: scheme dispatch over validated streams, adversarial
prover strategies, soundness trials, and cost sweeps.

Adversarial strategies only rewrite annotation chunks; the stream itself is
never altered."""

import random
from dataclasses import dataclass, field as dfield

from . import graphs, moments, pointqueries, purity
from .protocol import ConfigError, Prover, RunResult, derive_rng
from .streams import STRICT, NONSTRICT, StreamUpdate, validate_stream
from .sumcheck import DenseProof


@dataclass
class RunConfig:
    scheme: str
    n: int = 0
    model: str = STRICT
    seed: int = 0
    prover: str = "honest"
    params: dict = dfield(default_factory=dict)


# ------------------------------------------------------------- adversaries


class ChunkTamper(Prover):
    """Wraps an honest prover and rewrites its end-of-stream chunks."""

    def __init__(self, inner, end_fn):
        self.inner = inner
        self.end_fn = end_fn
        self.prescient = inner.prescient

    def start(self):
        return self.inner.start()

    def on_update(self, u):
        self.inner.on_update(u)

    def finish(self, query):
        return self.end_fn(list(self.inner.finish(query)))


def _bump_proof(proof: DenseProof, rng) -> DenseProof:
    values = list(proof.values)
    values[rng.randrange(len(values))] += 1
    return DenseProof(values, proof.field_bits)


def _tamper_proof_chunks(chunks, rng):
    out = list(chunks)
    for i, c in enumerate(out):
        data = c.data
        if isinstance(data, DenseProof):
            out[i] = c.__class__(c.kind, _bump_proof(data, rng), c.bits)
            return out
        if isinstance(data, tuple) and len(data) == 2 and isinstance(data[1], DenseProof):
            out[i] = c.__class__(c.kind, (data[0], _bump_proof(data[1], rng)), c.bits)
            return out
        if isinstance(data, list) and data and isinstance(data[0], DenseProof):
            bumped = [_bump_proof(data[0], rng)] + data[1:]
            out[i] = c.__class__(c.kind, bumped, c.bits)
            return out
    return out


def _wrong_answer_chunks(chunks, rng):
    out = list(chunks)
    for i, c in enumerate(out):
        if c.kind == "opening" and c.data:
            entries = list(c.data)
            item, freq = entries[rng.randrange(len(entries))]
            entries = sorted(set(entries) - {(item, freq)} | {(item, freq + 1)})
            out[i] = c.__class__(c.kind, entries, c.bits)
            return out
        if c.kind == "selection-answer":
            j, openings = c.data
            out[i] = c.__class__(c.kind, (j + 1, openings), c.bits)
            return out
    return _tamper_proof_chunks(out, rng)


def _false_collision_chunks(chunks, rng):
    out = list(chunks)
    for i, c in enumerate(out):
        if c.kind == "collision-list" and c.data:
            entries = [tuple(e) for e in c.data]
            j = rng.randrange(len(entries))
            e = list(entries[j])
            e[1] += 1
            entries[j] = tuple(e)
            out[i] = c.__class__(c.kind, entries, c.bits)
            return out
    return _tamper_proof_chunks(out, rng)


def _omit_heavy_chunks(chunks, rng):
    out = list(chunks)
    for i, c in enumerate(out):
        if c.kind == "hh-records":
            records = list(c.data)
            claimed = [j for j, r in enumerate(records) if r[2] == 1 and j > 0]
            if claimed:
                records.pop(claimed[-1])
                out[i] = c.__class__(c.kind, records, c.bits)
            return out
    return out


def _fake_witness_chunks(chunks, rng):
    out = list(chunks)
    for i, c in enumerate(out):
        if c.kind == "matching-witness" and len(c.data) >= 2:
            w = list(c.data)
            (a, b), (cc, d) = w[0], w[1]
            w[0], w[1] = (a, d), (cc, b)
            out[i] = c.__class__(c.kind, w, c.bits)
            return out
        if c.kind == "tree-witness":
            root, edge_recs, vert_recs = c.data
            out[i] = c.__class__(c.kind, (root, edge_recs[:-1], vert_recs), c.bits)
            return out
        if c.kind == "cycle-witness" and len(c.data) > 3:
            cyc = list(c.data)
            cyc.pop(1)
            out[i] = c.__class__(c.kind, cyc, c.bits)
            return out
    return out


STRATEGIES = {
    "tamper-proof-polynomial": _tamper_proof_chunks,
    "wrong-answer": _wrong_answer_chunks,
    "false-collision-list": _false_collision_chunks,
    "omitted-heavy-hitter": _omit_heavy_chunks,
    "fake-witness": _fake_witness_chunks,
}


def adversary(strategy: str, seed: int = 0):
    """Wrapper factory for a named tampering strategy; pass as the `prover`
    argument of any scheme run function."""
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown adversarial strategy {strategy!r}")
    fn = STRATEGIES[strategy]
    rng = derive_rng(seed, strategy)

    def wrap(honest):
        return ChunkTamper(honest, lambda chunks: fn(chunks, rng))

    return wrap


def _prover_arg(config: RunConfig):
    if config.prover == "honest":
        return None
    return adversary(config.prover, config.seed)


# ------------------------------------------------------------ scheme table


def _require(params, key):
    if key not in params:
        raise ConfigError(f"missing parameter {key!r}")
    return params[key]


def _run_pointquery(config, stream):
    p = config.params
    return pointqueries.pq_run(
        stream, config.n, _require(p, "query"), c_a=_require(p, "c_a"),
        c_v=_require(p, "c_v"), seed=config.seed, prover=_prover_arg(config))


def _run_selection(config, stream):
    p = config.params
    return pointqueries.selection_run(
        stream, config.n, _require(p, "rank"), c_a=_require(p, "c_a"),
        c_v=_require(p, "c_v"), seed=config.seed, prover=_prover_arg(config))


def _run_heavyhitters(config, stream):
    p = config.params
    return pointqueries.heavyhitters_run(
        stream, config.n, _require(p, "phi"), c_a=_require(p, "c_a"),
        c_v=_require(p, "c_v"), seed=config.seed, prover=_prover_arg(config),
        mode=p.get("hh_mode", "openings"))


def _run_fk(config, stream):
    p = config.params
    k = _require(p, "k")
    mode = p.get("mode", "online")
    if mode == "prescient":
        return moments.fk_prescient_run(stream, config.n, k, seed=config.seed,
                                        prover=_prover_arg(config))
    c_v = _require(p, "c_v")
    if mode == "online":
        return moments.fk_online_run(stream, config.n, k, c_v, seed=config.seed,
                                     prover=_prover_arg(config))
    if mode == "footprint":
        return moments.fk_footprint_mode(stream, config.n, k, c_v,
                                         seed=config.seed, prover=_prover_arg(config))
    if mode == "ama":
        return moments.fk_ama_mode(stream, config.n, k, c_v, seed=config.seed,
                                   coins_seed=p.get("coins_seed", config.seed),
                                   prover=_prover_arg(config))
    raise ConfigError(f"unknown fk mode {mode!r}")


def _run_disj(config, stream):
    p = config.params
    if p.get("mode", "online") == "prescient":
        return moments.disj_prescient_run(stream, config.n, seed=config.seed,
                                          prover=_prover_arg(config))
    return moments.disj_online_run(stream, config.n, _require(p, "c_v"),
                                   seed=config.seed, prover=_prover_arg(config))


def _run_subset(config, stream):
    return moments.subset_run(stream, config.n, _require(config.params, "c_v"),
                              seed=config.seed, prover=_prover_arg(config))


def _run_innerproduct(config, stream):
    return moments.inner_product_run(stream, config.n,
                                     _require(config.params, "c_v"),
                                     seed=config.seed, prover=_prover_arg(config))


def _run_hamming(config, stream):
    return moments.hamming_run(stream, config.n, _require(config.params, "c_v"),
                               seed=config.seed, prover=_prover_arg(config))


def _run_injection(config, stream):
    p = config.params
    return purity.injection_run(stream, config.n, _require(p, "r"),
                                seed=config.seed, prover=_prover_arg(config))


def _run_subinjection(config, stream):
    p = config.params
    return purity.subinjection_run(stream, _require(p, "z"), config.n,
                                   _require(p, "r"), seed=config.seed,
                                   prover=_prover_arg(config))


def _run_subf2(config, stream):
    p = config.params
    return purity.subf2_run(stream, _require(p, "z"), config.n,
                            seed=config.seed, prover=_prover_arg(config))


def _run_ama_injection(config, stream):
    p = config.params
    return purity.ama_injection_run(stream, config.n, _require(p, "r"),
                                    coins_seed=p.get("coins_seed", config.seed),
                                    seed=config.seed, prover=_prover_arg(config))


def _run_multiindex(config, stream):
    p = config.params
    return moments.multiindex_run(stream, config.n, _require(p, "claims"),
                                  _require(p, "c_v"), seed=config.seed,
                                  prover=_prover_arg(config))


def _run_triangles(config, stream):
    return graphs.count_triangles_run(stream, config.n,
                                      config.params.get("c_v", 64),
                                      seed=config.seed, prover=_prover_arg(config))


def _run_matching(config, stream):
    p = config.params
    return graphs.verify_perfect_matching(stream, config.n,
                                          _require(p, "witness"),
                                          p.get("c_v", 16), seed=config.seed,
                                          prover=_prover_arg(config))


def _run_connectivity(config, stream):
    p = config.params
    return graphs.verify_connectivity(stream, config.n, _require(p, "witness"),
                                      p.get("c_v", 16), seed=config.seed,
                                      prover=_prover_arg(config))


def _run_oddcycle(config, stream):
    p = config.params
    return graphs.verify_non_bipartite(stream, config.n, _require(p, "witness"),
                                       p.get("c_v", 16), seed=config.seed,
                                       prover=_prover_arg(config))


# scheme id -> (runner, stream kind, models allowed)
SCHEMES = {
    "pointquery": (_run_pointquery, "plain", (STRICT, NONSTRICT, "insert")),
    "selection": (_run_selection, "plain", (STRICT, "insert")),
    "heavyhitters": (_run_heavyhitters, "plain", (STRICT, "insert")),
    "fk": (_run_fk, "plain", None),  # model depends on mode
    "multiindex": (_run_multiindex, "plain", (STRICT, "insert")),
    "disj": (_run_disj, "tagged", (STRICT, "insert")),
    "subset": (_run_subset, "tagged", (STRICT, "insert")),
    "innerproduct": (_run_innerproduct, "tagged", (STRICT, "insert")),
    "hamming": (_run_hamming, "tagged", (STRICT, "insert")),
    "injection": (_run_injection, "bucketed", (STRICT, "insert")),
    "subinjection": (_run_subinjection, "bucketed", (STRICT, "insert")),
    "subf2": (_run_subf2, "plain", None),
    "ama-injection": (_run_ama_injection, "bucketed", None),
    "triangles": (_run_triangles, "edges", (STRICT, "insert")),
    "matching": (_run_matching, "edges", (STRICT, "insert")),
    "connectivity": (_run_connectivity, "edges", (STRICT, "insert")),
    "oddcycle": (_run_oddcycle, "edges", (STRICT, "insert")),
}


def _validate_for_scheme(config: RunConfig, stream, kind, models):
    n = config.n
    if kind == "plain":
        flat = stream
    elif kind == "tagged":
        flat = [StreamUpdate(2 * su.item + t, su.delta) for t, su in stream]
        n = 2 * n
    elif kind == "bucketed":
        r = config.params.get("r", 0)
        flat = [StreamUpdate(u.item * max(1, r) + u.bucket, u.delta) for u in stream]
        n = n * max(1, r)
    elif kind == "edges":
        flat = [StreamUpdate(graphs.pair_rank(u, v), d) for u, v, d in stream]
        n = graphs.edge_universe(config.n)
    else:
        raise ConfigError(f"unknown stream kind {kind!r}")
    if config.scheme == "fk":
        mode = config.params.get("mode", "online")
        models = (STRICT, "insert") if mode in ("prescient", "online") else None
    if models is not None and config.model not in models:
        raise ConfigError(f"{config.scheme} does not support the {config.model} model")
    validate_stream(flat, n, config.model)


def run_scheme(config: RunConfig, stream) -> RunResult:
    """Validate the declared update model, then run one scheme end to end."""
    if config.scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {config.scheme!r}")
    runner, kind, models = SCHEMES[config.scheme]
    _validate_for_scheme(config, stream, kind, models)
    return runner(config, stream)


def soundness_trials(config: RunConfig, stream, trials: int) -> int:
    """Repeat a run with fresh verifier randomness; count accepted outcomes."""
    accepted = 0
    for t in range(trials):
        cfg = RunConfig(config.scheme, config.n, config.model,
                        seed=(config.seed, t), prover=config.prover,
                        params=config.params)
        result = run_scheme(cfg, stream)
        if result.accepted:
            accepted += 1
    return accepted


def synthetic_stream(m, n, seed, churn=0.0):
    """Strict unit-ish stream with exactly m items of nonzero final frequency."""
    rng = derive_rng(seed, "stream")
    items = rng.sample(range(n), m)
    updates = []
    for i in items:
        f = rng.randrange(1, 4)
        updates.append(StreamUpdate(i, f))
        if churn and rng.random() < churn:
            updates.append(StreamUpdate(i, 2))
            updates.append(StreamUpdate(i, -2))
    rng.shuffle(updates)
    # keep prefixes nonnegative: inserts precede their paired deletes per item
    fixed, seen = [], {}
    for u in updates:
        if u.delta < 0 and seen.get(u.item, 0) + u.delta < 0:
            fixed.append(StreamUpdate(u.item, -u.delta))
        else:
            fixed.append(u)
        seen[u.item] = seen.get(u.item, 0) + fixed[-1].delta
    return fixed


def cost_sweep(k, ms, c_vs, n=1 << 20, seed=0):
    """Honest-prover fk_online runs over an (m, c_v) grid; returns one row of
    measured costs per cell."""
    rows = []
    for m in ms:
        for c_v in c_vs:
            if c_v <= 1:
                raise ConfigError("c_v must exceed 1")
            stream = synthetic_stream(m, n, (seed, m))
            result = moments.fk_online_run(stream, n, k, c_v, seed=(seed, m, c_v))
            rows.append({
                "m": m, "c_v": c_v, "k": k,
                "accepted": result.accepted,
                "value": result.value,
                "hcost_bits": result.cost.hcost_bits,
                "vcost_words": result.cost.vcost_words,
            })
    return rows
