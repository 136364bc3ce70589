"""Protocol runner: scheme dispatch over validated streams, adversarial
prover strategies, soundness trials, and cost sweeps.

Adversarial strategies only rewrite annotation chunks; the stream itself is
never altered."""

from dataclasses import dataclass, field as dfield, replace

from . import graphs, moments, pointqueries, purity
from .protocol import ConfigError, Prover, RunResult, derive_rng
from .streams import (INSERT_ONLY, NONSTRICT, STRICT, StreamUpdate,
                      read_cycle_witness, read_pairs, read_tree_witness,
                      stream_ids, validate_stream)
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

    def start(self):
        return self.inner.start()

    def on_update(self, u):
        self.inner.on_update(u)

    def finish(self, query):
        return self.end_fn(list(self.inner.finish(query)))


def _rewrite_first(chunks, *rewrites):
    """chunks with one payload replaced, kind and bits kept: each rewrite in
    turn is tried on every chunk, and the first chunk it applies to, where
    rewrite(chunk) returns a payload and not None, takes that payload.
    Returns the chunks unchanged when no rewrite applies to any chunk."""
    for rewrite in rewrites:
        for i, c in enumerate(chunks):
            data = rewrite(c)
            if data is not None:
                return chunks[:i] + [replace(c, data=data)] + chunks[i + 1:]
    return chunks


def _bump_proof(proof: DenseProof, rng) -> DenseProof:
    values = list(proof.values)
    values[rng.randrange(len(values))] += 1
    return DenseProof(values, proof.field_bits)


def _bumped(rng):
    """Rewrite of the first dense proof a chunk holds, alone or first in a
    list: one of its values plus 1."""
    def rewrite(c):
        data = c.data
        if isinstance(data, DenseProof):
            return _bump_proof(data, rng)
        if isinstance(data, list) and data and isinstance(data[0], DenseProof):
            return [_bump_proof(data[0], rng)] + data[1:]
    return rewrite


def _tamper_proof_chunks(chunks, rng):
    return _rewrite_first(chunks, _bumped(rng))


def _wrong_answer_chunks(chunks, rng):
    def wrong(c):
        if c.kind == "opening" and c.data:
            entries = list(c.data)
            item, freq = entries[rng.randrange(len(entries))]
            return sorted(set(entries) - {(item, freq)} | {(item, freq + 1)})
        if c.kind == "selection-answer":
            j, openings = c.data
            return j + 1, openings
    return _rewrite_first(chunks, wrong, _bumped(rng))


def _false_collision_chunks(chunks, rng):
    def bump_entry(c):
        if c.kind == "collision-list" and c.data:
            entries = [tuple(e) for e in c.data]
            j = rng.randrange(len(entries))
            entries[j] = (entries[j][0], entries[j][1] + 1, *entries[j][2:])
            return entries
    return _rewrite_first(chunks, bump_entry, _bumped(rng))


def _omit_heavy_chunks(chunks, rng):
    def omit(c):
        if c.kind == "hh-records":
            records = list(c.data)
            claimed = [j for j, r in enumerate(records) if r[2] == 1 and j > 0]
            if claimed:
                records.pop(claimed[-1])
                return records
    return _rewrite_first(chunks, omit)


def _fake_witness_chunks(chunks, rng):
    def fake(c):
        if c.kind == "matching-witness" and len(c.data) >= 2:
            w = list(c.data)
            (a, b), (cc, d) = w[0], w[1]
            w[0], w[1] = (a, d), (cc, b)
            return w
        if c.kind == "tree-witness":
            root, edge_recs, vert_recs = c.data
            return root, edge_recs[:-1], vert_recs
        if c.kind == "cycle-witness" and len(c.data) > 3:
            return [c.data[0]] + list(c.data[2:])
    return _rewrite_first(chunks, fake)


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


# ------------------------------------------------------------ scheme table

REQUIRED = object()  # Param default: the run needs the parameter
RUN_SEED = object()  # Param default: the run's own seed


@dataclass(frozen=True)
class Param:
    """One scheme parameter: its RunConfig.params key, its CLI flag (None
    when the stream file supplies it), its argparse type or the reader of the
    file the flag names, its choices and its default. `arg` is the run
    function's keyword where it differs from the key."""
    key: str
    flag: str = None
    type: object = int
    default: object = REQUIRED
    choices: tuple = None
    read: object = None
    arg: str = None


@dataclass(frozen=True)
class Scheme:
    """A run function, called as run(stream, n=, seed=, prover=, **params);
    the stream kind it reads (plain, tagged, bucketed or edges); the update
    models it allows (None: any); its parameters, in CLI flag order."""
    run: object
    kind: str
    models: tuple
    params: tuple


STRICT_MODELS = (STRICT, INSERT_ONLY)

C_A = Param("c_a", "--ca")
C_V = Param("c_v", "--cv")
C_V16 = Param("c_v", "--cv", default=16)
K = Param("k", "--k")
MODE = Param("mode", "--mode", str, "online")  # picks the entry of fk and disj
COINS_SEED = Param("coins_seed", "--coins-seed", default=RUN_SEED)
R = Param("r")  # the bucketed stream's header gives the bucket count
Z = Param("z", "--z-file", read=read_pairs)


def _certificate(run, read):
    return Scheme(run, "edges", STRICT_MODELS,
                  (Param("witness", "--witness-file", read=read), C_V16))


def _tagged(run, *params):
    return Scheme(run, "tagged", STRICT_MODELS, params)


# scheme -> Scheme, or mode -> Scheme for a scheme with modes
SCHEMES = {
    "pointquery": Scheme(pointqueries.pq_run, "plain",
                         (STRICT, NONSTRICT, INSERT_ONLY),
                         (Param("query", "--query"), C_A, C_V)),
    "selection": Scheme(pointqueries.selection_run, "plain", STRICT_MODELS,
                        (Param("rank", "--rank"), C_A, C_V)),
    "heavyhitters": Scheme(
        pointqueries.heavyhitters_run, "plain", STRICT_MODELS,
        (Param("phi", "--phi", float), C_A, C_V,
         Param("hh_mode", "--hh-mode", str, "openings",
               choices=("openings",), arg="mode"))),
    "fk": {
        "prescient": Scheme(moments.fk_prescient_run, "plain", STRICT_MODELS,
                            (K, MODE)),
        "online": Scheme(moments.fk_online_run, "plain", STRICT_MODELS,
                         (K, C_V16, MODE)),
        "footprint": Scheme(moments.fk_footprint_mode, "plain", None,
                            (K, C_V16, MODE)),
        "ama": Scheme(moments.fk_ama_mode, "plain", None,
                      (K, C_V16, MODE, COINS_SEED)),
    },
    "multiindex": Scheme(moments.multiindex_run, "plain", STRICT_MODELS,
                         (Param("claims", "--claims-file", read=read_pairs), C_V)),
    "disj": {
        "prescient": _tagged(moments.disj_prescient_run, MODE),
        "online": _tagged(moments.disj_online_run, MODE, C_V16),
    },
    "subset": _tagged(moments.subset_run, C_V16),
    "innerproduct": _tagged(moments.inner_product_run, C_V16),
    "hamming": _tagged(moments.hamming_run, C_V16),
    "injection": Scheme(purity.injection_run, "bucketed", STRICT_MODELS, (R,)),
    "subinjection": Scheme(purity.subinjection_run, "bucketed", STRICT_MODELS,
                           (Z, R)),
    "subf2": Scheme(purity.subf2_run, "plain", None, (Z,)),
    "ama-injection": Scheme(purity.ama_injection_run, "bucketed", None,
                            (COINS_SEED, R)),
    "triangles": Scheme(graphs.count_triangles_run, "edges", STRICT_MODELS,
                        (Param("c_v", "--cv", default=64),)),
    "matching": _certificate(graphs.verify_perfect_matching, read_pairs),
    "connectivity": _certificate(graphs.verify_connectivity, read_tree_witness),
    "oddcycle": _certificate(graphs.verify_non_bipartite, read_cycle_witness),
}


def scheme_flags(name):
    """(stream kind, parameters in CLI flag order) of a scheme. A scheme with
    modes takes the flags of its default mode first, then the other modes'
    extra flags; --mode offers its modes as choices."""
    entry = SCHEMES[name]
    if isinstance(entry, Scheme):
        return entry.kind, entry.params
    modes = [entry[MODE.default], *entry.values()]
    params = dict.fromkeys(p for m in modes for p in m.params)
    return modes[0].kind, tuple(replace(p, choices=tuple(entry)) if p is MODE
                                else p for p in params)


def _entry(config: RunConfig) -> Scheme:
    entry = SCHEMES.get(config.scheme)
    if entry is None:
        raise ConfigError(f"unknown scheme {config.scheme!r}")
    if isinstance(entry, Scheme):
        return entry
    mode = config.params.get("mode", MODE.default)
    if mode not in entry:
        raise ConfigError(f"unknown {config.scheme} mode {mode!r}")
    return entry[mode]


def run_scheme(config: RunConfig, stream) -> RunResult:
    """Check the update model and validate the stream over its ids, then run
    one scheme end to end with its declared defaults filled in."""
    entry = _entry(config)
    if entry.models is not None and config.model not in entry.models:
        raise ConfigError(f"{config.scheme} does not support the {config.model} model")
    kwargs = {}
    for p in entry.params:
        if p is MODE:
            continue
        value = config.params.get(p.key, p.default)
        if value is REQUIRED:
            raise ConfigError(f"missing parameter {p.key!r}")
        kwargs[p.arg or p.key] = config.seed if value is RUN_SEED else value
    validate_stream(*stream_ids(entry.kind, stream, config.n, config.params),
                    config.model)
    prover = (None if config.prover == "honest"
              else adversary(config.prover, config.seed))
    return entry.run(stream, n=config.n, seed=config.seed, prover=prover, **kwargs)


def soundness_trials(config: RunConfig, stream, trials: int) -> int:
    """Repeat a run with fresh verifier randomness; count accepted outcomes.
    Raises ConfigError for a negative trial count."""
    if trials < 0:
        raise ConfigError(f"trials must be at least 0, not {trials}")
    accepted = 0
    for t in range(trials):
        result = run_scheme(replace(config, seed=(config.seed, t)), stream)
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
