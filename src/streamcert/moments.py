"""Frequency moments and their relatives over sparse streams.

The online schemes all share one construction: a pairwise hash h maps the
universe down to [r]; the dense sum-check scheme runs on the mapped stream;
a collision list L0 names the items h failed to isolate, whose claimed
frequencies are removed from the mapped instance, certified in a batch by
the staged MultiIndex sub-scheme, and re-added to the output directly. A
bucket-purity check over the mapped pairs confirms h is injective on
everything outside L0.

Stage j of MultiIndex marks the buckets (under a fresh hash h_j) of the
items claimed to be isolated there; a SubInjection run certifies the marked
buckets are pure and a SubF2 run over f - f* certifies the isolated items'
claimed frequencies are exact. Claimed frequencies of resolving items are
also fed into the stage purity check as insertions, so list entries for
items absent from the stream collide with whatever shares their bucket and
cannot launder frequency mass.

Update models: each is one mode object, which the run function chooses
once and Shape.mode holds; code outside the mode classes reads from it
each rule that differs by model, and never tests which model it is.
MODE_STRICT, a StrictMode, certifies the strict turnstile model at
sparsity-scaled costs, and its rules are the defaults. MODE_FOOTPRINT, a
FootprintMode, the online-MA scheme for non-strict streams, overrides the
sizing base, the footprint, and occupies buckets with absolute update
weight: each collision-list entry also carries its certified weight,
checked by a further SubF2 per stage. MODE_AMA, an AmaMode, the
public-coin scheme whose costs follow sparsity, overrides the purity
field, terms, sinks, stage checks and marks and the main injection with
fingerprint purity checks, and adds two public coins.

Each mapping from stream updates to dense instances is written once and
built over DenseProver or DenseVerifier: _StageMap for the MultiIndex
stages and _EngineMap for the universe reduction. The prover sides add
the honest annotation; the verifier sides add the checks on it (`need`),
the hash validation, the proof consumption and the space accounting.
One mapping step, built by _StageMap.route, takes a count from hash to
bucket to lane for both: it computes the count's purity terms once,
however many instances take them, and makes one call of a lane bank
(sumcheck.lane_bank), which computes the count's bucket in each lane from
the hashes' fields (a, b, p, r), read once when the hashes are taken. In
the engine verifier that bank has 1 + t_max lanes per side: the main
instance with the main injection, then every stage's SubF2 with its purity
check, so a stream update is one bank call. The engine prover's bank has
the first lane only. On the verifier side the bank hashes and writes the
rows and the packed purity cells in one loop, with no call per instance or
per hash.

One engine serves one- and two-sided streams. Fk and triangles stream one
vector; DISJ, subset, inner product, Hamming and the graph certificates
stream two, S and T. Shape's `mains` names the main instances once, and
with them the sides: the orders k, for Fk of each order on one side, or
("ip",), for the product f_S . f_T on two. Item i's count on side s is id
i * sides + s, and every prover and verifier sees a StreamUpdate of that
id: a two-sided run function flattens its records to ids 2i + t once, in
its sizing pass (streams.stream_ids), and hands those ids to run_protocol.
The count lands in vector s of every main instance and in the stages as
its id, and _EngineMap turns a collision-list entry into its MultiIndex
claims and its removal for both sides. The schemes over two sides subclass
OnlineEngineProver and OnlineEngineVerifier and override only what they
add: the DISJ/subset witness branch, the F1 counters and, in graphs.py,
the witness checks.

Every dense instance is linear in the stream, and the prover's memory is
not a cost of the scheme. So the verifier maps each update as it arrives,
while the honest prover only sums each id's updates (its net count, and
its absolute weight for footprint mode) in MultiIndexProverCore.freq and
.absw, and at the end of the stream maps each id the stream leaves in the
instances once, through the same step. The proofs depend only on the final
vectors, so the annotation is the same as mapping every update; it is sent
after the stream, so the prover stays prefix-causal. The prover maps an id
into a MultiIndex stage only once the stages are assigned, and only into
the stages some claim is marked at: no other stage sends a proof.

The MultiIndex cores are the standalone scheme's prover and verifier, and
the engine drives the same interface for its collision list.
MultiIndexProverCore.start() sends the stage hashes, which
MultiIndexVerifierCore.begin takes. The prover sums each update per id
with update(ident, delta), which the standalone scheme's on_update(u)
feeds; the verifier maps each update as it arrives, with update(u) in the
standalone scheme and through the engine's route in the engine. After the
stream each side certifies the claims, (ident, fstar, wstar) triples, with
one call, and both enter them with one routine, _StageMap.enter.
MultiIndexProverCore.finish_chunks(claims, more) hashes the ids the stream
leaves at every stage, gives each claim the first stage that isolates it,
enters the claims and maps the ids' net counts into the marked stages,
proves the marked stages' instances and the provers in `more` (the
engine's main injection and main instances) in one sumcheck.prove_all
batch, and returns the stage list and the marked stages' proofs with
more's proofs, or an abort.
MultiIndexVerifierCore.end(chunks, claims) takes the stage list, checks
each claim's stage and plausibility, enters the claims, verifies the
marked stages' proofs in the order enter returns them, and returns
Outcome.ok(1), or Outcome.ok(0) when a claim is wrong. The standalone
scheme's claims are its run's query: they arrive after the stream.
"""

import math
from functools import partial

from .field import field_at_least
from .protocol import (Chunk, ConfigError, Outcome, Prover, RunResult,
                       Verifier, COUNT_BITS, STAGE_BITS,
                       id_bits, int_record, need, run_protocol, take)
from .pointqueries import BucketFingerprintState, open_buckets
from .streams import (check_counts, compute_meta, find_perfect_hash,
                      frequency_map, hash_fits, random_pairwise_hash,
                      stream_ids)
from .sumcheck import (DenseParams, DenseProver, DenseVerifier, g_power,
                       g_product, lane_bank, prop1_min_field, prove_all)
from .purity import (AmaPurity, ama_params, balanced_shape,
                     draw_public_coins, injection_params, mark_all,
                     purity_deltas, purity_min_field, subf2_params,
                     subinjection_params)

def _pow2ceil(x: int) -> int:
    return 1 << max(0, (x - 1).bit_length())


def _ceil_sqrt(x: int) -> int:
    s = math.isqrt(x)
    return s if s * s == x else s + 1


class StrictMode:
    """The strict turnstile model, whose rules FootprintMode and AmaMode
    override. Shape.mode holds one of the three mode objects, MODE_STRICT,
    MODE_FOOTPRINT or MODE_AMA, and the engine and MultiIndex read from it
    every rule that differs by update model; in the strict model:

    - base(meta): the count of ids the run is sized for, the sparsity;
    - purity(shape, coins_seed): the purity field, and no public coins;
    - terms_of(field, ident, count): the purity terms of `count` copies of
      ident, computed once however many purity sinks take them: the
      (u, v, w) of purity.purity_deltas. A route binds it once, when it is
      built, so that no update looks up the mode;
    - purity_sink(shape, dense): what takes add_purity(bucket, terms) for
      a purity instance: the instance itself;
    - main_injection(shape, dense): the main injection check, an Injection
      instance built by dense(params);
    - stage_check_params(shape) and mark(shape, check, bucket): each
      stage's purity check, a SubInjection instance, and the mark of a
      claimed bucket there, in its column 3;
    - weighted: whether ids occupy purity buckets by absolute update
      weight, which a collision-list entry then carries (no: by net count);
    - strict: whether listed counts are never below zero (yes);
    - coin_words: the public coins' words, charged to vcost and, at the
      purity field's width, to hcost (none)."""

    weighted = False
    strict = True
    coin_words = 0
    terms_of = staticmethod(purity_deltas)

    def base(self, meta):
        return meta.sparsity

    def purity(self, shape, coins_seed):
        # purity instances weight items by their ids, so they alone may need
        # a field beyond the default; the other instances size independently
        return field_at_least(purity_min_field(
            2 * shape.weight, shape.n_ids, max(shape.r, shape.ell_decl))), None

    def purity_sink(self, shape, dense):
        return dense

    def _params(self, shape, params, buckets):
        """params(...) of an integer purity check over `buckets` buckets."""
        bound = buckets * (2 * shape.weight * max(1, shape.n_ids)) ** 2
        return params(shape.field_purity, shape.r, shape.c_a, shape.c_v, bound)

    def main_injection(self, shape, dense):
        return dense(self._params(shape, injection_params, max(shape.r, 1)))

    def stage_check_params(self, shape):
        return self._params(shape, subinjection_params, max(shape.r, shape.ell_decl))

    def mark(self, shape, check, bucket):
        check.update(3, bucket, 1)


class FootprintMode(StrictMode):
    """The non-strict model by the online-MA scheme. It overrides base, the
    footprint, and weighted: ids occupy purity buckets by absolute update
    weight, a collision-list entry carries its certified weight, and each
    stage adds a SubF2 over the weights. Listed counts may be below zero,
    or zero."""

    weighted = True
    strict = False

    def base(self, meta):
        return meta.footprint


class AmaMode(StrictMode):
    """The non-strict model at sparsity-scaled costs, by public-coin
    fingerprint purity checks (purity.AmaPurity). It overrides the purity
    field, sized by n_ids^2 * r * lgn, and two public coins drawn from
    coins_seed (coin_words); the terms, the id and its count, whose
    coordinates depend on the bucket; the sink, an AmaPurity; the stage
    check, an AMA instance over lgn coordinates per bucket, marked at all
    of a bucket's coordinates; the main injection, the stage check with
    every bucket marked; and strict: listed counts may be below zero."""

    strict = False
    coin_words = 2
    terms_of = staticmethod(lambda field, ident, count: (ident, count))

    def purity(self, shape, coins_seed):
        field = field_at_least(shape.n_ids ** 2 * shape.r * shape.lgn << 20)
        return field, draw_public_coins(field, coins_seed)

    def purity_sink(self, shape, dense):
        return AmaPurity(dense, shape.coins, shape.n_ids, shape.lgn)

    def main_injection(self, shape, dense):
        return mark_all(dense(self.stage_check_params(shape)))

    def stage_check_params(self, shape):
        c_a = _pow2ceil(-(-shape.r * shape.lgn // shape.c_v))
        return ama_params(shape.field_purity, shape.r, shape.lgn, c_a, shape.c_v)

    def mark(self, shape, check, bucket):
        for j in range(shape.lgn):
            check.update(2, bucket * shape.lgn + j, 1)


MODE_STRICT = StrictMode()
MODE_FOOTPRINT = FootprintMode()
MODE_AMA = AmaMode()


class Shape:
    """Shared geometry of one online run: reduced universe, grid shape,
    fields, collision budget, stage budget and main instances.

    `mode` is one of the update models' mode objects, MODE_STRICT,
    MODE_FOOTPRINT or MODE_AMA, and the one place their rules live: the
    run's purity field and public coins come from it here, and every
    instance, sink, mark and bound that differs by model is read from it
    (StrictMode names them). `base` is the count of ids the run is sized
    for: in fk_online_multi, mode.base of the stream's meta.

    `mains` names the main instances, and with them the stream's sides: the
    orders k, for Fk of each order over a one-sided stream, or ("ip",), for
    the product f_S . f_T over a two-sided one (S and T). Item i's count on
    side s is id i * sides + s, so n items take n_ids = n * sides ids.
    main_params() builds the main instances' parameters."""

    def __init__(self, n, base, c_v, weight, mode, ell=None, mains=(),
                 coins_seed=None):
        if c_v <= 1:
            raise ConfigError("c_v must exceed 1")
        self.sides = 2 if "ip" in mains else 1
        self.n = n
        self.n_ids = n * self.sides
        self.mode = mode
        self.c_v = c_v
        base = max(1, base)
        self.c_a = _pow2ceil(max(1, -(-base * _ceil_sqrt(c_v) // c_v)))
        self.r = self.c_a * c_v
        self.threshold = max(1, -(-10 * base * base // self.r))
        # the most claims MultiIndex certifies: it sizes the stage budget and
        # the stage checks' fields and output bounds
        self.ell_decl = ell_decl = max(2, ell if ell is not None else self.threshold)
        self.t_max = math.ceil(2 * math.log(ell_decl) / math.log(c_v)) + 3
        self.weight = max(1, weight)
        self.lgn = id_bits(self.n_ids)
        self.field_purity, self.coins = mode.purity(self, coins_seed)
        self.field_subf2 = field_at_least(2 * ell_decl * (2 * self.weight) ** 2 + 1)
        # each main instance's degree: f_S . f_T has degree 2
        degrees = {key: 2 if key == "ip" else key for key in mains}
        self.field_mains = {key: field_at_least(
            prop1_min_field(d, self.r, self.weight ** d))
            for key, d in degrees.items()}
        self.field = max([self.field_purity, self.field_subf2,
                          *self.field_mains.values()], key=lambda f: f.q)

    # dense parameter bundles ------------------------------------------------

    def main_params(self):
        """Each main instance's DenseParams by key: one vector of degree k
        for the order k, two vectors of degree 2 for "ip"."""
        params = {}
        for key, f in self.field_mains.items():
            vectors, degree, g = ((2, 2, g_product(f)) if key == "ip"
                                  else (1, key, g_power(f, key)))
            params[key] = DenseParams(f, self.r, self.c_a, self.c_v, vectors,
                                      degree, g, self.weight ** degree)
        return params

    def stage_subf2_params(self):
        bound = self.ell_decl * (2 * self.weight) ** 2
        return subf2_params(self.field_subf2, self.r, self.c_a, self.c_v, bound)


# ------------------------------------------------------------------ MultiIndex


class _StageMap:
    """MultiIndex stage mapping, the same on both sides.

    A count (ident, delta) lands, under each stage hash h_j, in bucket
    h_j(ident) of stage j's SubF2 instances and, as purity terms, of its
    SubInjection-style check. enter() enters the claims for both sides:
    each claim marks its bucket at its own stage, and its claimed
    frequency comes out of every marked stage, the only stages proven and
    verified. `dense(params)` builds each instance: a DenseProver for the
    prover, a DenseVerifier drawing its secret point for the verifier.
    `instances` holds each stage's instances in proof order: the purity
    check, SubF2 over the net counts and, in footprint mode, SubF2 over
    the absolute weights.

    Buckets come from the stage hashes' fields, taken by use_hashes.
    route() builds the one hash -> bucket -> lane step, for the standalone
    scheme and the online engine alike: a function that maps a count into
    every lane of a lane bank with one call, the bank hashing each lane's
    bucket from its (a, b, p, r) key and returning the buckets. The bank
    holds each stage's net-count SubF2 with its purity check, after any
    head lanes (the engine's main instance with the main injection, see
    _EngineMap). Further instances (the engine's further main instances)
    and the footprint SubF2 over the absolute weights take plain updates
    at the returned buckets after the bank call. feed maps an id through
    the stages alone."""

    def __init__(self, shape: Shape, dense):
        self.shape = shape
        t, mode = shape.t_max, shape.mode
        self.checks = [dense(mode.stage_check_params(shape)) for _ in range(t)]
        self.sinks = [mode.purity_sink(shape, c) for c in self.checks]
        self.sf_net = [dense(shape.stage_subf2_params()) for _ in range(t)]
        self.sf_abs = None
        per_stage = [self.checks, self.sf_net]
        if mode.weighted:
            self.sf_abs = [dense(shape.stage_subf2_params()) for _ in range(t)]
            per_stage.append(self.sf_abs)
        self.instances = list(zip(*per_stage))

    def use_hashes(self, hs):
        """Take the stage hashes; buckets come from their fields."""
        self.hs = hs
        self.hkeys = [(h.a, h.b, h.p, h.r) for h in hs]
        self.feed_stages = self.route(self.hkeys)

    def buckets(self, ident):
        """ident's bucket at each stage."""
        return [(a * ident + b) % p % r for a, b, p, r in self.hkeys]

    def route(self, keys, head=(), more=(), stages=None):
        """The mapping step step(x, ident, delta, weight) over a lane bank of
        the lanes in head, each (count instance, vector j, purity sink),
        then the net-count SubF2 (vector 0) with its purity check of each
        stage in `stages` (indices from 0; every stage when None), keyed by
        keys, one (a, b, p, r) a lane.

        step maps the count delta, of absolute update weight `weight`, of
        x, id `ident` in the stages, and returns its bucket in each lane,
        as the bank computes and returns them. The head lanes take x's
        purity terms, the stage lanes ident's. Each (instance, vector j) of
        more takes delta at the first bucket, and the footprint SubF2 over
        the absolute weights takes weight at the routed stages' buckets."""
        if stages is None:
            stages = range(self.shape.t_max)
        bank = lane_bank([*head, *((self.sf_net[j], 0, self.sinks[j])
                                   for j in stages)], keys)
        terms_of, field = self.shape.mode.terms_of, self.shape.field_purity
        footprint = self.sf_abs is not None
        weights = ([(k, self.sf_abs[j]) for k, j in enumerate(stages, len(head))]
                   if footprint else [])

        def step(x, ident, delta, weight):
            occ = weight if footprint else delta
            head_terms = terms_of(field, x, occ)
            # an id that is x, as every one-sided id is, shares its terms
            terms = head_terms if ident == x else terms_of(field, ident, occ)
            buckets = bank(x, delta, head_terms, terms)
            for inst, j in more:
                inst.update(j, buckets[0], delta)
            for k, sf in weights:
                sf.update(0, buckets[k], weight)
            return buckets
        return step

    def feed(self, ident, delta, weight):
        """Map ident's count delta, of absolute update weight `weight`,
        into every stage. Returns ident's bucket at each stage."""
        return self.feed_stages(ident, ident, delta, weight)

    def enter(self, claims, stages, claimed):
        """Enter each (ident, fstar, wstar) claim at its stage in `stages`
        (from 1), claimed holding its bucket at each stage: mark the bucket
        there, with its occupancy in the purity check, and take the claimed
        frequency (and, in a weighted mode, the claimed weight) out of every
        marked stage. Returns the marked
        stages, indices from 0 in order: they alone send proofs and have
        them checked, so the other stages take nothing, and each instance
        is a sum, whatever order its updates come in."""
        sh, mode = self.shape, self.shape.mode
        marked = sorted({stage - 1 for stage in stages})
        for (ident, fstar, wstar), stage, buckets in zip(claims, stages, claimed):
            for j in marked:
                self.sf_net[j].update(0, buckets[j], -fstar)
                if self.sf_abs is not None:
                    self.sf_abs[j].update(0, buckets[j], -wstar)
            j = stage - 1
            b = buckets[j]
            occ = wstar if mode.weighted else fstar
            if occ:
                self.sinks[j].add_purity(b, mode.terms_of(sh.field_purity, ident, occ))
            mode.mark(sh, self.checks[j], b)
            self.sf_net[j].update(1, b, 1)
            if self.sf_abs is not None:
                self.sf_abs[j].update(1, b, 1)
        return marked


class MultiIndexProverCore(_StageMap, Prover):
    """Prover side of the staged frequency-batch certification, and the
    standalone scheme's honest prover. start() sends the stage hashes and
    update(ident, delta) sums each update per id, which on_update(u) feeds
    in the standalone scheme. After the stream, finish_chunks(claims)
    certifies the claims, for the standalone scheme (finish) and the
    engine's prover alike."""

    def __init__(self, shape: Shape, rng):
        hs = [random_pairwise_hash(shape.n_ids, shape.r, rng)
              for _ in range(shape.t_max)]
        super().__init__(shape, DenseProver)
        self.use_hashes(hs)
        self.freq = {}
        self.absw = {}

    def start(self):
        """The start annotation: the stage hashes."""
        bits = sum(h.bits for h in self.hs)
        return [Chunk("mi-hashes", list(self.hs), bits)]

    def on_update(self, u):
        """Sum one update of the standalone scheme."""
        self.update(u.item, u.delta)

    def update(self, ident, delta):
        """Sum one update into ident's net count and absolute weight; the
        mapping waits for the end of the stream."""
        self.freq[ident] = self.freq.get(ident, 0) + delta
        self.absw[ident] = self.absw.get(ident, 0) + abs(delta)

    def net_counts(self):
        """(ident, net count, absolute weight) of every id the stream leaves
        in the instances: a nonzero net count, or in footprint mode a
        nonzero weight."""
        footprint = self.shape.mode.weighted
        absw = self.absw
        for ident, f in self.freq.items():
            if f or (footprint and absw[ident]):
                yield ident, f, absw[ident]

    def finish(self, claims):
        """The standalone scheme's end annotation."""
        return self.finish_chunks(claims)[0]

    def finish_chunks(self, claims, more=()):
        """Gives each (ident, fstar, wstar) claim the first stage isolating
        it from the ids the stream leaves (net_counts), enters the claims
        there and maps those ids' counts into the marked stages alone, then
        proves the marked stages' instances, in stage order, and the
        provers in `more` after them, in one sumcheck.prove_all batch.
        Returns the stage list and the marked stages' proofs, in stage
        order, with the list of more's proofs; or an abort, with no stage
        mapped and nothing proven, if some claim has no stage. Each stage
        hash is evaluated once per id and per claim to assign the stages,
        then once per id at each marked stage to map it."""
        counts = list(self.net_counts())
        occupancy = [{} for _ in self.hkeys]  # per stage: bucket -> ids
        for ident, _, _ in counts:
            for occ, b in zip(occupancy, self.buckets(ident)):
                occ[b] = occ.get(b, 0) + 1
        left = {ident for ident, _, _ in counts}
        claimed = [self.buckets(c[0]) for c in claims]
        stages = []
        for (ident, _, _), buckets in zip(claims, claimed):
            own = 1 if ident in left else 0
            stages.append(next((j + 1 for j, b in enumerate(buckets)
                                if occupancy[j].get(b, 0) == own), None))
        if None in stages:
            return [Chunk("mi-abort", None, 1)], []
        chunks = [Chunk("mi-stages", stages, len(stages) * STAGE_BITS)]
        marked = self.enter(claims, stages, claimed)
        step = self.route([self.hkeys[j] for j in marked], stages=marked)
        for ident, delta, weight in counts:
            step(ident, ident, delta, weight)
        proofs = prove_all([inst for j in marked for inst in self.instances[j]]
                           + list(more))
        k = len(self.instances[0])  # proofs per stage
        for i in range(0, k * len(marked), k):
            stage = proofs[i:i + k]
            chunks.append(Chunk("mi-stage-proof", stage,
                                sum(p.bits for p in stage)))
        return chunks, proofs[k * len(marked):]


# what each stage's proofs certify, in proof order, for the reject reasons
_STAGE_PROOFS = ("purity", "frequency", "weight")


class MultiIndexVerifierCore(_StageMap, Verifier):
    """Verifier side, and the standalone scheme's verifier; one
    SubInjection-style state and one or two SubF2 states per stage, all
    over the same reduced universe. Adds the checks on the prover's hashes,
    stage assignments and claimed frequencies. begin(chunks) takes the
    stage hashes, update(u) maps each update of the standalone scheme (the
    engine maps its own through its route), and end(chunks, claims)
    certifies the claims after the stream."""

    def __init__(self, shape: Shape, rng):
        super().__init__(shape, lambda params: DenseVerifier(params, rng))
        self.hs = None
        self.word_bits = shape.field.bits
        self.info = {}

    def begin(self, chunks):
        """Takes the start annotation's stage hashes."""
        sh = self.shape
        hs = take(chunks, "mi-hashes")
        need(isinstance(hs, list) and len(hs) == sh.t_max, "wrong stage hash count")
        for h in hs:
            need(hash_fits(h, sh.n_ids, sh.r), "bad stage hash")
        self.use_hashes(hs)

    def update(self, u):
        """Map one stream update of the standalone scheme."""
        self.feed(u.item, u.delta, abs(u.delta))

    def end(self, chunks, claims):
        """Checks each (ident, fstar, wstar) claim's stage in the stage
        list and its plausibility, claim by claim (no count above
        shape.weight, the weight the fields were sized for), enters the
        claims at their stages, then verifies the marked stages' proofs
        that follow, in stage order, taking both from chunks. Returns
        Outcome.ok(1) if every check passed, Outcome.ok(0) if a verified
        SubF2 value contradicts a claim, and records the stages used in
        info. Rejects on a malformed annotation, a failed proof or a
        nonzero purity value: a marked bucket that holds another id means
        the stage list is wrong, which says nothing of the claims."""
        sh = self.shape
        need(not (chunks and chunks[0].kind == "mi-abort"), "prover aborted")
        stages = take(chunks, "mi-stages")
        need(isinstance(stages, list) and len(stages) == len(claims),
             "stage list length mismatch")
        for (_, fstar, wstar), stage in zip(claims, stages):
            need(type(stage) is int and 1 <= stage <= sh.t_max,
                 "stage outside budget")
            need(abs(fstar) <= sh.weight, "implausible claimed frequency")
            if sh.mode.weighted:
                need(wstar is not None and 1 <= wstar <= sh.weight,
                     "implausible claimed weight")
        ok = 1
        for j in self.enter(claims, stages,
                            [self.buckets(c[0]) for c in claims]):
            insts = self.instances[j]
            proofs = take(chunks, "mi-stage-proof")
            need(isinstance(proofs, list) and len(proofs) == len(insts),
                 "malformed stage proof")
            for inst, proof, what in zip(insts, proofs, _STAGE_PROOFS):
                v = inst.verify(proof, f"stage {what}")
                if what == "purity":
                    need(v == 0, "marked bucket not isolated")
                elif v != 0:
                    ok = 0
        self.info["stages_used"] = max(stages, default=0)
        return Outcome.ok(ok)

    @property
    def words(self):
        total = sum(inst.words for insts in self.instances for inst in insts)
        hashes = (self.hs[0].words * len(self.hs)) if self.hs else 0
        return total + hashes + self.shape.t_max + 4


def multiindex_run(updates, n, claims, c_v, *, seed=0, prover=None) -> RunResult:
    """1 iff f_i equals the claimed f_i* for every (i, f_i*) in `claims`.

    Strict turnstile; the stage hash functions are fixed before the stream
    and the claim list, the run's query, arrives after it. The claims are
    not the prover's, so the fields are sized for the largest of them as
    well as the stream's weight: a claim above the weight is answered 0.
    Raises ConfigError unless the claims name distinct items of [0, n)
    with nonnegative counts."""
    if len({i for i, _ in claims}) != len(claims):
        raise ConfigError("claims must name distinct items")
    claims = check_counts(claims, n, "claimed item")
    meta = compute_meta(updates, n)
    weight = max([meta.weight, *(f for _, f in claims)])
    shape = Shape(n, meta.sparsity, c_v, weight, MODE_STRICT,
                  ell=max(2, len(claims)))
    claims = sorted((int(i), int(f), None) for i, f in claims)
    return run_protocol(updates, seed, "mi",
                        partial(MultiIndexVerifierCore, shape),
                        partial(MultiIndexProverCore, shape), prover, claims)


# --------------------------------------------------------------- online engine


class _EngineMap:
    """Universe-reduction mapping, the same on both sides, for one- and
    two-sided streams alike.

    A count of item i on side s lands in bucket h(i): in vector s of every
    main instance and, as purity terms of i, in the main injection check.
    The MultiIndex stages map it as id i * sides + s. A collision-
    list entry is (i, its count on each side) and, in footprint mode, its
    certified weight: `arity` ints. claims(entry) gives its MultiIndex
    claims; remove(entry) takes it back out of the main instances and the
    main injection and returns them, for the prover and the verifier.

    use_hash, once the stages have their hashes, builds with the stage
    map's route() one mapping step per side s, routes[s], which maps every
    count on that side with one call of a lane bank of 1 + t_max lanes.
    Lane 0 is vector s of the first main instance with the main injection,
    keyed by the universe hash; lanes 1 to t_max are each stage's net-count
    SubF2 with its purity check. A stage hash's (a, b, p, r) becomes the
    key (a * sides, a * s + b, p, r), so hashing item i with it is hashing
    id i * sides + s, and the bank's one loop over the item gives all
    1 + t_max buckets. Further main instances (fk_online_multi with several
    orders) take plain updates. The prover's routes have lane 0 alone,
    keyed by the universe hash, and return its bucket; the prover maps the
    marked stages later, in MultiIndexProverCore.finish_chunks."""

    def __init__(self, shape: Shape, dense, mi):
        self.shape = shape
        self.n = shape.n
        self.sides = shape.sides
        self.mi = mi
        self.mains = {key: dense(params)
                      for key, params in shape.main_params().items()}
        self.main_inj = shape.mode.main_injection(shape, dense)
        self.main_sink = shape.mode.purity_sink(shape, self.main_inj)
        self.arity = 1 + self.sides + shape.mode.weighted

    def use_hash(self, h, stages):
        """Take the universe hash, once the stages have their hashes, and
        build each side's route, with the lanes of the stages in `stages`
        (indices from 0)."""
        self.h = h
        self.hkey = (h.a, h.b, h.p, h.r)
        sides = self.sides
        first, *more = self.mains.values()
        keys = [self.mi.hkeys[j] for j in stages]
        self.routes = [
            self.mi.route([self.hkey] + [(a * sides, a * s + b, p, r)
                                         for a, b, p, r in keys],
                          [(first, s, self.main_sink)],
                          [(main, s) for main in more], stages)
            for s in range(sides)]

    def bucket(self, item):
        a, b, p, r = self.hkey
        return (a * item + b) % p % r

    def claims(self, entry):
        """A collision-list entry's MultiIndex claims, (ident, fstar, wstar)
        for each side's count."""
        i, sides = entry[0], self.sides
        wstar = entry[-1] if self.shape.mode.weighted else None
        return [(i * sides + s, f, wstar)
                for s, f in enumerate(entry[1:1 + sides])]

    def remove(self, entry):
        """Take a collision-list entry out of the mapped instances. Returns
        its claims."""
        sh = self.shape
        i, counts = entry[0], entry[1:1 + self.sides]
        b = self.bucket(i)
        for side, f in enumerate(counts):
            for main in self.mains.values():
                main.update(side, b, -f)
        # a weighted mode occupies buckets with the certified weight
        removal = entry[-1] if sh.mode.weighted else sum(counts)
        self.main_sink.add_purity(b, sh.mode.terms_of(sh.field_purity, i, -removal))
        return self.claims(entry)


class OnlineEngineProver(_EngineMap, Prover):
    """Honest prover for the universe-reduction schemes. It sums the
    updates per id and, at finish, maps each id's net count once into the
    main instances and the main injection; the MultiIndex core maps it
    into the marked stages once the stages are assigned, and proves those
    stages with the main injection and the main instances in one batch."""

    def __init__(self, shape: Shape, rng):
        h = random_pairwise_hash(shape.n, shape.r, rng)
        super().__init__(shape, DenseProver, MultiIndexProverCore(shape, rng))
        self.use_hash(h, ())

    def start(self):
        return [Chunk("hash", self.h, self.h.bits)] + self.mi.start()

    def on_update(self, u):
        """Sum one update of id u.item into its count."""
        self.mi.update(u.item, u.delta)

    def finish(self, query):
        """Maps each id's net count once into the head lane, listing the
        items that share their bucket with another item as it goes, and
        certifies the list."""
        sides = self.sides
        held = {}  # bucket -> the items mapped there
        for ident, delta, weight in self.mi.net_counts():
            item = ident // sides
            [b] = self.routes[ident % sides](item, ident, delta, weight)
            held.setdefault(b, set()).add(item)
        freq = self.mi.freq
        entries = []
        for i in sorted(i for items in held.values() if len(items) > 1
                        for i in items):
            entry = (i, *(freq.get(i * sides + s, 0) for s in range(sides)))
            if self.shape.mode.weighted:  # one-sided: id i is item i
                entry += (self.mi.absw[i],)
            entries.append(entry)
        claims = [c for e in entries for c in self.remove(e)]

        ebits = len(entries) * (id_bits(self.n) + (self.arity - 1) * COUNT_BITS)
        mi_chunks, proofs = self.mi.finish_chunks(
            claims, [self.main_inj, *self.mains.values()])
        chunks = [Chunk("collision-list", entries, ebits), *mi_chunks]
        if chunks[-1].kind == "mi-abort":
            return chunks
        inj_proof, *main_proofs = proofs
        chunks.append(Chunk("main-injection-proof", inj_proof, inj_proof.bits))
        for key, proof in zip(self.mains, main_proofs):
            chunks.append(Chunk("main-proof", (key, proof), proof.bits))
        return chunks


class OnlineEngineVerifier(_EngineMap, Verifier):
    def __init__(self, shape: Shape, rng):
        super().__init__(shape, lambda params: DenseVerifier(params, rng),
                         MultiIndexVerifierCore(shape, rng))
        self.h = None
        self.weight_seen = 0
        self.word_bits = shape.field.bits
        self.info = {}
        self.public_coin_bits = shape.mode.coin_words * shape.field_purity.bits

    def begin(self, chunks):
        h = take(chunks, "hash")
        need(hash_fits(h, self.n, self.shape.r), "bad universe hash")
        self.mi.begin(chunks)
        self.use_hash(h, range(self.shape.t_max))

    def update(self, u):
        """Map one update of id u.item, item id // sides on side id % sides."""
        ident, delta = u.item, u.delta
        weight = abs(delta)
        self.weight_seen += weight
        sides = self.sides
        self.routes[ident % sides](ident // sides, ident, delta, weight)

    def end(self, chunks, query):
        sh = self.shape
        entries = take(chunks, "collision-list")
        need(isinstance(entries, list) and len(entries) <= sh.threshold,
             "collision list over budget")
        w = self.weight_seen
        # strict counts are never negative; only an entry that carries its
        # weight may list a zero net count
        low = 0 if sh.mode.strict else -w
        c0 = dict.fromkeys(self.mains, 0)
        claims = []
        prev = -1
        for e in entries:
            need(int_record(e, self.arity), "malformed collision-list entry")
            i, counts = e[0], e[1:1 + self.sides]
            need(all(low <= f <= w for f in counts)
                 and (any(counts) or sh.mode.weighted),
                 "implausible listed frequency")
            need(prev < i < self.n, "collision list not sorted")
            prev = i
            for key in c0:
                c0[key] += (counts[0] * counts[1] if key == "ip"
                            else counts[0] ** key)
            claims += self.remove(e)
        ok = self.mi.end(chunks, claims).value
        need(ok == 1, "listed frequencies not certified")
        self.info["stages_used"] = self.mi.info["stages_used"]

        need(self.main_inj.verify(take(chunks, "main-injection-proof"),
                                  "main injection") == 0,
             "mapping not injective on the remainder")
        results = {}
        for key, main in self.mains.items():
            data = take(chunks, "main-proof")
            need(isinstance(data, tuple) and len(data) == 2 and data[0] == key,
                 "main proofs out of order")
            results[key] = c0[key] + main.verify(data[1], f"main {key}")
        return Outcome.ok(results)

    @property
    def words(self):
        total = self.mi.words + self.main_inj.words
        total += sum(mv.words for mv in self.mains.values())
        total += (self.h.words if self.h else 0) + 4
        return total + self.shape.mode.coin_words


# ----------------------------------------------------------------- Fk schemes


def fk_online_multi(updates, n, ks, c_v, *, seed=0, prover=None, mode=MODE_STRICT,
                    coins_seed=None) -> RunResult:
    """Certified exact frequency moments for every order in ks, sharing one
    universe reduction and one MultiIndex run.

    mode is the update model's mode object: MODE_STRICT (StrictMode) for
    strict turnstile streams, MODE_FOOTPRINT (FootprintMode, sized by the
    footprint, buckets occupied by absolute weight) or MODE_AMA (AmaMode,
    public-coin purity checks drawn from coins_seed) for non-strict ones.
    The run is sized by mode.base of the stream's meta. Raises ConfigError
    for any other mode, a mode's name included."""
    ks = tuple(ks)
    if not ks:
        raise ConfigError("name at least one moment order")
    if mode not in (MODE_STRICT, MODE_FOOTPRINT, MODE_AMA):
        raise ConfigError(f"unknown fk mode {mode!r}")
    meta = compute_meta(updates, n)
    shape = Shape(n, mode.base(meta), c_v, meta.weight, mode, mains=ks,
                  coins_seed=coins_seed)
    return run_protocol(updates, seed, "fk", partial(OnlineEngineVerifier, shape),
                        partial(OnlineEngineProver, shape), prover)


def _fk_single(updates, n, k, c_v, **kwargs) -> RunResult:
    """fk_online_multi for the one order k, its outcome the bare Fk value."""
    result = fk_online_multi(updates, n, (k,), c_v, **kwargs)
    if result.outcome.accepted:
        result.outcome = Outcome.ok(result.outcome.value[k])
    return result


def fk_online_run(updates, n, k, c_v, *, seed=0, prover=None) -> RunResult:
    """Online exact Fk in the strict turnstile model."""
    return _fk_single(updates, n, k, c_v, seed=seed, prover=prover)


def fk_footprint_mode(updates, n, k, c_v, *, seed=0, prover=None) -> RunResult:
    """Non-strict-model Fk; purity occupancy and costs scale with the stream
    footprint instead of its sparsity."""
    return _fk_single(updates, n, k, c_v, seed=seed, prover=prover,
                      mode=MODE_FOOTPRINT)


def fk_ama_mode(updates, n, k, c_v, *, seed=0, coins_seed=0, prover=None) -> RunResult:
    """Non-strict-model Fk with public-coin purity checks; costs scale with
    sparsity at an extra log(n) factor."""
    return _fk_single(updates, n, k, c_v, seed=seed, prover=prover,
                      mode=MODE_AMA, coins_seed=coins_seed)


def _prescient_feed(h, main, inj, item, delta):
    """The prescient Fk mapping, the same on both sides: a count lands in
    bucket h(item) of the main instance and of the injection check."""
    b = h(item)
    main.update(0, b, delta)
    inj.add_purity(b, purity_deltas(inj.field, item, delta))


class _PrescientFkProver(Prover):
    def __init__(self, shape_r, n, updates, params_main, params_inj, rng):
        freq = frequency_map(updates)
        self.h = find_perfect_hash(sorted(freq), shape_r, 64, rng, universe=n)
        self.main = DenseProver(params_main)
        self.inj = DenseProver(params_inj)
        for i, f in freq.items():
            _prescient_feed(self.h, self.main, self.inj, i, f)

    def start(self):
        return [Chunk("hash", self.h, self.h.bits)]

    def finish(self, query):
        p1, p2 = prove_all([self.inj, self.main])
        return [Chunk("main-injection-proof", p1, p1.bits),
                Chunk("main-proof", p2, p2.bits)]


class _PrescientFkVerifier(Verifier):
    def __init__(self, n, r, params_main, params_inj, rng):
        self.n = n
        self.r = r
        self.h = None
        self.main = DenseVerifier(params_main, rng)
        self.inj = DenseVerifier(params_inj, rng)
        self.word_bits = params_main.field.bits

    def begin(self, chunks):
        h = take(chunks, "hash")
        need(hash_fits(h, self.n, self.r), "bad hash")
        self.h = h

    def update(self, u):
        _prescient_feed(self.h, self.main, self.inj, u.item, u.delta)

    def end(self, chunks, query):
        need(self.inj.verify(take(chunks, "main-injection-proof"),
                             "injection") == 0, "hash not injective")
        return Outcome.ok(self.main.verify(take(chunks, "main-proof"), "main"))

    @property
    def words(self):
        return self.main.words + self.inj.words + (self.h.words if self.h else 0) + 1


def prescient_reduced_universe(m: int) -> int:
    """Reduced-universe size for the prescient schemes.

    An explicit perfect-hash family could live with r = m^(4/3); a seeded
    random search needs about m^2/2 slots to succeed in a few dozen trials,
    so the range is widened to m^2/2 (at least 16), never below m^(4/3)."""
    return max(16, (m * m) // 2)


def fk_prescient_run(updates, n, k, *, seed=0, prover=None) -> RunResult:
    """Prescient exact Fk: the prover announces a perfect hash up front, the
    verifier certifies it with an Injection run over the mapped pairs."""
    meta = compute_meta(updates, n)
    r = prescient_reduced_universe(meta.sparsity)
    c_a, c_v = balanced_shape(r)
    weight = max(1, meta.weight)
    min_q = max(prop1_min_field(k, r, weight ** k),
                purity_min_field(weight, n, r))
    field = field_at_least(min_q)
    params_main = DenseParams(field, r, c_a, c_v, 1, k,
                              g_power(field, k), weight ** k)
    bound = r * (weight * max(1, n)) ** 2
    params_inj = injection_params(field, r, c_a, c_v, bound)
    return run_protocol(
        updates, seed, "pfk",
        partial(_PrescientFkVerifier, n, r, params_main, params_inj),
        partial(_PrescientFkProver, r, n, updates, params_main, params_inj),
        prover)


# -------------------------------------------------------------- Disjointness


def tagged_meta(updates, n, binary=""):
    """(ids, meta) of a tagged stream: its updates over ids, item i of side t
    as 2i + t, flattened once, and compute_meta over them. The run hands
    the ids to its prover and verifier. binary names a scheme over 0/1
    vectors: it raises ConfigError unless every final count is 0 or 1."""
    ids, universe = stream_ids("tagged", updates, n)
    if binary:
        for ident, f in sorted(frequency_map(ids).items()):
            if f != 1:
                raise ConfigError(f"{binary} needs 0/1 vectors: item {ident >> 1} "
                                  f"of {'ST'[ident & 1]} has count {f}")
    return ids, compute_meta(ids, universe)


def _witnesses(subset, fs, ft):
    """Whether an item with count fs in the first set and ft in the second
    shows the answer 0: for subset an item of X outside Y, for DISJ an item
    in both. The provers offer the smallest item it accepts (_first_witness)
    and the verifiers check it on the counts they certify."""
    return fs >= 1 and (ft == 0 if subset else ft >= 1)


def _first_witness(freq, subset):
    """The smallest item that _witnesses accepts, over a map from each id
    2i + t to its count, or None."""
    return min((ident >> 1 for ident, fs in freq.items()
                if not ident & 1
                and _witnesses(subset, fs, freq.get(ident + 1, 0))),
               default=None)


def _take_witness(chunks, n):
    """The DISJ/subset verifiers' read of a `witness` chunk: an item of
    [0, n)."""
    w = take(chunks, "witness")
    need(type(w) is int and 0 <= w < n, "witness outside universe")
    return w


def _prescient_disj_feed(h, main, ident, delta):
    """The prescient DISJ mapping, the same on both sides: a count of id
    2i + t lands in bucket h(i) of vector t."""
    main.update(ident & 1, h(ident >> 1), delta)


class _PrescientDisjProver(Prover):
    def __init__(self, n, ids, r, params, rng):
        freq = frequency_map(ids)
        self.witness = _first_witness(freq, subset=False)
        self.h = None
        self.main = None
        if self.witness is None:
            self.h = find_perfect_hash(sorted({i >> 1 for i in freq}), r, 64,
                                       rng, universe=n)
            self.main = DenseProver(params)
            for ident, f in freq.items():
                _prescient_disj_feed(self.h, self.main, ident, f)

    def start(self):
        if self.witness is not None:
            return [Chunk("witness", self.witness, 64)]
        return [Chunk("hash", self.h, self.h.bits)]

    def finish(self, query):
        if self.witness is not None:
            return []
        proof = self.main.proof()
        return [Chunk("main-proof", proof, proof.bits)]


class _PrescientDisjVerifier(Verifier):
    def __init__(self, n, r, params, rng):
        self.n = n
        self.r = r
        self.params = params
        self.rng = rng
        self.h = None
        self.main = None
        self.witness = None
        self.wit_counts = [0, 0]
        self.word_bits = params.field.bits

    def begin(self, chunks):
        if chunks and chunks[0].kind == "witness":
            self.witness = _take_witness(chunks, self.n)
        else:
            h = take(chunks, "hash")
            need(hash_fits(h, self.n, self.r), "bad hash")
            self.h = h
            self.main = DenseVerifier(self.params, self.rng)

    def update(self, u):
        ident = u.item
        if self.witness is not None:
            if ident >> 1 == self.witness:
                self.wit_counts[ident & 1] += u.delta
        else:
            _prescient_disj_feed(self.h, self.main, ident, u.delta)

    def end(self, chunks, query):
        if self.witness is not None:
            need(_witnesses(False, *self.wit_counts), "false witness")
            return Outcome.ok(0)
        v = self.main.verify(take(chunks, "main-proof"), "main")
        # a nonzero verified product under a prover-chosen hash proves
        # nothing about the original sets, so only zero is conclusive
        need(v == 0, "mapped product nonzero without witness")
        return Outcome.ok(1)

    @property
    def words(self):
        base = self.main.words if self.main else 4
        return base + (self.h.words if self.h else 0) + 3


def disj_prescient_run(updates, n, *, seed=0, prover=None) -> RunResult:
    """Prescient sparse set-disjointness: witness for intersection, perfect
    hash plus a dense product check for disjointness."""
    ids, meta = tagged_meta(updates, n)
    r = prescient_reduced_universe(meta.sparsity)
    c_a, c_v = balanced_shape(r)
    weight = max(1, meta.weight)
    field = field_at_least(prop1_min_field(2, r, weight ** 2))
    params = DenseParams(field, r, c_a, c_v, 2, 2, g_product(field), weight ** 2)
    return run_protocol(ids, seed, "pdisj",
                        partial(_PrescientDisjVerifier, n, r, params),
                        partial(_PrescientDisjProver, n, ids, r, params), prover)


class _TaggedWitnessProver(OnlineEngineProver):
    """Online prover for DISJ/Subset: the engine, plus a point-query hash
    for the witness branch, drawn before the engine's hashes."""

    def __init__(self, shape, rng, subset=False):
        self.subset = subset
        self.pq_h = random_pairwise_hash(shape.n_ids, shape.c_v, rng)
        super().__init__(shape, rng)

    def start(self):
        return [Chunk("pq-hash", self.pq_h, self.pq_h.bits)] + super().start()

    def finish(self, query):
        w = _first_witness(self.mi.freq, self.subset)
        if w is not None:
            openings, bits = open_buckets(self.pq_h, self.mi.freq,
                                          [2 * w, 2 * w + 1], 2 * self.n)
            return [Chunk("witness", w, 64),
                    Chunk("witness-openings", openings, bits)]
        return super().finish(query)


class _TaggedWitnessVerifier(OnlineEngineVerifier):
    """The engine's verifier, plus the count of X and the witness branch's
    bucket fingerprints over the ids 2i + t, their basis drawn before the
    engine's secret points."""

    def __init__(self, shape, rng, subset=False):
        self.subset = subset
        self.pq = BucketFingerprintState(shape.field, shape.c_a, shape.c_v, rng)
        super().__init__(shape, rng)
        self.f1_x = 0

    def begin(self, chunks):
        self.pq.set_hash(take(chunks, "pq-hash"), 2 * self.n)
        super().begin(chunks)

    def update(self, u):
        self.pq.update(u.item, u.delta)
        if not u.item & 1:
            self.f1_x += u.delta
        super().update(u)

    def _witness_counts(self, item, openings):
        wanted = {2 * item: 0, 2 * item + 1: 0}
        self.pq.check_openings(openings, 2 * self.n, wanted)
        return wanted[2 * item], wanted[2 * item + 1]

    def end(self, chunks, query):
        if chunks and chunks[0].kind == "witness":
            item = _take_witness(chunks, self.n)
            fs, ft = self._witness_counts(item, take(chunks, "witness-openings"))
            need(_witnesses(self.subset, fs, ft),
                 "witness not in X minus Y" if self.subset
                 else "witness not in both sets")
            return Outcome.ok(0)
        ip = super().end(chunks, query).value["ip"]
        if self.subset:
            return Outcome.ok(1 if ip == self.f1_x else 0)
        return Outcome.ok(1 if ip == 0 else 0)

    @property
    def words(self):
        return self.pq.words + super().words + 2


def _tagged_run(updates, n, c_v, seed, prover, label, verifier, honest,
                binary="") -> RunResult:
    """A run of a tagged scheme over one Shape, where S and T items share
    the reduced universe as ids 2i and 2i + 1, the stream the prover and the
    verifier see. The verifier and the honest prover are built as
    verifier(shape, rng) and honest(shape, rng).
    binary: as for tagged_meta."""
    ids, meta = tagged_meta(updates, n, binary)
    shape = Shape(n, meta.sparsity, c_v, meta.weight, MODE_STRICT, mains=("ip",))
    return run_protocol(ids, seed, label, partial(verifier, shape),
                        partial(honest, shape), prover)


def disj_online_run(updates, n, c_v, *, seed=0, prover=None) -> RunResult:
    """Online sparse set-disjointness: 1 iff the certified inner product of
    the two indicator-weight vectors is zero; intersection may instead be
    shown by a witness with two point-query openings."""
    return _tagged_run(updates, n, c_v, seed, prover, "tag",
                       _TaggedWitnessVerifier, _TaggedWitnessProver)


def subset_run(updates, n, c_v, *, seed=0, prover=None) -> RunResult:
    """X subseteq Y for sets streamed interleaved: certified inner product
    f_X . f_Y compared against |X|; a witness in X minus Y shows the
    negative case.

    Raises ConfigError unless both final vectors are 0/1: with a count of 2
    in Y, f_X . f_Y = |X| holds for an X that is not a subset of Y."""
    return _tagged_run(updates, n, c_v, seed, prover, "tag",
                       partial(_TaggedWitnessVerifier, subset=True),
                       partial(_TaggedWitnessProver, subset=True), "subset")


# --------------------------------------------- inner product / Hamming distance
# Certified by the tagged engine's product sum-check: f . g is its "ip"
# value. The Hamming distance of two binary vectors is F1(f) + F1(g) - 2 f.g,
# with F1(f) + F1(g) counted in one word while streaming.


class _ProductVerifier(OnlineEngineVerifier):
    """The tagged engine's verifier plus the F1 counter."""

    def __init__(self, shape, rng, hamming=False):
        super().__init__(shape, rng)
        self.hamming = hamming
        self.f1 = 0

    def update(self, u):
        self.f1 += u.delta
        super().update(u)

    def end(self, chunks, query):
        ip = super().end(chunks, query).value["ip"]
        return Outcome.ok(self.f1 - 2 * ip if self.hamming else ip)

    @property
    def words(self):
        return super().words + 1


def inner_product_run(updates, n, c_v, *, seed=0, prover=None) -> RunResult:
    """Exact f . g, certified by the tagged engine's product sum-check."""
    return _tagged_run(updates, n, c_v, seed, prover, "pair",
                       _ProductVerifier, OnlineEngineProver)


def hamming_run(updates, n, c_v, *, seed=0, prover=None) -> RunResult:
    """Hamming distance of two binary vectors: F1(f) + F1(g) - 2 f.g.

    Raises ConfigError unless both final vectors are 0/1; on other vectors
    that formula is not a distance."""
    return _tagged_run(updates, n, c_v, seed, prover, "pair",
                       partial(_ProductVerifier, hamming=True),
                       OnlineEngineProver, "hamming")
