"""Point queries over sparse streams, and their selection / heavy-hitters
reductions.

The verifier never learns the query universe: it keeps one fingerprint per
hash bucket of a prover-chosen pairwise hash. At the end of the stream the
prover opens the relevant buckets by listing their exact sparse contents;
the verifier recomputes each opened bucket's fingerprint and compares.

OpeningProver and OpeningVerifier hold what the three schemes share: the
hash, sent as the one start chunk, the prover's net counts and the
verifier's BucketFingerprintState. Point queries run over the items,
selection and heavy hitters over the derived stream of dyadic nodes, and
heavy hitters certify their records by these openings alone. The online
DISJ/subset witness reuses BucketFingerprintState over 2*item+tag, and every
prover builds its openings with open_buckets. The verifier feeds a flat id
to BucketFingerprintState.update. For the dyadic stream it calls
update_dyadic once per stream update, which walks the item's nodes from the
root down and gets each node's power of the basis from its parent's by one
squaring."""

from fractions import Fraction

from .field import field_at_least
from .protocol import (Chunk, ConfigError, Outcome, Prover, RunResult,
                       Verifier, COUNT_BITS, derive_rng, id_bits, int_record,
                       need, resolve_prover, run_protocol)
from .streams import (PairwiseHash, compute_meta, dyadic_decompose,
                      dyadic_levels, dyadic_prefix_nodes, dyadic_universe,
                      hash_fits, random_pairwise_hash)

OVERFLOW_FACTOR = 10  # Markov constant from the completeness argument


class BucketFingerprintState:
    """c_v fingerprints, one per derived stream x^j = {ids v : h(v) = j}.
    An opened bucket may list at most OVERFLOW_FACTOR * c_a items.

    Bucket j holds sum f_v * basis^v over its ids v. update takes one power
    per id. update_dyadic walks an item's dyadic nodes from the root, each
    node's power being its parent's squared (times the basis for a right
    child), and check_opening steps through an opening's ascending ids by
    gap powers. These three compute each bucket from the hash's fields
    (a, b, p, r), read once when set_hash accepts the hash, so they make
    no call per id."""

    def __init__(self, field, c_a, c_v, rng):
        self.field = field
        self.c_v = c_v
        self.max_open = OVERFLOW_FACTOR * c_a
        self.basis = field.rand(rng)
        self.accs = [0] * c_v
        self.h = None
        self.hkey = None
        self.weight = 0

    def set_hash(self, h: PairwiseHash, universe: int):
        need(hash_fits(h, universe, self.c_v), "bad hash description")
        self.h = h
        self.hkey = (h.a, h.b, h.p, h.r)

    def update(self, item, delta):
        q = self.field.q
        ha, hb, hp, hr = self.hkey
        b = (ha * item + hb) % hp % hr
        self.accs[b] = (self.accs[b] + delta * pow(self.basis, item, q)) % q
        self.weight += abs(delta)

    def update_dyadic(self, item, delta, levels):
        """update(v, delta) at each dyadic node v of `item`, walking from the
        root down: node k is path >> k, and its power of the basis is its
        parent's squared, times the basis when bit k of path is set."""
        q = self.field.q
        basis, accs = self.basis, self.accs
        ha, hb, hp, hr = self.hkey
        path = (1 << levels) + item
        node = path >> (levels + 1)  # the root's parent, 0 for items in [2^L]
        power = pow(basis, node, q)
        for k in range(levels, -1, -1):
            node <<= 1
            power = power * power % q
            if path >> k & 1:
                node += 1
                power = power * basis % q
            b = (ha * node + hb) % hp % hr
            accs[b] = (accs[b] + delta * power) % q
        self.weight += (levels + 1) * abs(delta)

    def check_opening(self, bucket, entries, n, collect=None, arity=2):
        """Verify a claimed full content list for one bucket.

        Entries are integer records of `arity` fields that start with
        (item, freq), strictly ascending by item, each hashing to the bucket,
        with nonzero bounded frequencies. Rejects on fingerprint mismatch.
        Optionally collects the counts of items the caller cares about into
        `collect` (a dict pre-keyed by item)."""
        q = self.field.q
        ha, hb, hp, hr = self.hkey
        need(isinstance(entries, list), "malformed opening")
        need(len(entries) <= self.max_open, "opening too large")
        acc = 0
        prev = -1
        power = 1  # basis^max(prev, 0)
        for e in entries:
            # int_record(e, arity), inline: this runs once per opened entry
            need(isinstance(e, (tuple, list)) and len(e) == arity
                 and not [v for v in e if type(v) is not int],
                 "malformed opening entry")
            item, freq = e[0], e[1]
            need(prev < item < n, "opening items not sorted inside universe")
            power = power * pow(self.basis, item - max(prev, 0), q) % q
            prev = item
            need((ha * item + hb) % hp % hr == bucket,
                 "opening item in wrong bucket")
            need(freq != 0 and abs(freq) <= self.weight, "implausible opened frequency")
            acc = (acc + freq * power) % q
            if collect is not None and item in collect:
                collect[item] = freq
        need(acc == self.accs[bucket], "bucket fingerprint mismatch")

    def check_openings(self, openings, n, collect=None, arity=2):
        """Verify a list of (bucket, entries) openings with strictly
        ascending buckets, which must include the bucket of every id in
        `collect`."""
        need(isinstance(openings, list), "malformed openings")
        prev = -1
        for o in openings:
            need(isinstance(o, (tuple, list)) and len(o) == 2
                 and type(o[0]) is int, "malformed opening")
            bucket, entries = o
            need(prev < bucket < self.c_v, "buckets not sorted")
            prev = bucket
            self.check_opening(bucket, entries, n, collect, arity)
        opened = {b for b, _ in openings}
        need(all(self.h(v) in opened for v in collect or ()),
             "required bucket not opened")

    @property
    def words(self):
        return self.c_v + 2 + (self.h.words if self.h else 0) + 1


def opening_bits(entries, n, flag=False):
    """Bits of (id, count) entries, or of (id, count, flag) ones."""
    return len(entries) * (id_bits(n) + COUNT_BITS + (1 if flag else 0))


def open_buckets(h, counts, items, n, flagged=None):
    """The prover's openings of the buckets of `items`, and their bits.

    `counts` maps ids of [n] to their counts; one pass groups the nonzero
    ones by bucket. Returns ([(bucket, entries)], bits) with buckets and
    entries ascending. An entry is (id, count), or (id, count, flag) when a
    set `flagged` is given, the flag telling whether the id is in it. Each
    opening pays one count word for its bucket."""
    groups = {h(v): [] for v in items}
    for v, c in counts.items():
        if c:
            entries = groups.get(h(v))
            if entries is not None:
                entries.append((v, c) if flagged is None
                               else (v, c, 1 if v in flagged else 0))
    openings = [(b, sorted(groups[b])) for b in sorted(groups)]
    bits = sum(COUNT_BITS + opening_bits(e, n, flagged is not None)
               for _, e in openings)
    return openings, bits


def dyadic_counts(freq, n):
    """Counts of the derived dyadic stream: each dyadic node's total
    frequency over the nonzero entries of `freq`."""
    counts = {}
    for i, f in freq.items():
        if f:
            for node in dyadic_decompose(i, n):
                counts[node] = counts.get(node, 0) + f
    return counts


class OpeningProver(Prover):
    """Prover side of the point-query family: a pairwise hash of the ids of
    `universe` into c_v buckets, sent as the one start chunk, and the net
    count of each stream item."""

    def __init__(self, n, universe, c_v, rng):
        self.n = n
        self.universe = universe
        self.h = random_pairwise_hash(universe, c_v, rng)
        self.freq = {}

    def start(self):
        return [Chunk("hash", self.h, self.h.bits)]

    def on_update(self, u):
        self.freq[u.item] = self.freq.get(u.item, 0) + u.delta


class OpeningVerifier(Verifier):
    """Verifier side of the point-query family: the bucket fingerprints of
    the ids of `universe`, under the hash of the one start chunk. A subclass
    feeds them in its own update and declares the words of its own state as
    the class attribute `extra_words`."""

    def __init__(self, n, universe, c_a, c_v, rng):
        self.n = n
        self.universe = universe
        # a forged bucket passes with probability at most universe / q, and
        # ids v and v + q - 1 share every power of the basis: q must exceed
        # the universe, and this q keeps c_v forged buckets below 2^-40
        field = field_at_least(universe * c_v << 40)
        self.state = BucketFingerprintState(field, c_a, c_v, rng)
        self.word_bits = field.bits

    def begin(self, chunks):
        need(len(chunks) == 1 and chunks[0].kind == "hash", "missing hash")
        self.state.set_hash(chunks[0].data, self.universe)

    @property
    def words(self):
        return self.state.words + self.extra_words


# ----------------------------------------------------------------- PointQuery


class PointQueryProver(OpeningProver):
    def __init__(self, n, c_v, rng):
        super().__init__(n, n, c_v, rng)

    def finish(self, query):
        [(_, entries)], _ = open_buckets(self.h, self.freq, [query], self.n)
        return [Chunk("opening", entries, opening_bits(entries, self.n))]


class PointQueryVerifier(OpeningVerifier):
    extra_words = 1

    def __init__(self, n, c_a, c_v, rng):
        super().__init__(n, n, c_a, c_v, rng)

    def update(self, u):
        self.state.update(u.item, u.delta)

    def end(self, chunks, query):
        need(len(chunks) == 1 and chunks[0].kind == "opening", "missing opening")
        wanted = {query: 0}
        self.state.check_opening(self.state.h(query), chunks[0].data, self.n,
                                 collect=wanted)
        return Outcome.ok(wanted[query])


def pq_run(updates, n, query, *, c_a, c_v, seed=0, prover=None) -> RunResult:
    """Frequency of `query`, certified against one opened hash bucket."""
    if not 0 <= query < n:
        raise ConfigError(f"query {query} outside [0, {n})")
    if c_a * c_v < compute_meta(updates, n).sparsity:
        raise ConfigError("c_a * c_v must cover the stream's sparsity")
    verifier = PointQueryVerifier(n, c_a, c_v, derive_rng(seed, "pq-v"))
    prover = resolve_prover(prover, lambda: PointQueryProver(n, c_v, derive_rng(seed, "pq-p")))
    return run_protocol(verifier, prover, updates, query)


# ------------------------------------------------------------------ Selection


class SelectionProver(OpeningProver):
    def __init__(self, n, c_v, rng):
        super().__init__(n, dyadic_universe(n), c_v, rng)

    def answer(self, rank):
        total = 0
        for i in sorted(self.freq):
            total += self.freq[i]
            if total >= rank:
                return i
        return None

    def finish(self, query):
        rank = query
        j = self.answer(rank)
        if j is None:
            return [Chunk("no-answer", None, 1)]
        nodes = dyadic_prefix_nodes(j, self.n) + dyadic_prefix_nodes(j + 1, self.n)
        openings, bits = open_buckets(self.h, dyadic_counts(self.freq, self.n),
                                      nodes, self.universe)
        return [Chunk("selection-answer", (j, openings), COUNT_BITS + bits)]


class SelectionVerifier(OpeningVerifier):
    extra_words = 4

    def __init__(self, n, c_a, c_v, rng):
        super().__init__(n, dyadic_universe(n), c_a, c_v, rng)
        self.levels = dyadic_levels(n)
        self.total = 0

    def update(self, u):
        self.total += u.delta
        self.state.update_dyadic(u.item, u.delta, self.levels)

    def end(self, chunks, query):
        rank = query
        need(1 <= rank <= self.total, "rank outside [1, N]")
        need(len(chunks) == 1 and chunks[0].kind == "selection-answer", "missing answer")
        answer = chunks[0].data
        need(isinstance(answer, (tuple, list)) and len(answer) == 2
             and type(answer[0]) is int, "malformed answer")
        j, openings = answer
        need(0 <= j < self.n, "answer outside universe")
        below = dyadic_prefix_nodes(j, self.n)
        upto = dyadic_prefix_nodes(j + 1, self.n)
        wanted = {v: 0 for v in below}
        wanted.update({v: 0 for v in upto})
        self.state.check_openings(openings, self.universe, wanted)
        t_below = sum(wanted[v] for v in below)
        t_upto = sum(wanted[v] for v in upto)
        need(t_below < rank <= t_upto, "rank predicate violated")
        return Outcome.ok(j)


def selection_run(updates, n, rank, *, c_a, c_v, seed=0, prover=None) -> RunResult:
    """Item of the given rank in the strict-turnstile frequency distribution.

    One bucket-fingerprint state over the derived dyadic stream serves all
    the parallel prefix-count openings."""
    m_derived = compute_meta(updates, n).sparsity * (dyadic_levels(n) + 1)
    if c_a * c_v < m_derived:
        raise ConfigError("c_a * c_v must cover the derived dyadic sparsity")
    verifier = SelectionVerifier(n, c_a, c_v, derive_rng(seed, "sel-v"))
    prover = resolve_prover(prover, lambda: SelectionProver(n, c_v, derive_rng(seed, "sel-p")))
    return run_protocol(verifier, prover, updates, rank)


# --------------------------------------------------------------- HeavyHitters
#
# The prover presents the dyadic nodes claimed heavy as an ancestor-closed
# tree plus, for every non-claimed child of a claimed node, its exact count.
# Record multisets are tied together with fingerprints so the verifier keeps
# O(1) state beyond the bucket fingerprints:
#   children-of-claimed-nonleaf == claimed-nonroot + nonclaimed-records
# forces closure and coverage; every nonzero record count is certified by
# the bucket openings of the derived stream; and each claimed non-leaf
# node's count equals the sum of its children's record counts, which pins
# the records of count 0 that the openings cannot reach.


class HeavyHittersProver(OpeningProver):
    def __init__(self, n, c_v, rng):
        super().__init__(n, dyadic_universe(n), c_v, rng)

    def _records(self, counts, phi):
        phi = Fraction(phi)
        # c >= phi * total, compared in integers as the verifier does
        den, bar = phi.denominator, phi.numerator * sum(self.freq.values())
        claimed = {v for v, c in counts.items() if c * den >= bar}
        recs = {}
        for v in claimed:
            recs[v] = (counts.get(v, 0), 1)
            if v < (1 << dyadic_levels(self.n)):  # non-leaf: cover children
                for ch in (2 * v, 2 * v + 1):
                    if ch not in claimed:
                        recs[ch] = (counts.get(ch, 0), 0)
        return [(v,) + recs[v] for v in sorted(recs)]

    def finish(self, query):
        counts = dyadic_counts(self.freq, self.n)
        records = self._records(counts, query)
        queried = {v for v, _, _ in records}
        openings, bits = open_buckets(self.h, counts, queried, self.universe,
                                      flagged=queried)
        return [Chunk("hh-records", records,
                      opening_bits(records, self.universe, flag=True)),
                Chunk("hh-openings", openings, bits)]


class HeavyHittersVerifier(OpeningVerifier):
    extra_words = 8

    def __init__(self, n, c_a, c_v, rng):
        super().__init__(n, dyadic_universe(n), c_a, c_v, rng)
        self.levels = dyadic_levels(n)
        self.total = 0
        self.weight_seen = 0
        # multiset-equation fingerprint bases
        self.sigma = self.state.field.rand(rng)
        self.tau = self.state.field.rand(rng)

    def update(self, u):
        self.total += u.delta
        self.weight_seen += abs(u.delta)
        self.state.update_dyadic(u.item, u.delta, self.levels)

    def end(self, chunks, query):
        phi = Fraction(query)
        need(chunks and chunks[0].kind == "hh-records", "missing records")
        records = chunks[0].data
        need(isinstance(records, list)
             and all(int_record(rec, 3) for rec in records), "malformed records")
        if self.total <= 0:
            need(not records, "claims on an empty stream")
            return Outcome.ok(frozenset())
        q = self.state.field.q
        leaf_base = 1 << self.levels
        sigma, top = self.sigma, self.universe
        heavy_items = []
        # closure: the children of claimed non-leaf nodes (fp_children) are
        # the claimed non-root nodes and the non-claimed records (fp_connect).
        # At exponents top + v, above every closure exponent, the same pair
        # checks that each claimed non-leaf v's count is its children's sum.
        fp_children = 0
        fp_connect = 0
        fp_counts_a = 0    # (node, count) multiset over records
        prev = -1
        root_claimed = False
        for node, count, flag in records:
            need(prev < node < self.universe and node >= 1, "records not sorted")
            prev = node
            need(0 <= count <= self.weight_seen, "implausible record count")
            heavy = count * phi.denominator >= phi.numerator * self.total
            if flag:
                need(heavy, "claimed node below threshold")
                if node == 1:
                    root_claimed = True
                if node < leaf_base:
                    fp_children = (fp_children + pow(sigma, 2 * node, q)
                                   + pow(sigma, 2 * node + 1, q)
                                   + count * pow(sigma, top + node, q)) % q
                else:
                    heavy_items.append(node - leaf_base)
            else:
                need(not heavy, "unclaimed node meets threshold")
            if node != 1:
                fp_connect = (fp_connect + pow(sigma, node, q)
                              + count * pow(sigma, top + node // 2, q)) % q
            fp_counts_a = (fp_counts_a + count * pow(self.tau, node, q)) % q
        need(root_claimed, "root must be claimed for a nonempty stream")
        need(fp_children == fp_connect, "tree closure fingerprints differ")

        need(len(chunks) == 2 and chunks[1].kind == "hh-openings", "missing openings")
        openings = chunks[1].data
        self.state.check_openings(openings, self.universe, arity=3)
        fp_counts_b = 0
        for _, entries in openings:
            for v, c, qflag in entries:
                if qflag:
                    fp_counts_b = (fp_counts_b + c * pow(self.tau, v, q)) % q
        need(fp_counts_a == fp_counts_b, "record counts not matched by openings")
        return Outcome.ok(frozenset(heavy_items))


def heavyhitters_run(updates, n, phi, *, c_a, c_v, seed=0, prover=None,
                     mode="openings") -> RunResult:
    """All items with frequency >= phi * N, certified exactly by parallel
    bucket openings of the derived dyadic stream. `mode` names that one
    certification, "openings"; any other value raises ConfigError."""
    if not 0 < phi < 1:
        raise ConfigError("phi must be in (0, 1)")
    if mode != "openings":
        raise ConfigError(f"unknown heavyhitters mode {mode!r}")
    m_derived = max(1, compute_meta(updates, n).sparsity) * (dyadic_levels(n) + 1)
    if c_a * c_v < m_derived:
        raise ConfigError("c_a * c_v must cover the derived dyadic sparsity")
    verifier = HeavyHittersVerifier(n, c_a, c_v, derive_rng(seed, "hh-v"))
    prover = resolve_prover(prover, lambda: HeavyHittersProver(
        n, c_v, derive_rng(seed, "hh-p")))
    return run_protocol(verifier, prover, updates, Fraction(phi))
