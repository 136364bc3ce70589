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
prover builds its openings with open_buckets. The point-query verifier feeds
a flat id to BucketFingerprintState.update. Selection and heavy hitters share
one read of the dyadic stream (DyadicVerifier), a loop over the updates that
walks each item's nodes from the root down and gets each node's power of the
basis from its parent's by one squaring (BucketFingerprintState.walk).

Both phases of those two verifiers split over two CPUs where it pays, through
sumcheck._forked: the walk by tree level (read_dyadic), a forked child adding
the bottom levels' terms into c_v partial sums, and the opening checks by
opening (check_openings). A child that fails leaves its share to the calling
process, with the same code, so the buckets, outcomes and reject reasons are
the serial ones."""

from fractions import Fraction
from functools import partial
from itertools import accumulate, islice

from . import sumcheck
from .field import field_at_least
from .protocol import (Chunk, ConfigError, Outcome, Prover, Reject, RunResult,
                       Verifier, COUNT_BITS, id_bits, int_record, need,
                       run_protocol, take)
from .streams import (NONSTRICT, STRICT, PairwiseHash, StreamUpdate,
                      compute_meta, dyadic_decompose, dyadic_levels,
                      dyadic_prefix_nodes, dyadic_universe, hash_fits,
                      random_pairwise_hash)

OVERFLOW_FACTOR = 10  # Markov constant from the completeness argument

# The least node-updates (stream updates times tree levels) of a dyadic walk
# that BucketFingerprintState.read_dyadic forks for, and the levels the
# forked child walks, at the bottom of the tree. On a 2-core VM, over
# prefixes of hh-openings' seed-1 stream (21 levels, medians of 21), the
# serial walk took about 1 us a node-update, and splitting it cost 2.3 ms
# at 2,100 node-updates and 3.6 ms at 8,400, and saved 0.5 ms at 16,800,
# 7 ms at 33,600 and 25 ms at 67,200: break-even near 16,000, and a larger
# process pays more for its fork. The child's one pow an update costs about
# what two or three levels do; over the whole stream (169,008
# node-updates, medians of 31 alternated reads), 7 to 10 child levels read
# it in 110-113 ms and 11 in 124, against 159 serially, and 9 was best
# again in a second sweep (111 ms, against 119 at 8 and 124 at 10).
_WALK_FORK_MIN = 1 << 15
_WALK_CHILD_LEVELS = 9

# The least opened entries of a check_openings call that forks. On the same
# VM, over the openings of prefixes of that stream (16 openings, medians of
# 21 or 31), splitting cost 2.9 ms at 284 entries and 1.2 ms at 950, broke
# even at 1,728 and saved 1.9 ms at 2,470, 7 ms at 4,038 and 35 ms (of 133)
# at the whole stream's 20,650; the cutoff is about twice break-even.
_OPEN_FORK_MIN = 1 << 12


class BucketFingerprintState:
    """c_v fingerprints, one per derived stream x^j = {ids v : h(v) = j}.
    An opened bucket may list at most OVERFLOW_FACTOR * c_a items.

    Bucket j holds sum f_v * basis^v over its ids v. update takes one power
    per id. walk goes down each item's dyadic nodes over a range of levels,
    each node's power being its parent's squared (times the basis for a
    right child), and check_opening steps through an opening's ascending ids by
    gap powers. These three compute each bucket from the hash's fields
    (a, b, p, r), read once when set_hash accepts the hash, so they make
    no call per id.

    The updates add delta * power to a bucket unreduced (their powers stay
    reduced), so a stored bucket is an integer congruent to its
    fingerprint, below weight * q in magnitude. Reading accs reduces every
    bucket in place and returns the same list; check_opening reduces the
    one bucket it compares."""

    def __init__(self, field, c_a, c_v, rng):
        self.field = field
        self.c_v = c_v
        self.max_open = OVERFLOW_FACTOR * c_a
        self.basis = field.rand(rng)
        self._accs = [0] * c_v
        self.h = None
        self.hkey = None
        self.weight = 0

    def set_hash(self, h: PairwiseHash, universe: int):
        need(hash_fits(h, universe, self.c_v), "bad hash description")
        self.h = h
        self.hkey = (h.a, h.b, h.p, h.r)

    @property
    def accs(self):
        """The bucket fingerprints as field elements, reduced in place."""
        q = self.field.q
        self._accs[:] = [a % q for a in self._accs]
        return self._accs

    def update(self, item, delta):
        ha, hb, hp, hr = self.hkey
        b = (ha * item + hb) % hp % hr
        self._accs[b] += delta * pow(self.basis, item, self.field.q)
        self.weight += abs(delta)

    def walk(self, updates, levels, top, bottom, accs):
        """Add delta * basis^v, unreduced, into accs at the bucket of each
        node v on levels top down to bottom of each update's item, in a tree
        of depth `levels`, and return the updates' total and weight (the sum
        of |delta|). Node k of an item is path >> k, path = 2^levels + item,
        and its power of the basis is its parent's squared, times the basis
        when bit k of path is set. The walk starts from the power of node
        path >> (top + 1), one pow per update, except from the root, whose
        parent is node 0, of power 1."""
        q = self.field.q
        basis = self.basis
        ha, hb, hp, hr = self.hkey
        base, shift = 1 << levels, top + 1
        ks = range(top, bottom - 1, -1)
        total = weight = 0
        for u in updates:
            delta = u.delta
            total += delta
            weight += delta if delta > 0 else -delta
            path = base + u.item
            node = path >> shift
            power = pow(basis, node, q) if node else 1
            for k in ks:
                node <<= 1
                power = power * power % q
                if path >> k & 1:
                    node += 1
                    power = power * basis % q
                accs[(ha * node + hb) % hp % hr] += delta * power
        return total, weight

    def update_dyadic(self, item, delta, levels):
        """update(v, delta) at each dyadic node v of `item`: the walk of
        the one update at every level."""
        self.walk((StreamUpdate(item, delta),), levels, levels, 0, self._accs)
        self.weight += (levels + 1) * abs(delta)

    def read_dyadic(self, updates, levels):
        """update_dyadic for each update, in order, and the updates' total
        and weight. From _WALK_FORK_MIN node-updates on, where the process
        may fork, the walk splits by tree level: this process walks the
        root side, and one forked child (sumcheck._forked) the bottom
        _WALK_CHILD_LEVELS levels (at most `levels`, so the root stays
        here), adding into c_v partial sums that it sends back and this
        process adds into the buckets. Both add the serial walk's terms, so
        the buckets end integer for integer as the serial walk leaves them.
        If the sums do not come, this process walks the child's levels."""
        accs = self._accs
        cut = min(_WALK_CHILD_LEVELS, levels)
        if (len(updates) * (levels + 1) < _WALK_FORK_MIN
                or not sumcheck._can_fork()):
            total, weight = self.walk(updates, levels, levels, 0, accs)
        else:
            here = []

            def there():
                part = [0] * self.c_v
                self.walk(updates, levels, cut - 1, 0, part)
                return part

            answer = sumcheck._forked(lambda: here.append(
                self.walk(updates, levels, levels, cut, accs)), there)
            total, weight = here[0]
            if isinstance(answer, list) and len(answer) == self.c_v:
                for b, part in enumerate(answer):
                    accs[b] += part
            else:
                self.walk(updates, levels, cut - 1, 0, accs)
        self.weight += (levels + 1) * weight
        return total, weight

    def check_opening(self, bucket, entries, n, collect=None, arity=2):
        """Verify a claimed full content list for one bucket.

        Entries are integer records of `arity` fields, (item, freq) or
        (item, freq, flag), strictly ascending by item, each hashing to the
        bucket, with nonzero bounded frequencies. Rejects on fingerprint
        mismatch.
        Optionally collects the counts of items the caller cares about into
        `collect` (a dict pre-keyed by item)."""
        q = self.field.q
        ha, hb, hp, hr = self.hkey
        need(isinstance(entries, list), "malformed opening")
        need(len(entries) <= self.max_open, "opening too large")
        acc = 0  # sum of freq * power, unreduced: reduced once, at the check
        prev = -1
        power = 1  # basis^max(prev, 0)
        for e in entries:
            # int_record(e, arity), inline: this runs once per opened entry
            need(isinstance(e, (tuple, list)) and len(e) == arity
                 and type(e[0]) is int and type(e[1]) is int
                 and (arity == 2 or type(e[2]) is int),
                 "malformed opening entry")
            item, freq = e[0], e[1]
            need(prev < item < n, "opening items not sorted inside universe")
            power = power * pow(self.basis, item - max(prev, 0), q) % q
            prev = item
            need((ha * item + hb) % hp % hr == bucket,
                 "opening item in wrong bucket")
            need(freq != 0 and abs(freq) <= self.weight, "implausible opened frequency")
            acc += freq * power
            if collect is not None and item in collect:
                collect[item] = freq
        need(acc % q == self._accs[bucket] % q, "bucket fingerprint mismatch")

    def check_openings(self, openings, n, collect=None, arity=2):
        """Verify a list of (bucket, entries) openings with strictly
        ascending buckets, which must include the bucket of every id in
        `collect`.

        From _OPEN_FORK_MIN opened entries on, where the process may fork,
        the openings split into two contiguous runs of about equal entry
        counts: this process checks the first, and one forked child
        (sumcheck._forked) the second, sending back its first failure and
        the counts it collected. The lower failing index wins, so the
        reason is the serial one. If the answer does not come, this process
        checks the child's run itself."""
        need(isinstance(openings, list), "malformed openings")
        sizes = [len(o[1]) if isinstance(o, (tuple, list)) and len(o) == 2
                 and isinstance(o[1], list) else 0 for o in openings]
        m = len(openings)
        if m < 2 or sum(sizes) < _OPEN_FORK_MIN or not sumcheck._can_fork():
            failed = self._check_run(openings, 0, m, n, collect, arity)
        else:
            prefix = list(accumulate(sizes))
            cut = min(range(1, m),
                      key=lambda s: abs(2 * prefix[s - 1] - prefix[-1]))
            here = []

            def there():
                share = None if collect is None else dict.fromkeys(collect, 0)
                failed = self._check_run(openings, cut, m, n, share, arity)
                return failed, share and {v: f for v, f in share.items() if f}

            answer = sumcheck._forked(lambda: here.append(
                self._check_run(openings, 0, cut, n, collect, arity)), there)
            if isinstance(answer, tuple) and len(answer) == 2:
                theirs, got = answer
                if got:
                    collect.update(got)
            else:
                theirs = self._check_run(openings, cut, m, n, collect, arity)
            # this process's run comes first: its failure has the lower index
            failed = here[0] or theirs
        if failed:
            raise Reject(failed[1])
        opened = {b for b, _ in openings}
        need(all(self.h(v) in opened for v in collect or ()),
             "required bucket not opened")

    def _check_run(self, openings, start, stop, n, collect, arity):
        """The checks of check_openings, opening by opening: the structure
        of openings[:stop] and, from index `start`, each opening's content
        (check_opening). Returns the (index, reason) of the first check
        that fails, or None."""
        prev = -1
        for i, o in enumerate(islice(openings, stop)):
            try:
                need(isinstance(o, (tuple, list)) and len(o) == 2
                     and type(o[0]) is int, "malformed opening")
                bucket, entries = o
                need(prev < bucket < self.c_v, "buckets not sorted")
                prev = bucket
                if i >= start:
                    self.check_opening(bucket, entries, n, collect, arity)
            except Reject as exc:
                return i, str(exc)
        return None

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
        self.state.set_hash(take(chunks, "hash"), self.universe)

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
        wanted = {query: 0}
        self.state.check_opening(self.state.h(query), take(chunks, "opening"),
                                 self.n, collect=wanted)
        return Outcome.ok(wanted[query])


def _check_cells(updates, n, c_a, c_v, dyadic, model):
    """The size check of the three opening schemes: raises ConfigError
    unless c_a and c_v are at least 1 and the c_a * c_v cells cover the
    sparsity of the stream's items or, when `dyadic`, of its derived dyadic
    stream, (levels + 1) nodes for each item, and for at least one. The
    stream is sized by compute_meta, which checks it against `model`, and
    its meta is returned."""
    if c_a < 1 or c_v < 1:
        raise ConfigError(f"c_a and c_v must be at least 1, not {c_a} and {c_v}")
    meta = compute_meta(updates, n, model)
    m, what = meta.sparsity, "stream's sparsity"
    if dyadic:
        m, what = max(1, m) * (dyadic_levels(n) + 1), "derived dyadic sparsity"
    if c_a * c_v < m:
        raise ConfigError(f"c_a * c_v must cover the {what}")
    return meta


def pq_run(updates, n, query, *, c_a, c_v, seed=0, prover=None) -> RunResult:
    """Frequency of `query`, certified against one opened hash bucket.
    Raises ConfigError for a query outside [0, n) and as _check_cells."""
    if not 0 <= query < n:
        raise ConfigError(f"query {query} outside [0, {n})")
    _check_cells(updates, n, c_a, c_v, dyadic=False, model=NONSTRICT)
    return run_protocol(updates, seed, "pq", partial(PointQueryVerifier, n, c_a, c_v),
                        partial(PointQueryProver, n, c_v), prover, query)


# ------------------------------------------------------------------ Selection


class SelectionProver(OpeningProver):
    def __init__(self, n, c_v, rng):
        super().__init__(n, dyadic_universe(n), c_v, rng)

    def answer(self, rank):
        """The smallest item whose prefix count reaches rank, a rank in
        [1, N] as selection_run admits."""
        total = 0
        for i in sorted(self.freq):
            total += self.freq[i]
            if total >= rank:
                return i

    def finish(self, query):
        j = self.answer(query)
        nodes = dyadic_prefix_nodes(j, self.n) + dyadic_prefix_nodes(j + 1, self.n)
        openings, bits = open_buckets(self.h, dyadic_counts(self.freq, self.n),
                                      nodes, self.universe)
        return [Chunk("selection-answer", (j, openings), COUNT_BITS + bits)]


class DyadicVerifier(OpeningVerifier):
    """Verifier side of selection and heavy hitters: the bucket fingerprints
    of the derived dyadic stream, the stream's total count and its weight
    seen (the sum of |delta|). read walks every update's nodes in one loop
    (BucketFingerprintState.read_dyadic)."""

    def __init__(self, n, c_a, c_v, rng):
        super().__init__(n, dyadic_universe(n), c_a, c_v, rng)
        self.levels = dyadic_levels(n)
        self.total = 0
        self.weight_seen = 0

    def update(self, u):
        self.read((u,))

    def read(self, updates):
        total, weight = self.state.read_dyadic(updates, self.levels)
        self.total += total
        self.weight_seen += weight


class SelectionVerifier(DyadicVerifier):
    extra_words = 4

    def end(self, chunks, query):
        rank = query
        need(1 <= rank <= self.total, "rank outside [1, N]")
        answer = take(chunks, "selection-answer")
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
    the parallel prefix-count openings. Raises ConfigError as _check_cells
    and for a rank outside [1, N], N the stream's total count, summed from
    the final counts of _check_cells' one pass."""
    meta = _check_cells(updates, n, c_a, c_v, dyadic=True, model=STRICT)
    total = sum(meta.counts.values())
    if not 1 <= rank <= total:
        raise ConfigError(f"rank {rank} outside [1, {total}]")
    return run_protocol(updates, seed, "sel", partial(SelectionVerifier, n, c_a, c_v),
                        partial(SelectionProver, n, c_v), prover, rank)


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


class HeavyHittersVerifier(DyadicVerifier):
    extra_words = 8

    def __init__(self, n, c_a, c_v, rng):
        super().__init__(n, c_a, c_v, rng)
        # multiset-equation fingerprint bases
        self.sigma = self.state.field.rand(rng)
        self.tau = self.state.field.rand(rng)

    def end(self, chunks, query):
        phi = Fraction(query)
        records = take(chunks, "hh-records")
        need(isinstance(records, list)
             and all(int_record(rec, 3) for rec in records), "malformed records")
        if self.total <= 0:
            need(not records, "claims on an empty stream")
            take(chunks, "hh-openings")
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

        openings = take(chunks, "hh-openings")
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
    certification, "openings"; any other value raises ConfigError, as do
    a phi outside (0, 1) and the sizes _check_cells refuses."""
    if not 0 < phi < 1:
        raise ConfigError("phi must be in (0, 1)")
    if mode != "openings":
        raise ConfigError(f"unknown heavyhitters mode {mode!r}")
    _check_cells(updates, n, c_a, c_v, dyadic=True, model=STRICT)
    return run_protocol(updates, seed, "hh", partial(HeavyHittersVerifier, n, c_a, c_v),
                        partial(HeavyHittersProver, n, c_v), prover, Fraction(phi))
