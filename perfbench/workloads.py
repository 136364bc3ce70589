"""Seeded workload generators and brute-force oracles.

Every workload fixes the multiset of update magnitudes, so the stream weight
(and with it every field size the schemes derive) is the same for all seeds;
a seed only chooses the item ids and the update order. That keeps the work
per run steady across seeds while the hash collisions, and so the collision
list, the MultiIndex stages and the opened buckets, still vary.
"""

from dataclasses import dataclass
from fractions import Fraction

from streamcert.harness import RunConfig
from streamcert.protocol import derive_rng
from streamcert.streams import STRICT, StreamUpdate

N = 1 << 20
STREAMS_PER_RUN = 12


@dataclass(frozen=True)
class Workload:
    name: str
    scheme: str
    params: dict
    cli_args: tuple
    adversaries: tuple
    make: object      # (rng) -> list of StreamUpdate
    oracle: object    # (updates) -> the exact answer

    def config(self, seed, prover="honest"):
        return RunConfig(self.scheme, N, STRICT, seed=seed, prover=prover,
                         params=dict(self.params))


def frequencies(updates):
    freq = {}
    for u in updates:
        freq[u.item] = freq.get(u.item, 0) + u.delta
    return {i: f for i, f in freq.items() if f}


def second_moment(updates):
    return sum(f * f for f in frequencies(updates).values())


def heavy_set(phi):
    bar = Fraction(phi)

    def oracle(updates):
        freq = frequencies(updates)
        total = sum(freq.values())
        return frozenset(i for i, f in freq.items() if f >= bar * total)

    return oracle


def _interleave(rng, base, pairs):
    """Shuffle single inserts with insert/delete pairs on the same items.

    base: (item, delta) inserts; pairs: (item, d) with d > 0. Each pair's
    first occurrence in the shuffled order is the insert, so every prefix
    frequency stays nonnegative (strict turnstile) and every pair nets 0.
    """
    tokens = [("b", k) for k in range(len(base))]
    tokens += [("p", k) for k in range(len(pairs))] * 2
    rng.shuffle(tokens)
    opened = set()
    out = []
    for kind, k in tokens:
        if kind == "b":
            out.append(StreamUpdate(*base[k]))
            continue
        item, d = pairs[k]
        out.append(StreamUpdate(item, -d if k in opened else d))
        opened.add(k)
    return out


def light_churn_stream(m, churn_items):
    """m distinct items with frequencies 1, 2, 3, ... cycling; churn_items of
    them also get one (+2, -2) pair."""
    def make(rng):
        items = rng.sample(range(N), m)
        base = [(i, 1 + k % 3) for k, i in enumerate(items)]
        pairs = [(i, 2) for i in rng.sample(items, churn_items)]
        return _interleave(rng, base, pairs)
    return make


def heavy_churn_stream(m, n_pairs):
    """m live items and n_pairs insert/delete pairs on random live items."""
    def make(rng):
        items = rng.sample(range(N), m)
        base = [(i, 1 + k % 3) for k, i in enumerate(items)]
        pairs = [(rng.choice(items), 1 + k % 3) for k in range(n_pairs)]
        return _interleave(rng, base, pairs)
    return make


def zipf_churn_stream(m, extra, exponent, n_pairs):
    """m items, each inserted once plus a share of `extra` unit inserts drawn
    by Zipf rank, with n_pairs unit insert/delete pairs on live items."""
    weights = [1 / (r + 1) ** exponent for r in range(m)]

    def make(rng):
        items = rng.sample(range(N), m)
        counts = [1] * m
        for r in rng.choices(range(m), weights=weights, k=extra):
            counts[r] += 1
        base = [(items[r], 1) for r in range(m) for _ in range(counts[r])]
        pairs = [(rng.choice(items), 1) for _ in range(n_pairs)]
        return _interleave(rng, base, pairs)
    return make


PHI = 0.01

# Sizes. fk-online uses m = 1200, not 4096: it keeps c_a = 512, so a cold
# process still builds a 512-column extension grid (most of its cold time),
# while a warm run takes about 1 s and a run window holds a dozen of them.
# At this m three marked MultiIndex stages is the common case, which keeps
# the stream-to-stream spread of the proof work small. fk-churn fans every
# update out to 1 + 3 + 4 * t_max = 36 dense updates on each side.
# hh-openings covers m * (levels + 1) = 2048 * 21 derived items with
# c_a * c_v = 4096 * 16; c_v = 16 keeps the prover's per-bucket scan small,
# so the verifier's 21 fingerprint updates per stream update dominate.
WORKLOADS = {
    w.name: w for w in (
        Workload("fk-online", "fk", {"k": 2, "c_v": 16, "mode": "online"},
                 ("fk", "--k", "2", "--cv", "16", "--mode", "online"),
                 ("tamper-proof-polynomial", "false-collision-list"),
                 light_churn_stream(1200, 120), second_moment),
        Workload("fk-churn", "fk", {"k": 2, "c_v": 16, "mode": "online"},
                 ("fk", "--k", "2", "--cv", "16", "--mode", "online"),
                 ("tamper-proof-polynomial", "false-collision-list"),
                 heavy_churn_stream(256, 8000), second_moment),
        Workload("hh-openings", "heavyhitters",
                 {"phi": PHI, "c_a": 4096, "c_v": 16, "hh_mode": "openings"},
                 ("heavyhitters", "--phi", str(PHI), "--ca", "4096", "--cv", "16",
                  "--hh-mode", "openings"),
                 ("tamper-proof-polynomial", "false-collision-list",
                  "omitted-heavy-hitter"),
                 zipf_churn_stream(2048, 4000, 1.2, 1000), heavy_set(PHI)),
    )
}


def run_inputs(workload, seed, count):
    """[(protocol seed, updates)] for streams 0..count-1 of a run seed; a pure
    function of its arguments."""
    return [(seed * 1000 + k, workload.make(derive_rng((seed, k), workload.name)))
            for k in range(count)]
