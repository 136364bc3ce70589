"""Stream data model: update types, turnstile models, sparsity accounting,
incremental fingerprints, pairwise/perfect hashing, dyadic decomposition,
the four stream kinds (plain, tagged, bucketed, edges), each declared once
with its file format, its flattening to ids and its universe check, and the
witness, z and claims files the CLI reads."""

from dataclasses import dataclass

from .field import next_prime
from .protocol import ConfigError

INSERT_ONLY = "insert"
STRICT = "strict"
NONSTRICT = "nonstrict"
MODELS = (INSERT_ONLY, STRICT, NONSTRICT)


class ModelViolation(ValueError):
    """Stream contradicts its declared update model."""


class PerfectHashError(RuntimeError):
    """Random search exhausted its trial budget without an injective hash."""


@dataclass(frozen=True)
class StreamUpdate:
    item: int
    delta: int


@dataclass(frozen=True)
class BucketedUpdate:
    item: int
    bucket: int
    delta: int


@dataclass(frozen=True)
class StreamMeta:
    """Counters of a fully-scanned stream.

    n: universe size, length: number of updates, sparsity: items with nonzero
    final frequency, footprint: distinct items ever touched, weight: sum of
    |delta| (equals length for unit-update streams).
    """

    n: int
    length: int
    sparsity: int
    footprint: int
    weight: int


def compute_meta(updates, n) -> StreamMeta:
    """The sizing pass every run function makes over its updates; raises
    ConfigError for an item outside [0, n)."""
    freq = {}
    weight = 0
    count = 0
    for u in updates:
        freq[u.item] = freq.get(u.item, 0) + u.delta
        weight += abs(u.delta)
        count += 1
    for i in freq:
        if not 0 <= i < n:
            raise ConfigError(f"item {i} outside [0, {n})")
    m = sum(1 for v in freq.values() if v != 0)
    return StreamMeta(n=n, length=count, sparsity=m, footprint=len(freq), weight=weight)


def validate_stream(updates, n, model):
    """Eagerly enforce the declared update model; raises ModelViolation.

    Scheme soundness arguments assume the model, so violating inputs are
    rejected before any scheme runs.
    """
    if model not in MODELS:
        raise ModelViolation(f"unknown model {model!r}")
    freq = {}
    for u in updates:
        if not 0 <= u.item < n:
            raise ModelViolation(f"item {u.item} outside [0, {n})")
        if u.delta == 0:
            raise ModelViolation("zero-delta update")
        if model == INSERT_ONLY and u.delta < 0:
            raise ModelViolation("negative delta in insert-only stream")
        if model == STRICT:
            f = freq.get(u.item, 0) + u.delta
            if f < 0:
                raise ModelViolation(f"prefix frequency of item {u.item} dropped below zero")
            freq[u.item] = f


def frequency_map(updates) -> dict:
    """Naive item -> final frequency map (zero-frequency items dropped)."""
    freq = {}
    for u in updates:
        freq[u.item] = freq.get(u.item, 0) + u.delta
    return {i: f for i, f in freq.items() if f != 0}


# ---------------------------------------------------------------- fingerprints


def fingerprint_of_range(field, basis, n):
    """Fingerprint of the all-ones vector over [n]: sum_{i<n} rho^i."""
    q = field.q
    if basis == 1:
        return n % q
    num = (pow(basis, n, q) - 1) % q
    return num * pow(basis - 1, q - 2, q) % q


# ---------------------------------------------------------------- hashing


@dataclass(frozen=True)
class PairwiseHash:
    """h(x) = ((a*x + b) mod p) mod r, from the standard pairwise family."""

    a: int
    b: int
    p: int
    r: int

    def __call__(self, x: int) -> int:
        return (self.a * x + self.b) % self.p % self.r

    @property
    def words(self):
        return 4

    @property
    def bits(self):
        return 4 * 64


def hash_fits(h, universe: int, r: int) -> bool:
    """Whether a hash description received from the prover is a member of
    the pairwise family from [universe] to [r]: exactly a PairwiseHash, int
    fields, 0 <= a, b < p and universe <= p < 2 * max(universe, r, 2). A
    subclass is refused, since calling it would run the prover's code; an
    accepted hash is evaluated as ((a*x + b) mod p) mod r, from its fields
    or by calling it alike. The upper bound keeps a, b and p within a bit of
    lg max(universe, r), so the verifier's hashing does not grow with the
    prover's choice; the honest p = next_prime(max(universe, r, 2)) meets
    it by Bertrand's postulate."""
    return (type(h) is PairwiseHash
            and all(type(v) is int for v in (h.a, h.b, h.p, h.r))
            and h.r == r and max(1, universe) <= h.p < 2 * max(universe, r, 2)
            and 0 <= h.a < h.p and 0 <= h.b < h.p)


def random_pairwise_hash(n: int, r: int, rng) -> PairwiseHash:
    p = next_prime(max(n, r, 2))
    return PairwiseHash(a=rng.randrange(1, p), b=rng.randrange(p), p=p, r=r)


def find_perfect_hash(items, r: int, max_trials: int, rng,
                      universe=None) -> PairwiseHash:
    """Seeded random search for a pairwise hash injective on `items`.

    The success odds per trial are about exp(-|items|^2 / 2r), so callers
    should keep |items|^2 at most a few multiples of r.
    """
    items = list(items)
    n = universe if universe is not None else max(items, default=0) + 1
    k = len(items)
    for _ in range(max_trials):
        h = random_pairwise_hash(n, r, rng)
        seen = set()
        for x in items:
            b = h(x)
            if b in seen:
                break
            seen.add(b)
        else:
            return h
    raise PerfectHashError(f"no injective hash for {k} items into [{r}] after {max_trials} trials")


# ---------------------------------------------------------------- dyadic ranges

# Dyadic ranges of a power-of-two universe [2^L] are numbered heap-style:
# the range [j*2^k, (j+1)*2^k - 1] gets id 2^(L-k) + j, so the root is 1,
# leaves are 2^L + i, and parent(v) = v >> 1. Ids live in [0, 2^(L+1)).
# The level-k node containing item i is (2^L + i) >> k: the item's nodes are
# the binary prefixes of its leaf id, read from the root down.


def dyadic_levels(n: int) -> int:
    """L such that 2^L is the padded universe size."""
    if n < 1:
        raise ValueError("empty universe")
    return max(1, (n - 1).bit_length())


def dyadic_universe(n: int) -> int:
    return 1 << (dyadic_levels(n) + 1)


def dyadic_decompose(i: int, n: int):
    """Ids of the log2(n)+1 dyadic ranges containing item i."""
    levels = dyadic_levels(n)
    return [(1 << (levels - k)) + (i >> k) for k in range(levels + 1)]


def dyadic_prefix_nodes(count: int, n: int):
    """Disjoint dyadic ids covering [0, count), at most log2(n)+1 of them."""
    levels = dyadic_levels(n)
    out = []
    pos = 0
    for k in range(levels, -1, -1):
        if (count >> k) & 1:
            out.append((1 << (levels - k)) + (pos >> k))
            pos += 1 << k
    return out


# ---------------------------------------------------------------- stream kinds


def check_counts(pairs, size, what):
    """(index, count) pairs of a z vector or a claims list, counts as ints,
    after checking every index against [0, size) and every count for sign."""
    pairs = [(i, int(c)) for i, c in pairs]
    for i, c in pairs:
        if not 0 <= i < size:
            raise ConfigError(f"{what} {i} outside [0, {size})")
        if c < 0:
            raise ConfigError(f"{what} {i} has negative count {c}")
    return pairs


def pair_rank(u: int, v: int) -> int:
    """Rank of an unordered vertex pair (u < v) in the C(n,2) universe."""
    if u > v:
        u, v = v, u
    if u == v:
        raise ConfigError(f"self loop at vertex {u}")
    return v * (v - 1) // 2 + u


def edge_universe(n: int) -> int:
    return n * (n - 1) // 2


def _tagged_ids(records, n, params):
    """Item i on side t (0 for S, 1 for T) is id 2i + t of [2n]."""
    ids = []
    for tag, su in records:
        if tag not in (0, 1):
            raise ConfigError(f"tag {tag!r} is neither 0 (S) nor 1 (T)")
        if not 0 <= su.item < n:
            raise ConfigError(f"item {su.item} of {'ST'[tag]} outside [0, {n})")
        ids.append(StreamUpdate(2 * su.item + tag, su.delta))
    return ids, 2 * n


def _bucketed_ids(updates, n, params):
    """Item i in bucket b is id i*r + b of [n*r]."""
    r = params["r"]
    ids = []
    for u in updates:
        if not 0 <= u.bucket < r:
            raise ConfigError(f"bucket {u.bucket} outside [0, {r})")
        if not 0 <= u.item < n:
            raise ConfigError(f"item {u.item} outside [0, {n})")
        ids.append(StreamUpdate(u.item * r + u.bucket, u.delta))
    return ids, n * r


def _edge_ids(edges, n, params):
    """Edge {u, v} is id pair_rank(u, v) of [C(n,2)]. The graph schemes need
    a simple graph: both vertices in [0, n), no self loop, and every edge's
    final count 0 or 1."""
    ids = []
    for u, v, delta in edges:
        for x in (u, v):
            if not 0 <= x < n:
                raise ConfigError(f"vertex {x} of edge ({u}, {v}) outside [0, {n})")
        ids.append(StreamUpdate(pair_rank(u, v), delta))
    for rank, f in frequency_map(ids).items():
        if f != 1:
            u, v, _ = next(e for e, i in zip(edges, ids) if i.item == rank)
            raise ConfigError(f"edge ({u}, {v}) has final count {f}, not 0 or 1")
    return ids, edge_universe(n)


_TAGS = {"S": 0, "T": 1, "X": 0, "Y": 1}


def _tagged_record(tag, item, delta):
    if tag.upper() not in _TAGS:
        raise ValueError(f"unknown tag {tag!r}")
    return _TAGS[tag.upper()], StreamUpdate(int(item), int(delta))


@dataclass(frozen=True)
class StreamKind:
    """One of the four stream kinds, declared once: the header field naming
    its universe, its further integer header fields, one data line's fields,
    the record built from them, and ids(records, n, header params) ->
    (updates over ids, id universe), which raises ConfigError for a record
    outside the universe. The file reader, run_scheme's model check and the
    run functions' sizing passes all go through KINDS."""

    size_key: str
    extra_keys: tuple
    fields: str
    record: object
    ids: object


KINDS = {
    "plain": StreamKind("n", (), "<item> <delta>",
                        lambda i, d: StreamUpdate(int(i), int(d)),
                        lambda updates, n, params: (updates, n)),
    "tagged": StreamKind("n", (), "S|T <item> <delta>", _tagged_record,
                         _tagged_ids),
    "bucketed": StreamKind("n", ("r",), "<item> <bucket> <delta>",
                           lambda i, b, d: BucketedUpdate(int(i), int(b), int(d)),
                           _bucketed_ids),
    "edges": StreamKind("vertices", (), "<u> <v> <delta>",
                        lambda u, v, d: (int(u), int(v), int(d)), _edge_ids),
}


def stream_ids(kind, records, n, params=None):
    """(updates over ids, id universe) of a stream of the given kind, after
    checking every record against its universe (ConfigError names the record
    as given). A plain stream is returned as it is, without a copy; its
    items are checked by compute_meta, the sizing pass of every run."""
    return KINDS[kind].ids(records, n, params or {})


# ---------------------------------------------------------------- file formats


def _data_lines(path, lines, fields, record):
    """record(*fields) of each numbered line that is neither blank nor a '#'
    comment, indented or not. A line with another field count than `fields`
    spells, or one record() refuses, raises a ValueError naming path and
    line."""
    arity = len(fields.split())
    out = []
    for lineno, line in lines:
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        try:
            if len(parts) != arity:
                raise ValueError(f"expected '{fields}', got {line.strip()!r}")
            out.append(record(*parts))
        except ValueError as exc:
            raise ValueError(f"{path}, line {lineno}: {exc}") from None
    return out


def _header_int(header, key, path):
    try:
        return int(header[key])
    except (KeyError, ValueError):
        raise ValueError(f"{path}: header needs an integer {key}=") from None


def read_stream(path, kind="plain"):
    """Stream file of the given kind: a '# n=<n> model=<insert|strict|
    nonstrict>' header ('vertices=' in place of 'n=' for edges, plus 'r=' for
    bucketed), then one record per line. Returns (records, n, model, header
    params), the params holding the kind's further header fields."""
    spec = KINDS[kind]
    with open(path, "r", encoding="utf-8") as fh:
        line = fh.readline()
        if not line.startswith("#"):
            raise ValueError(f"{path}: missing header line")
        header = dict(tok.partition("=")[::2] for tok in line[1:].split())
        n = _header_int(header, spec.size_key, path)
        params = {key: _header_int(header, key, path) for key in spec.extra_keys}
        model = _canon_model(header.get("model", STRICT))
        records = _data_lines(path, enumerate(fh, 2), spec.fields, spec.record)
    return records, n, model, params


def _read_file(path, fields, record):
    with open(path, "r", encoding="utf-8") as fh:
        return _data_lines(path, enumerate(fh, 1), fields, record)


def read_pairs(path):
    """'<a> <b>' integer pairs, one per line: (item, count) entries of a z
    vector or a claims list, or the edges of a matching witness."""
    return _read_file(path, "<a> <b>",
                       lambda a, b: (int(a), int(b)))


def read_tree_witness(path):
    """Spanning-tree witness: a 'root <r>' line plus one tree edge per line.
    Returns (root, edges)."""
    lines = _read_file(path, "<child> <parent>",
                        lambda a, b: (a if a == "root" else int(a), int(b)))
    roots = [b for a, b in lines if a == "root"]
    if not roots:
        raise ValueError(f"{path}: connectivity witness needs a 'root <r>' line")
    return roots[-1], [(a, b) for a, b in lines if a != "root"]


def read_cycle_witness(path):
    """Odd-cycle witness: one vertex per line, closed (first == last)."""
    return _read_file(path, "<vertex>", int)


def write_stream(path, updates, n, model=STRICT):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={n} model={model}\n")
        for u in updates:
            fh.write(f"{u.item} {u.delta}\n")


def _canon_model(name):
    name = name.strip().lower()
    aliases = {"insert": INSERT_ONLY, "insert-only": INSERT_ONLY, "strict": STRICT,
               "nonstrict": NONSTRICT, "non-strict": NONSTRICT, "general": NONSTRICT}
    if name not in aliases:
        raise ValueError(f"unknown update model {name!r}")
    return aliases[name]
