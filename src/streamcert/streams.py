"""Stream data model: update types, turnstile models, sparsity accounting,
incremental fingerprints, pairwise/perfect hashing, dyadic decomposition,
and the flat-file stream formats consumed by the CLI."""

from dataclasses import dataclass

from .field import next_prime

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
    freq = {}
    weight = 0
    count = 0
    for u in updates:
        freq[u.item] = freq.get(u.item, 0) + u.delta
        weight += abs(u.delta)
        count += 1
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
            raise ModelViolation(f"item {u.item} outside universe [{n}]")
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
    fields, 0 <= a, b < p and p >= universe. A subclass is refused, since
    calling it would run the prover's code; an accepted hash is evaluated
    as ((a*x + b) mod p) mod r, from its fields or by calling it alike."""
    return (type(h) is PairwiseHash
            and all(type(v) is int for v in (h.a, h.b, h.p, h.r))
            and h.r == r and h.p >= max(1, universe)
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


# ---------------------------------------------------------------- file formats


def _parse_header(line, path):
    if not line.startswith("#"):
        raise ValueError(f"{path}: missing header line")
    fields = {}
    for tok in line[1:].split():
        key, _, val = tok.partition("=")
        fields[key] = val
    return fields


def _header_int(header, key, path):
    try:
        return int(header[key])
    except (KeyError, ValueError):
        raise ValueError(f"{path}: header needs an integer {key}=") from None


def read_stream(path):
    """Plain stream file: '# n=<n> model=<insert|strict|nonstrict>' header,
    then one '<item> <delta>' per line. Returns (updates, n, model)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = _parse_header(fh.readline(), path)
        n = _header_int(header, "n", path)
        model = _canon_model(header.get("model", STRICT))
        updates = []
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            item, delta = line.split()
            updates.append(StreamUpdate(int(item), int(delta)))
    return updates, n, model


def read_bucketed_stream(path):
    """Bucketed stream: '# n=<n> r=<r> model=...' then '<item> <bucket> <delta>'."""
    with open(path, "r", encoding="utf-8") as fh:
        header = _parse_header(fh.readline(), path)
        n = _header_int(header, "n", path)
        r = _header_int(header, "r", path)
        model = _canon_model(header.get("model", STRICT))
        updates = []
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            item, bucket, delta = line.split()
            updates.append(BucketedUpdate(int(item), int(bucket), int(delta)))
    return updates, n, r, model


def read_tagged_stream(path):
    """Tagged stream: '# n=...' then 'S|T <item> <delta>' lines.

    Returns (updates, n, model) where updates are (tag, StreamUpdate) with
    tag 0 for S/X and 1 for T/Y.
    """
    tags = {"S": 0, "T": 1, "X": 0, "Y": 1}
    with open(path, "r", encoding="utf-8") as fh:
        header = _parse_header(fh.readline(), path)
        n = _header_int(header, "n", path)
        model = _canon_model(header.get("model", STRICT))
        updates = []
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tag, item, delta = line.split()
            if tag.upper() not in tags:
                raise ValueError(f"{path}: unknown tag {tag!r}")
            updates.append((tags[tag.upper()], StreamUpdate(int(item), int(delta))))
    return updates, n, model


def read_edge_stream(path):
    """Edge stream: '# vertices=<n> model=...' then '<u> <v> <delta>' lines."""
    with open(path, "r", encoding="utf-8") as fh:
        header = _parse_header(fh.readline(), path)
        n = _header_int(header, "vertices", path)
        model = _canon_model(header.get("model", STRICT))
        edges = []
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            u, v, delta = line.split()
            edges.append((int(u), int(v), int(delta)))
    return edges, n, model


def _data_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [ln.split() for ln in fh if ln.strip() and not ln.startswith("#")]


def read_pairs(path):
    """'<a> <b>' integer pairs, one per line: (item, count) entries of a z
    vector or a claims list, or the edges of a matching witness."""
    return [(int(a), int(b)) for a, b in _data_lines(path)]


def read_tree_witness(path):
    """Spanning-tree witness: a 'root <r>' line plus one tree edge per line.
    Returns (root, edges)."""
    root = None
    edges = []
    for parts in _data_lines(path):
        if parts[0] == "root":
            root = int(parts[1])
        else:
            edges.append((int(parts[0]), int(parts[1])))
    if root is None:
        raise ValueError("connectivity witness needs a 'root <r>' line")
    return (root, edges)


def read_cycle_witness(path):
    """Odd-cycle witness: one vertex per line, closed (first == last)."""
    return [int(parts[0]) for parts in _data_lines(path)]


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
