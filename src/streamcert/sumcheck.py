"""Dense sum-check scheme: streaming verifier for F = sum_i g(f1_i, ..., fl_i).

The l frequency vectors over a universe [n] are read as c_a x c_v arrays via
the row-major bijection i -> (i // c_v, i % c_v), extended to low-degree
bivariate polynomials. The verifier keeps, per vector, the c_v evaluations
f~(r, y) at a secret random r; the prover's proof is the univariate
b(X) = sum_y g~(f1~(X,y), ..., fl~(X,y)), transmitted as its values on the
grid {0, ..., deg(b)} (an encoding of the same polynomial with the same word
count as its coefficients). The verifier spot-checks b(r) and, on success,
accepts sum_{x < c_a} b(x).

Prover-side multi-point evaluation packs Lagrange-extended columns into wide
integers (one limb per evaluation point) so the inner accumulation runs on
CPython's C bigint loop instead of interpreted arithmetic.
"""

import random
from dataclasses import dataclass

from .field import Field, eval_values_at, lagrange_row
from .protocol import ConfigError


def default_value_bound(n: int, weight: int, degree: int) -> int:
    """A-priori |F| bound when the caller has nothing tighter: n * (sum|delta|)^degree."""
    return n * max(1, weight) ** degree


def prop1_min_field(degree: int, n: int, bound: int) -> int:
    """Smallest admissible field size for a generic dense instance: q > 2d(n+o)^2."""
    return 2 * degree * (n + bound) ** 2 + 1


@dataclass(frozen=True)
class DenseParams:
    """Shape of one dense sum-check instance.

    g is an evaluation callback over field elements (the verifier never needs
    its coefficients) with declared total degree. Vector indices listed in
    const_ones are the all-ones vector over [universe], handled analytically
    on both sides instead of being streamed.
    """

    field: Field
    universe: int
    c_a: int
    c_v: int
    vectors: int
    degree: int
    g: object
    bound: int
    signed: bool = True
    raw: bool = False
    const_ones: tuple = ()

    def __post_init__(self):
        if self.universe < 1 or self.c_a < 1 or self.c_v < 1:
            raise ConfigError("degenerate dense shape")
        if self.c_a * self.c_v < self.universe:
            raise ConfigError("c_a * c_v must cover the universe")
        if self.degree < 1 or self.vectors < 1:
            raise ConfigError("need at least one vector and degree >= 1")
        q = self.field.q
        if q <= self.degree * (self.c_a - 1) + 1:
            raise ConfigError("field too small for the proof degree")
        if not self.raw and q <= 2 * self.bound:
            raise ConfigError("field too small to decode the output bound")

    @property
    def proof_len(self):
        return self.degree * (self.c_a - 1) + 1

    def check_prop1_field(self):
        if self.field.q < prop1_min_field(self.degree, self.universe, self.bound):
            raise ConfigError(
                f"field {self.field.q} below 2d(n+o)^2 for n={self.universe} o={self.bound}")
        return self

    def cell(self, item: int):
        return divmod(item, self.c_v)

    def column_fill(self):
        """(full, rem): columns y < rem hold full+1 grid cells, the rest full."""
        return divmod(self.universe, self.c_v)


@dataclass
class DenseProof:
    """b(X) as its values on {0, ..., degree*(c_a-1)}."""

    values: list
    field_bits: int

    @property
    def bits(self):
        return len(self.values) * self.field_bits


# ------------------------------------------------------------------ verifier


class DenseVerifier:
    """Streaming verifier state: secret r plus an l x c_v table of low-degree
    extension evaluations. The Lagrange coefficient row at r is a pure
    function of (q, c_a, r) and is kept as an uncharged lookup table."""

    def __init__(self, params: DenseParams, rng):
        self.params = params
        self.field = params.field
        self.r = self.field.rand(rng)
        self.rows = [[0] * params.c_v for _ in range(params.vectors)]
        self._lrow = None
        self._prefix = None
        self.word_bits = self.field.bits

    def _lagrange(self):
        if self._lrow is None:
            self._lrow = lagrange_row(self.field, self.params.c_a, self.r)
        return self._lrow

    def _ones_prefix(self):
        if self._prefix is None:
            lrow = self._lagrange()
            q = self.field.q
            ps = [0] * (len(lrow) + 1)
            for i, v in enumerate(lrow):
                ps[i + 1] = (ps[i] + v) % q
            self._prefix = ps
        return self._prefix

    def update(self, j, item, delta):
        p = self.params
        x, y = divmod(item, p.c_v)
        row = self.rows[j]
        row[y] = (row[y] + delta * self._lagrange()[x]) % self.field.q

    def _row_value(self, j, y, full, rem, ones_ps):
        if j in self.params.const_ones:
            return ones_ps[full + 1] if y < rem else ones_ps[full]
        return self.rows[j][y]

    def verify(self, proof: DenseProof):
        """Exact F on success, None on any failed check."""
        p = self.params
        field = self.field
        if not (isinstance(proof, DenseProof) and isinstance(proof.values, list)
                and len(proof.values) == p.proof_len
                and all(type(v) is int for v in proof.values)):
            return None
        full, rem = p.column_fill()
        ones_ps = self._ones_prefix() if p.const_ones else None
        g = p.g
        q = field.q
        expected = 0
        js = range(p.vectors)
        for y in range(p.c_v):
            vals = [self._row_value(j, y, full, rem, ones_ps) for j in js]
            expected = (expected + g(vals)) % q
        if eval_values_at(field, proof.values, self.r) != expected:
            return None
        total = sum(proof.values[: p.c_a]) % q
        if p.raw:
            return total
        out = field.dec_signed(total) if p.signed else total
        if abs(out) > p.bound:
            return None
        return out

    @property
    def words(self):
        # rows plus the secret point and the running total used in verify
        return self.params.vectors * self.params.c_v + 2


# ------------------------------------------------------------------- prover


class _ExtGrid:
    """Packed Lagrange extension columns for one (field, c_a) shape.

    For extension points p = c_a .. s-1, column x packs L_x(p) over all p
    into one integer, one limb per point. A sparse cell (x, y) with value v
    then contributes to every point of column y with the single bigint
    multiply pack[x] * v.
    """

    def __init__(self, field: Field, c_a: int):
        self.field = field
        self.c_a = c_a
        w = 2 * field.bits + c_a.bit_length() + 2
        self.limb_bytes = (w + 7) // 8
        self.s = c_a
        self.pack = []
        self.prefix_pack = None

    def ensure(self, s: int):
        if s <= self.s:
            return
        ext = s - self.c_a
        lb = self.limb_bytes
        cols = [bytearray(ext * lb) for _ in range(self.c_a)]
        for e in range(ext):
            row = lagrange_row(self.field, self.c_a, self.c_a + e)
            off = e * lb
            for x, v in enumerate(row):
                cols[x][off:off + lb] = v.to_bytes(lb, "little")
        self.pack = [int.from_bytes(c, "little") for c in cols]
        self.prefix_pack = None
        self.s = s

    def ones_prefix(self):
        """prefix_pack[k] = packed values of sum_{x<k} L_x(p)."""
        if self.prefix_pack is None:
            ps = [0] * (self.c_a + 1)
            for x, col in enumerate(self.pack):
                ps[x + 1] = ps[x] + col
            self.prefix_pack = ps
        return self.prefix_pack

    def unpack(self, acc: int, ext: int):
        q = self.field.q
        lb = self.limb_bytes
        raw = acc.to_bytes(ext * lb, "little")
        return [int.from_bytes(raw[i * lb:(i + 1) * lb], "little") % q
                for i in range(ext)]

    @property
    def nbytes(self):
        return len(self.pack) * (self.s - self.c_a) * self.limb_bytes


_EXT_CACHE: dict = {}
_EXT_BUDGET = 300 * 1024 * 1024


def _ext_grid(field: Field, c_a: int, s: int) -> _ExtGrid:
    key = (field.q, c_a)
    grid = _EXT_CACHE.get(key)
    if grid is None:
        grid = _ExtGrid(field, c_a)
        _EXT_CACHE[key] = grid
    grid.ensure(s)
    total = sum(g.nbytes for g in _EXT_CACHE.values())
    if total > _EXT_BUDGET:
        for k in list(_EXT_CACHE):
            if k != key:
                del _EXT_CACHE[k]
    return grid


class DenseProver:
    """Holds exact (sparse) frequency vectors and produces the proof polynomial."""

    def __init__(self, params: DenseParams):
        self.params = params
        self.field = params.field
        self.vecs = [dict() for _ in range(params.vectors)]

    def update(self, j, item, delta):
        if j in self.params.const_ones:
            raise ValueError("const vector takes no updates")
        vec = self.vecs[j]
        d = (vec.get(item, 0) + delta) % self.field.q
        if d:
            vec[item] = d
        else:
            vec.pop(item, None)

    def proof(self) -> DenseProof:
        p = self.params
        field = self.field
        q = field.q
        g = p.g
        s = p.proof_len
        c_a, c_v = p.c_a, p.c_v
        full, rem = p.column_fill()
        consts = set(p.const_ones)
        stream_js = [j for j in range(p.vectors) if j not in consts]

        # zero-column contributions: all-zero stream vectors with the const
        # vector at 1 (in-universe cell) or 0 (padding cell)
        zeros = [0] * p.vectors
        g_pad = g(zeros)
        ones_at_consts = [1 if j in consts else 0 for j in range(p.vectors)]
        g_one = g(ones_at_consts) if consts else g_pad

        cells = {}
        for j in stream_js:
            for item, v in self.vecs[j].items():
                xy = divmod(item, c_v)
                slot = cells.get(xy)
                if slot is None:
                    slot = [0] * p.vectors
                    cells[xy] = slot
                slot[j] = v

        values = [0] * s

        # grid points: read cells directly
        by_x = {}
        for (x, y), vals in cells.items():
            by_x.setdefault(x, []).append((y, vals))
        for x in range(c_a):
            n_valid = min(max(p.universe - x * c_v, 0), c_v)
            acc = 0
            n_active_valid = 0
            for y, vals in by_x.get(x, ()):
                if consts:
                    vals = list(vals)
                    cv = 1 if y < n_valid else 0
                    for j in consts:
                        vals[j] = cv
                if y < n_valid:
                    n_active_valid += 1
                acc += g(vals)
            acc += (n_valid - n_active_valid) * g_one
            acc += (c_v - n_valid - (len(by_x.get(x, ())) - n_active_valid)) * g_pad
            values[x] = acc % q

        ext = s - c_a
        if ext:
            grid = _ext_grid(field, c_a, s)
            gext = grid.s - c_a  # grid may hold more points than we need
            pack = grid.pack
            accs = [dict() for _ in range(p.vectors)]
            active = set()
            for (x, y), vals in cells.items():
                col = pack[x]
                active.add(y)
                for j in stream_js:
                    v = vals[j]
                    if v:
                        d = accs[j]
                        d[y] = d.get(y, 0) + col * v
            cols = {}
            for j in stream_js:
                for y, acc in accs[j].items():
                    cols.setdefault(y, {})[j] = grid.unpack(acc, gext)[:ext]
            if consts:
                pp = grid.ones_prefix()
                ones_hi = grid.unpack(pp[min(full + 1, c_a)], gext)[:ext]
                ones_lo = grid.unpack(pp[full], gext)[:ext]
            n_hi_inactive = rem - sum(1 for y in active if y < rem)
            n_lo_inactive = (c_v - rem) - sum(1 for y in active if y >= rem)
            bext = [0] * ext
            for y in sorted(active):
                per = cols.get(y, {})
                ones = (ones_hi if y < rem else ones_lo) if consts else None
                for e in range(ext):
                    vals = [0] * p.vectors
                    for j, limbs in per.items():
                        vals[j] = limbs[e]
                    if consts:
                        cv = ones[e]
                        for j in consts:
                            vals[j] = cv
                    bext[e] += g(vals)
            if consts:
                for e in range(ext):
                    bext[e] += n_hi_inactive * g(_with_consts(zeros, consts, ones_hi[e]))
                    bext[e] += n_lo_inactive * g(_with_consts(zeros, consts, ones_lo[e]))
            elif g_pad:
                pad_cols = c_v - len(active)
                for e in range(ext):
                    bext[e] += pad_cols * g_pad
            for e in range(ext):
                values[c_a + e] = bext[e] % q

        return DenseProof(values, field.bits)


def _with_consts(zeros, consts, value):
    vals = list(zeros)
    for j in consts:
        vals[j] = value
    return vals


# ----------------------------------------------------- standard g callbacks


def g_power(field, k):
    """g(z) = z^k."""
    q = field.q
    if k == 1:
        return lambda v: v[0]
    if k == 2:
        return lambda v: v[0] * v[0] % q
    return lambda v: pow(v[0], k, q)


def g_product(field):
    """g(a, b) = a * b (inner product instances)."""
    q = field.q
    return lambda v: v[0] * v[1] % q


def g_purity(field):
    """g(u, v, w) = v^2 - u*w: zero on a pure bucket, positive otherwise."""
    q = field.q
    return lambda v: (v[1] * v[1] - v[0] * v[2]) % q


def g_sub_purity(field):
    """g(u, v, w, z) = z * (v^2 - u*w)."""
    q = field.q
    return lambda v: v[3] * (v[1] * v[1] - v[0] * v[2]) % q


def g_sub_square(field):
    """g(f, z) = z * f^2."""
    q = field.q
    return lambda v: v[1] * v[0] % q * v[0] % q


def g_triple_product(field):
    """g(a, b, c) = a * b * c (restricted AMA inner product)."""
    q = field.q
    return lambda v: v[0] * v[1] % q * v[2] % q


# ------------------------------------------------------ functional surface


def dense_verifier_init(params: DenseParams, seed) -> DenseVerifier:
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return DenseVerifier(params, rng)


def dense_verifier_update(state: DenseVerifier, j: int, item: int, delta: int):
    state.update(j, item, delta)


def dense_prover_proof(vectors, params: DenseParams) -> DenseProof:
    """Proof from full frequency vectors (sequences or item->value dicts)."""
    prover = DenseProver(params)
    for j, vec in enumerate(vectors):
        pairs = vec.items() if isinstance(vec, dict) else enumerate(vec)
        for item, value in pairs:
            if value:
                prover.update(j, item, value)
    return prover.proof()


def dense_verify(state: DenseVerifier, proof: DenseProof):
    return state.verify(proof)
