"""Dense sum-check scheme: streaming verifier for F = sum_i g(f1_i, ..., fl_i).

The l frequency vectors over a universe [n] are read as c_a x c_v arrays via
the row-major bijection i -> (i // c_v, i % c_v), extended to low-degree
bivariate polynomials. The verifier keeps, per vector, the c_v evaluations
f~(r, y) at a secret random r; the prover's proof is the univariate
b(X) = sum_y g~(f1~(X,y), ..., fl~(X,y)), transmitted as its values on the
grid {0, ..., deg(b)} (an encoding of the same polynomial with the same word
count as its coefficients). The verifier spot-checks b(r) and, on success,
returns sum_{x < c_a} b(x). Every failed check on a proof, of its form, of
b(r) or of the output bound, raises Reject("<name> proof failed") with the
name the caller gives the instance (DenseVerifier.verify), so a failed proof
is reported in this one place, and a caller's own check on the value (that
it is zero, say) reads only a verified value.

The verifier's per-update work is one product per cell, added unreduced:
a cell holds an integer congruent to its field element, and every read of
the rows reduces them first (DenseVerifier.rows). After A additions of
products of field elements a cell stays below A * q^2 in magnitude, two
words plus lg A bits; vcost still counts it as one word, the field element
it stands for. A purity instance's three cells u, v and w of one column
share their Lagrange factor, so they are kept packed in one integer and an
update of all three is one product (DenseVerifier.add_purity). A lane is
a count instance and a purity sink that take an item at the same bucket,
hashed from the lane's (a, b, p, r); verifier_lane gives a lane of
DenseVerifiers in the flat form that a fused loop reads, its rows and
packed cells. The lane bank (lane_bank) walks one update's lanes in one
loop, two products per lane; a scheme's read pass walks the whole stream
over the same flat lanes (moments' engine verifier).

g must vanish at zero (g(0, ..., 0) = 0). Every cell where all l vectors are
zero, padding cells past the universe included, then adds nothing to b, so
the prover sums g over the cells it holds and the verifier over its rows.
g must also act as an integer polynomial taken mod q: the prover hands it
integers congruent to the field elements, not reduced ones, and relies on
congruent inputs giving congruent outputs.

An instance may name a gate: a vector z of which g is a multiple, as the
marks are in g = z * (v^2 - u*w), z * f^2 and a * b * z. A column y with z
zero at every cell has z~(X, y) = 0, so it adds nothing to b at any point,
and the prover skips it. The verifier does not use the gate.

Prover-side multi-point evaluation packs Lagrange-extended columns into wide
integers (one limb per evaluation point) so the inner accumulation runs on
CPython's C bigint loop instead of interpreted arithmetic. The columns come
from the closed form of the basis over {0, ..., c-1}, c = c_a: at an
extension point p >= c,

    L_x(p) = C(p) * w_x / (p - x),  C(p) = p! / (p - c)!,
    w_x = (-1)^(c-1-x) / (x! * (c-1-x)!).

The grid stores w_x / (p - x) and leaves C(p) out. Every g is homogeneous
of its declared degree d (DenseParams checks it), so g(C * f) = C^d * g(f),
and a proof multiplies b's folded value at p by C(p)^d once. Without C(p),
column x over a run of points is a window of the one sequence of inverses
1/k, k < s, shifted by x and scaled by w_x, so each column is built with a
few bigint operations (_ExtGrid). This needs s - 1 < q, which DenseParams
guarantees by requiring q > proof_len.

The columns are kept in segments of c_a - 1 extension points (_ExtGrid),
and a proof of degree d multiplies, unpacks and folds d - 1 of them, each
filling its own slice of b's values. So a degree-2 proof does the same work
whether or not a degree-3 proof of the same shape has grown the grid.

Three kinds of work split over two CPUs, through one helper (_forked): the
calling process does its share while one forked child does the rest and
returns its results through a pipe, marshalled. A failed fork, a child that
exits nonzero or a short answer leaves the child's share to the parent,
with the same code, so the results are the same either way; the child is
reaped on every path. Work runs serially where forking cannot pay or is
unsafe: too little of it to pay for a fork, one CPU, no os.fork, or a
second thread in the process (_can_fork). A patch of a method, such as a
tracer's, sees only the calls made in the calling process.

- prove_all makes a scheme's end-of-stream proofs, which are independent of
  each other, the calling process proving the larger share of the
  estimated work. The proofs are exactly those of proof(), called one by
  one, so transcripts do not change.
- split_pass runs a verifier's read pass split by instance: each worker
  reads every update, in order, and writes only its own instances, and the
  child sends those instances' rows and packed cells. So the two states
  together are the one verifier's state, cell for cell. Only the verifier
  is held to small space, and its space is counted as before: each
  instance lives in one worker.
- The selection and heavy-hitter verifiers (pointqueries) split both their
  phases. Their walk of the dyadic stream splits by tree level: each
  worker reads every update and adds the terms of its own levels, and the
  child sends its c_v partial bucket sums, which the parent adds into its
  buckets; the sums are unreduced, so the buckets are the serial walk's,
  integer for integer. Their opening checks split by opening: each worker
  checks a contiguous run of the openings and the lower failing index
  wins, so the reject reason is the serial one. vcost counts the one
  verifier's state, which the serial fallback runs.
"""

import marshal
import os
import threading
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import add

from .field import Field, eval_values_at, inverse_factorials, lagrange_row
from .protocol import ConfigError, need


def prop1_min_field(degree: int, n: int, bound: int) -> int:
    """Smallest admissible field size for a generic dense instance: q > 2d(n+o)^2."""
    return 2 * degree * (n + bound) ** 2 + 1


@dataclass(frozen=True)
class DenseParams:
    """Shape of one dense sum-check instance.

    g is an evaluation callback with declared total degree (the verifier
    never needs its coefficients); it must vanish at zero, so all-zero cells
    contribute nothing, and be homogeneous of that degree,
    g(t * v) = t^degree * g(v), so that the prover can factor C(p)^degree
    out of its extension values (module docstring); both are probed here.
    It acts as an integer polynomial taken mod q: it may be handed any
    integers congruent to the field elements, and must return a result
    congruent to g of those elements. A verified result is decoded to the
    integer in (-q/2, q/2) it represents and must lie within
    [-bound, bound].

    gate, when not None, is the index of a vector z that divides g, so that g
    vanishes wherever z does; the prover then skips every column in which z
    is zero at every cell.
    """

    field: Field
    universe: int
    c_a: int
    c_v: int
    vectors: int
    degree: int
    g: object
    bound: int
    gate: int | None = None

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
        if q <= 2 * self.bound:
            raise ConfigError("field too small to decode the output bound")
        if self.g([0] * self.vectors) % q != 0:
            raise ConfigError("g must vanish at zero")
        # g(t * v) = t^degree * g(v) at two nonzero points
        for t, v in ((2, range(1, self.vectors + 1)),
                     (3, range(2, 3 * self.vectors + 2, 3))):
            lhs = self.g([t * x % q for x in v])
            if (lhs - pow(t, self.degree, q) * self.g(list(v))) % q:
                raise ConfigError(
                    f"g must be homogeneous of degree {self.degree}")
        if self.gate is not None:
            if type(self.gate) is not int or not 0 <= self.gate < self.vectors:
                raise ConfigError(f"gate {self.gate!r} is not a vector index")
            probe = list(range(1, self.vectors + 1))
            probe[self.gate] = 0
            if self.g(probe) % q != 0:
                raise ConfigError("g must vanish where the gate vector does")

    @property
    def proof_len(self):
        return self.degree * (self.c_a - 1) + 1


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
    extension evaluations. The Lagrange coefficient row at r, a pure function
    of (q, c_a, r), is computed when r is drawn and kept as an uncharged
    lookup table (test_verifier_row_is_the_closed_form_lagrange_row checks it
    against the closed form in r and the public weights).

    Updates add their products to the cells unreduced: a stored cell is an
    integer congruent to its field element, below A * q^2 in magnitude after
    A additions. A purity instance's vectors u, v and w (rows 0-2) share the
    Lagrange row, so add_purity keeps them, per column y, in one packed
    integer of three signed slots, `slot` = 2 * field.bits + 64 bits wide:
    pack[y] = U + V * 2^slot + W * 2^(2 * slot). Reading rows folds the
    slots into rows 0-2, which leaves the pack zero, then reduces every
    cell in place and returns the same list objects. The lane bank holds
    the row lists and the pack, so no code may rebind them."""

    def __init__(self, params: DenseParams, rng):
        self.params = params
        self.field = params.field
        self.r = self.field.rand(rng)
        self.c_v = params.c_v
        self.q = self.field.q
        self.lrow = lagrange_row(self.field, params.c_a, self.r)
        self._rows = [[0] * params.c_v for _ in range(params.vectors)]
        self.slot = 2 * self.field.bits + 64
        self._pack = [0] * params.c_v
        self.word_bits = self.field.bits

    @property
    def rows(self):
        """The rows as field elements: the packed purity cells folded into
        rows 0-2, then every cell reduced, in place."""
        q, s = self.q, self.slot
        mask, half = (1 << s) - 1, 1 << (s - 1)
        pack = self._pack
        for row in self._rows[:3]:
            # the low slot, signed, then the slots above it shifted down:
            # the third pass leaves every packed cell zero
            low = [(p + half & mask) - half for p in pack]
            row[:] = map(add, row, low)
            pack[:] = [(p - lo) >> s for p, lo in zip(pack, low)]
        for row in self._rows:
            row[:] = [c % q for c in row]
        return self._rows

    def update(self, j, item, delta):
        x, y = divmod(item, self.c_v)
        self._rows[j][y] += delta * self.lrow[x]

    def add_purity(self, item, terms):
        """update(j, item, terms[j]) for j = 0, 1, 2, as one multiply-add
        into the packed cell of item's column.

        The terms are field elements in [0, q), as purity_deltas returns
        them, or any integers in (-q, q). The Lagrange row's entries are in
        [0, q), so each call adds less than q^2 < 2^(2 * field.bits) in
        magnitude to each slot, and a slot stays within +-2^(slot - 1), so
        that rows reads it back exactly, for 2^63 calls."""
        x, y = divmod(item, self.c_v)
        du, dv, dw = terms
        s = self.slot
        self._pack[y] += (du + (dv << s) + (dw << 2 * s)) * self.lrow[x]

    def verify(self, proof: DenseProof, name):
        """Exact F, or Reject(f"{name} proof failed") for a malformed or
        non-canonical proof, a failed spot check or a value outside the
        bound alike. A wrong b agrees with the true one at the secret point
        with probability at most degree * (c_a - 1) / q: this instance's
        soundness error."""
        p = self.params
        field = self.field
        q = field.q
        failed = f"{name} proof failed"
        # values must be canonical: at a secret point on the grid,
        # eval_values_at returns values[r] as it stands, unreduced
        need(isinstance(proof, DenseProof) and isinstance(proof.values, list)
             and len(proof.values) == p.proof_len
             and all(type(v) is int and 0 <= v < q for v in proof.values),
             failed)
        expected = sum(map(p.g, zip(*self.rows))) % q
        need(eval_values_at(field, proof.values, self.r) == expected, failed)
        out = field.dec_signed(sum(proof.values[: p.c_a]) % q)
        need(abs(out) <= p.bound, failed)
        return out

    @property
    def words(self):
        # rows plus the secret point and the running total used in verify
        return self.params.vectors * self.params.c_v + 2


def verifier_lane(count, j, sink, key, extra=()):
    """One lane in the flat form the fused loops read, or None unless count,
    sink and every extra instance are DenseVerifiers of count's grid shape:
    (a, b, p, r, c_v, lrow, row, prow, pack, extras). Item x's bucket in
    the lane is (a * x + b) % p % r, from key; a count adds into vector j of
    count (row, with count's Lagrange row lrow) and packed purity terms
    into sink's packed cells (pack, with sink's row prow). Each
    (instance, vector k, by_weight) of extra takes the same bucket in
    vector k, the update's absolute weight when by_weight and its delta
    otherwise, as (lrow, row, by_weight) in extras. The rows and the pack
    are the instances' own lists (DenseVerifier), so the loops' additions
    are the instances' state."""
    insts = [count, sink, *(e for e, _, _ in extra)]
    if not all(type(v) is DenseVerifier and v.c_v == count.c_v
               and len(v.lrow) == len(count.lrow) for v in insts):
        return None
    a, b, p, r = key
    return (a, b, p, r, count.c_v, count.lrow, count.rows[j], sink.lrow,
            sink._pack, tuple((e.lrow, e.rows[k], by_weight)
                              for e, k, by_weight in extra))


def lane_bank(lanes, keys):
    """One call add(x, delta, head, terms) for a list of lanes, each
    (count instance, vector j, purity sink), and a list of keys, each
    (a, b, p, r), one a lane; a list of another length is refused here,
    when the bank is built. Lane k takes item x's bucket under key k,
    (a * x + b) % p % r, and adds delta there to vector j of its count
    instance and purity terms to its sink. The first lane's sink takes the
    terms `head`, every other lane's `terms`; a caller whose lanes all
    take the same terms passes them twice. add returns x's bucket in each
    lane, in lane order.

    When every lane is a lane of DenseVerifiers (verifier_lane) and the
    sinks share one slot width, the loop is written out here, over the row
    lists and the packed purity cells that DenseVerifier holds. add packs
    the terms once, or twice when head and terms differ, and each lane is
    then one bucket, one floor division and one remainder, and two
    unreduced multiply-adds: delta into the count's row, the packed terms
    into the sink's cell (DenseVerifier.add_purity). Over anything else (a
    DenseProver, an AMA purity adapter) add makes the update and
    add_purity calls."""
    lanes = list(zip(lanes, keys, strict=True))  # ((count, j, sink), key)
    cells = [verifier_lane(count, j, sink, key)
             for (count, j, sink), key in lanes]
    if (not cells or None in cells
            or len({sink.slot for (_, _, sink), _ in lanes}) > 1):
        def add(x, delta, head, terms):
            buckets = []
            t = head
            for (count, j, sink), (a, b, p, r) in lanes:
                bk = (a * x + b) % p % r
                buckets.append(bk)
                count.update(j, bk, delta)
                sink.add_purity(bk, t)
                t = terms
            return buckets
        return add

    s = lanes[0][0][2].slot
    s2 = 2 * s

    def add(x, delta, head, terms):
        du, dv, dw = head
        d = du + (dv << s) + (dw << s2)
        if terms is head:
            t = d
        else:
            du, dv, dw = terms
            t = du + (dv << s) + (dw << s2)
        buckets = []
        append = buckets.append
        for a, b, p, r, c_v, lrow, f, prow, pack, _ in cells:
            bk = (a * x + b) % p % r
            append(bk)
            i = bk // c_v  # divmod would build a tuple per lane
            y = bk % c_v
            f[y] += delta * lrow[i]
            pack[y] += d * prow[i]
            d = t
        return buckets
    return add


# ------------------------------------------------------------------- prover


def _limb_bytes(field: Field, c_a: int) -> int:
    """Bytes per packed limb: room for a sum of c_a products of two field
    elements."""
    return (2 * field.bits + c_a.bit_length() + 2 + 7) // 8


class _ExtGrid:
    """Packed Lagrange extension columns for one (field, c_a) shape, in
    segments of seg_len = c_a - 1 extension points (1 when c_a = 1).

    Segment k covers the points p = c_a + k * seg_len onward: its column x
    packs L_x(p) / C(p) = w_x * inv(p - x) over those points into one
    integer, one limb per point, each reduced into [0, q). A sparse cell
    (x, y) with value v then contributes to every point of a segment in
    column y with the single bigint multiply segment[x] * v, and the proof
    multiplies the folded value at p by C(p)^d, which scale(k, d) keeps
    (module docstring). A degree-d proof has (d - 1)(c_a - 1) extension
    points, so it reads segments 0 .. d - 2 and no limb past them, however
    far a proof of higher degree has grown the grid; the segments together
    hold exactly the limbs of one grid as wide as the widest proof.

    ensure computes inv(k) = (k-1)!/k! for k in 1 .. t-1, where t is one
    past the last point the segments cover, from tables of k! and 1/k! and
    one modular inverse. A proof asks for s = proof_len, which ends a
    segment, so t = proof_len < q, as DenseParams requires, and every such
    k is invertible. Column x of segment k packs the window of seg_len
    inverses from inv(c_a + k * seg_len - x) on: column 0's is packed from
    the list, and each next column's window is the last one shifted up a
    limb, the top limb dropped and a new lowest limb put in. Times w_x,
    each limb is then below q^2, and is reduced all at once with Shoup's
    method: with
    w' = floor(w_x * 2^b / q), b = field.bits, the packed quotients
    floor(inv * w' / 2^b) leave every limb in [0, 2q), and one packed
    compare against q takes it below q. Each step is one bigint operation
    over the column; a limb holds 2 * b + 3 bits or more (_limb_bytes), so
    no step carries from one limb into the next.
    """

    def __init__(self, field: Field, c_a: int):
        self.field = field
        self.c_a = c_a
        self.limb_bytes = _limb_bytes(field, c_a)
        self.seg_len = max(1, c_a - 1)
        self.segments = []
        self.cps = []  # C(p) at the points of each segment
        self._scales = {}
        lb = self.limb_bytes
        self.slices = [slice(e * lb, (e + 1) * lb) for e in range(self.seg_len)]

    @property
    def s(self):
        """One past the last extension point the segments cover."""
        return self.c_a + len(self.segments) * self.seg_len

    def ensure(self, s: int):
        """Build the segments still missing to cover the points below s."""
        c, n = self.c_a, self.seg_len
        have, want = len(self.segments), -(-(s - c) // n)
        if want <= have:
            return
        q, b, lb = self.field.q, self.field.bits, self.limb_bytes
        top = c + want * n
        fact = list(accumulate(range(1, top), lambda a, k: a * k % q, initial=1))
        invfact = inverse_factorials(self.field, top)
        inv = [0] + [fact[k - 1] * invfact[k] % q for k in range(1, top)]
        # packed constants, one limb per point: 1, 2^b - 1, and 2^high - q,
        # which sets a limb's top bit, bit `high`, iff the limb is >= q
        ones = int.from_bytes((1).to_bytes(lb, "little") * n, "little")
        low = ones * ((1 << b) - 1)
        high = 8 * lb - 1
        lift = ones * ((1 << high) - q)
        full = (1 << n * (high + 1)) - 1
        ws = []
        for x in range(c):
            w = invfact[x] * invfact[c - 1 - x] % q
            w = q - w if (c - 1 - x) & 1 else w
            ws.append((w, (w << b) // q))
        for k in range(have, want):
            p0 = c + k * n
            self.cps.append([fact[p] * invfact[p - c] % q
                             for p in range(p0, p0 + n)])
            # p - x runs over p0 - x .. p0 + n - 1 - x: column 0's window,
            # then each next column's one limb lower
            window = int.from_bytes(b"".join(map(
                int.to_bytes, inv[p0:p0 + n], repeat(lb), repeat("little"))),
                "little")
            segment = []
            for x, (w, shoup) in enumerate(ws):
                if x:
                    window = (window << high + 1 | inv[p0 - x]) & full
                col = window * w - (window * shoup >> b & low) * q
                segment.append(col - (col + lift >> high & ones) * q)
            self.segments.append(segment)

    def scale(self, k: int, d: int):
        """[C(p)^d mod q for the points p of segment k], kept per (k, d)."""
        got = self._scales.get((k, d))
        if got is None:
            q = self.field.q
            got = self._scales[k, d] = [pow(cp, d, q) for cp in self.cps[k]]
        return got

    def unpack(self, acc: int):
        """The seg_len limbs of a packed accumulator over one segment, as
        integers congruent to the field elements they stand for (not
        reduced mod q)."""
        raw = acc.to_bytes(self.seg_len * self.limb_bytes, "little")
        return list(map(int.from_bytes, map(raw.__getitem__, self.slices),
                        repeat("little")))

    @property
    def nbytes(self):
        return len(self.segments) * self.c_a * self.seg_len * self.limb_bytes


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
    """Holds exact (sparse) frequency vectors and produces the proof polynomial.

    Its extension grid holds c_a x (proof_len - c_a) limbs; a shape whose
    grid would exceed _EXT_BUDGET is refused when the prover is built,
    before any streaming."""

    def __init__(self, params: DenseParams):
        c_a = params.c_a
        nbytes = c_a * (params.proof_len - c_a) * _limb_bytes(params.field, c_a)
        if nbytes > _EXT_BUDGET:
            raise ConfigError(
                f"extension grid for c_a={c_a} needs {nbytes} bytes, "
                f"over the {_EXT_BUDGET}-byte budget")
        self.params = params
        self.field = params.field
        self.vecs = [dict() for _ in range(params.vectors)]

    def update(self, j, item, delta):
        vec = self.vecs[j]
        d = (vec.get(item, 0) + delta) % self.field.q
        if d:
            vec[item] = d
        else:
            vec.pop(item, None)

    def add_purity(self, item, terms):
        """Vectors 0, 1 and 2 take the (u, v, w) terms at item."""
        for j, d in enumerate(terms):
            self.update(j, item, d)

    def proof(self) -> DenseProof:
        """b on {0, ..., s-1}, summing g over the nonzero cells only (g
        vanishes at zero) of the columns where the gate vector, if any, is
        nonzero somewhere: grid points read the cells, extension points
        their packed columns w_x / (p - x) one grid segment at a time,
        folded unreduced. Each folded value at p is then multiplied by
        C(p)^d (g is homogeneous of degree d) and reduced once."""
        p = self.params
        q = self.field.q
        g = p.g
        s = p.proof_len
        c_a, c_v = p.c_a, p.c_v

        live = (range(c_v) if p.gate is None
                else {item % c_v for item in self.vecs[p.gate]})
        cells = {}
        for j, vec in enumerate(self.vecs):
            for item, v in vec.items():
                xy = divmod(item, c_v)
                if xy[1] not in live:
                    continue
                slot = cells.get(xy)
                if slot is None:
                    slot = cells[xy] = [0] * p.vectors
                slot[j] = v

        values = [0] * s
        for (x, _), vals in cells.items():
            values[x] += g(vals)
        values[:c_a] = [v % q for v in values[:c_a]]

        ext = s - c_a
        if ext:
            grid = _ext_grid(self.field, c_a, s)
            n = grid.seg_len
            zeros = [0] * n
            for k, segment in enumerate(grid.segments[:ext // n]):
                cols = {}
                for (x, y), vals in cells.items():
                    col = segment[x]
                    accs = cols.get(y)
                    if accs is None:
                        accs = cols[y] = [0] * p.vectors
                    for j, v in enumerate(vals):
                        if v == 1:
                            accs[j] += col
                        elif v:
                            accs[j] += col * v
                bext = zeros
                for accs in cols.values():
                    limbs = [grid.unpack(a) if a else zeros for a in accs]
                    bext = list(map(add, bext, map(g, zip(*limbs))))
                start = c_a + k * n
                values[start:start + n] = [
                    b * cp % q for b, cp in zip(bext, grid.scale(k, p.degree))]

        return DenseProof(values, self.field.bits)


def _proof_work(prover: DenseProver) -> int:
    """Estimated work of prover.proof(), in bytes multiplied: its vector
    entries in live columns (the gate's, when it has one) times its
    extension points times the bytes of a packed limb. The extension points
    dominate a proof, and each entry costs one bigint multiply-add per grid
    segment, as wide as the segment's limbs."""
    p = prover.params
    points = p.proof_len - p.c_a
    if not points:
        return 0
    vecs = prover.vecs
    if p.gate is None:
        entries = sum(map(len, vecs))
    else:
        c_v = p.c_v
        live = {item % c_v for item in vecs[p.gate]}
        entries = sum(item % c_v in live for vec in vecs for item in vec)
    return entries * points * _limb_bytes(prover.field, p.c_a)


# The least estimated work (_proof_work, summed) of a batch that prove_all
# forks for. A fork has a fixed cost, and a write fault on each page the
# parent touches after it. On a 2-core VM, forking the batches of small
# seeded runs cost 1-3 ms per run at 5e5 to 1e7 work and saved 8 ms (of
# 76) at 2.5e7. An fk-churn batch is about 5e6 and an fk-online batch about
# 2e8, where the fork saves about 0.1 s of 0.32.
_FORK_MIN_WORK = 1 << 24


def _can_fork() -> bool:
    """Whether this process may fork a worker: it has os.fork and at least
    two CPUs to run on, and no thread but this one, as a fork copies only
    the calling thread and the locks the others hold."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1)


def _split(work):
    """Indices of the jobs (proofs, or a pass's units) to run here and in
    the worker: largest first, each into the bin with less work so far, the
    calling process taking the bin with more."""
    bins, loads = ([], []), [0, 0]
    for i in sorted(range(len(work)), key=lambda i: -work[i]):
        k = loads[1] < loads[0]
        bins[k].append(i)
        loads[k] += work[i]
    return bins if loads[0] >= loads[1] else bins[::-1]


def _child(rfd, wfd, there):
    """The forked worker's whole life: call there(), write its value to
    wfd, marshalled, and leave through os._exit, with status 0 only when
    all of it was written."""
    code = 1
    try:
        os.close(rfd)
        with open(wfd, "wb") as out:
            out.write(marshal.dumps(there()))
        code = 0
    finally:
        os._exit(code)


def _forked(here, there):
    """Call here() in this process while one forked child calls there().
    Returns there()'s value, sent back through a pipe marshalled, or None
    if the fork failed (EAGAIN at the process limit, ENOMEM), or the child
    exited nonzero or sent a short answer; here() runs in every case. The
    child leaves only through os._exit (_child), so it never returns into
    the caller's stack or flushes stdio buffers it inherited; the parent
    drains the pipe and reaps the child even when here() raises, and the
    error surfaces with its traceback. Callers fork only where _can_fork
    allows it."""
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        here()
        return None
    if pid == 0:
        _child(rfd, wfd, there)
    os.close(wfd)
    try:
        here()
    finally:
        try:
            with open(rfd, "rb") as src:
                data = src.read()
        finally:
            _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) == 0:
        try:
            return marshal.loads(data)
        except (EOFError, ValueError, TypeError):  # a short answer
            pass
    return None


def prove_all(provers) -> list:
    """[p.proof() for p in provers], proven on two CPUs when it pays.

    The batch is split by _proof_work into two bins: the calling process
    proves the larger, and one forked child (_forked) the rest, sending its
    proofs' values. Every extension grid the batch reads is built before
    the fork, so the child reads the parent's copy-on-write and the cache
    keeps them. The batch is proven serially when fewer than two of its
    proofs have work on extension points, when its work is too small to
    pay for a fork (_FORK_MIN_WORK), or when the process may not fork
    (_can_fork). Proofs the child does not send are made in the parent,
    with the same code."""
    provers = list(provers)
    work = [_proof_work(p) for p in provers] if _can_fork() else []
    if sum(w > 0 for w in work) < 2 or sum(work) < _FORK_MIN_WORK:
        return [p.proof() for p in provers]
    for prover in provers:
        p = prover.params
        if p.proof_len > p.c_a:
            _ext_grid(prover.field, p.c_a, p.proof_len)
    here, there = _split(work)
    proofs = [None] * len(provers)

    def prove_here():
        for i in here:
            proofs[i] = provers[i].proof()

    answer = _forked(prove_here,
                     lambda: [provers[i].proof().values for i in there])
    if isinstance(answer, list) and len(answer) == len(there):
        for i, values in zip(there, answer):
            proofs[i] = DenseProof(values, provers[i].field.bits)
    return [provers[i].proof() if proof is None else proof
            for i, proof in enumerate(proofs)]


# The least lane-updates (stream updates times lanes) of a read pass that
# split_pass forks for. On a 2-core VM, over prefixes of fk-churn's seed-1
# stream (9 lanes an update, medians of 15), the serial pass took about
# 0.5 us a lane-update, and splitting it cost 2.4 ms at 2,250 lane-updates
# and 0.8 ms at 9,000, and saved 1.0 ms at 18,000, 4.6 ms at 36,000 and
# 9.6 ms at 72,000: break-even near 15,000. A larger process pays more for
# its fork, so the cutoff is about twice that. fk-online's pass (14,400)
# stays serial, fk-churn's (146,304) splits.
_PASS_FORK_MIN = 1 << 15


def split_pass(run, work, instances, lane_updates):
    """run(units), over units 0 .. len(work) - 1, split over two CPUs when
    it pays; returns the value of run in this process.

    Unit k has the estimated work work[k] and owns the DenseVerifiers
    instances[k]: run(units) writes the rows and packed cells of the given
    units' instances and of no other, and the units' instance lists are
    disjoint. The units are split by work into two bins (_split): this
    process runs the larger, and one forked child (_forked) the rest,
    sending the rows and packed cells of its units' instances, which are
    installed here, in place. If they do not come, this process runs the
    child's units itself. The pass runs serially below _PASS_FORK_MIN
    lane-updates, with fewer than two units, or where the process may not
    fork (_can_fork). A unit list is sorted, so each worker meets its
    units in the order a serial pass does."""
    units = list(range(len(work)))
    if len(units) < 2 or lane_updates < _PASS_FORK_MIN or not _can_fork():
        return run(units)
    here, there = (sorted(part) for part in _split(work))
    theirs = [v for k in there for v in instances[k]]
    result = []

    def run_there():
        run(there)
        return [(v._rows, v._pack) for v in theirs]

    answer = _forked(lambda: result.append(run(here)), run_there)
    if isinstance(answer, list) and len(answer) == len(theirs):
        for v, (rows, pack) in zip(theirs, answer):
            for row, got in zip(v._rows, rows):
                row[:] = got
            v._pack[:] = pack
    else:
        run(there)
    return result[0]


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

