"""Prime-field arithmetic and univariate polynomial helpers.

Field elements are plain ints reduced into [0, q); a Field object carries the
modulus and the operations, so values stay cheap to pass around and compare.
The default modulus is the Mersenne prime 2^61 - 1. Schemes that need a
larger field (to keep an integer identity exact, or to shrink a soundness
error) ask for the next prime past their bound.
"""

from math import factorial
from operator import mul

M61 = (1 << 61) - 1

# Miller-Rabin with this witness set is deterministic for all n < 3.317e24,
# which covers every modulus this package constructs.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    if n <= 2:
        return 2
    c = n | 1
    while not is_prime(c):
        c += 2
    return c


class Field:
    """GF(q) for prime q. Elements are ints in [0, q)."""

    __slots__ = ("q", "bits")

    def __init__(self, q: int):
        if not is_prime(q):
            raise ValueError(f"modulus {q} is not prime")
        self.q = q
        self.bits = q.bit_length()

    def dec_signed(self, v: int) -> int:
        """Decode assuming the represented integer has magnitude < q/2."""
        return v if v <= self.q // 2 else v - self.q

    def rand(self, rng) -> int:
        return rng.randrange(self.q)

    def __eq__(self, other):
        return isinstance(other, Field) and other.q == self.q

    def __hash__(self):
        return hash(("Field", self.q))

    def __repr__(self):
        return f"Field({self.q})"


DEFAULT_FIELD = Field(M61)


def field_at_least(min_q: int) -> Field:
    """Default field, or a larger prime one when min_q exceeds 2^61 - 1.

    Oversized moduli are rounded up to the next prime past a power of two so
    that repeated runs with nearby bounds share a field (and the caches keyed
    by it).
    """
    if min_q <= M61:
        return DEFAULT_FIELD
    return Field(next_prime(1 << (min_q - 1).bit_length()))


# -- Lagrange interpolation over the domain {0, ..., c-1} --

def inverse_factorials(field, n):
    """[1/k! for k < n] mod q, from one modular inverse. Needs 1 <= n <= q,
    so that every k! is invertible."""
    q = field.q
    out = [1] * n
    inv = pow(factorial(n - 1) % q, q - 2, q)
    for k in range(n - 1, 0, -1):
        out[k] = inv
        inv = inv * k % q
    return out


def lagrange_row(field, c, r):
    """[L_x(r) for x in 0..c-1] over the domain {0, ..., c-1}, in O(c).

    L_x(r) = prod_{k<x} (r-k) * prod_{k>x} (k-r) / (x! * (c-1-x)!): the
    prefix and suffix products need no division, so r landing on a domain
    point needs no special casing.
    """
    if c > field.q:
        raise ValueError("domain does not embed in the field")
    q = field.q
    r = r % q
    pref = [1] * c
    acc = 1
    for x in range(c - 1):
        acc = acc * (r - x) % q
        pref[x + 1] = acc
    suf = [1] * c
    acc = 1
    for x in range(c - 1, 0, -1):
        acc = acc * (x - r) % q
        suf[x - 1] = acc
    invf = inverse_factorials(field, c)
    return [a * b * u * v % q
            for a, b, u, v in zip(pref, suf, invf, reversed(invf))]


def eval_values_at(field, values, x):
    """Evaluate the degree < len(values) polynomial given by its values on
    {0, 1, ..., len(values)-1} at an arbitrary field point."""
    s = len(values)
    x = x % field.q
    if x < s:
        return values[x]
    return sum(map(mul, lagrange_row(field, s, x), values)) % field.q
