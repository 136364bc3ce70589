import random

import pytest

from streamcert.field import (DEFAULT_FIELD, Field, M61, eval_values_at,
                              field_at_least, is_prime, lagrange_row,
                              next_prime)

from conftest import eval_poly, lagrange_basis_at

F11 = Field(11)
F101 = Field(101)


def trial_division_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_next_prime_scan_matches_trial_division():
    # every candidate in [4625, 4637) is composite, 4637 is prime
    for c in range(4625, 4637):
        assert not trial_division_prime(c)
    assert trial_division_prime(4637)
    assert next_prime(4625) == 4637


def test_mersenne_61_is_prime_by_independent_oracle():
    # random-base Miller-Rabin, bases chosen independently of the library's
    rng = random.Random(99)
    n = M61
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(50):
        a = rng.randrange(2, n - 2)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            pytest.fail("2^61 - 1 failed a Miller-Rabin round")
    assert is_prime(M61)
    assert next_prime(M61) == M61


def test_signed_encoding_roundtrip():
    for x in range(-5, 6):
        assert F11.dec_signed(x % F11.q) == x


def test_eval_poly():
    assert eval_poly(F11, [], 7) == 0
    assert eval_poly(F11, [0, 1], 5) == 5
    assert eval_poly(F11, [1, 2, 1], 3) == 5  # 16 mod 11


def test_lagrange_basis_at():
    assert lagrange_basis_at(F11, 4, 2, 2) == 1  # own node
    assert lagrange_basis_at(F11, 4, 2, 3) == 0  # other node
    assert lagrange_basis_at(F11, 2, 0, 5) == 7  # (5-1) * (0-1)^-1 mod 11
    with pytest.raises(ValueError):
        lagrange_basis_at(F11, 12, 0, 5)


def test_lagrange_row_matches_single_and_sums_to_one():
    rng = random.Random(3)
    for field in (F101, DEFAULT_FIELD, field_at_least(1 << 79)):
        for c in (1, 2, 5, 9):
            # random points, every domain point and the top of the field
            for r in [field.rand(rng) for _ in range(5)] + [*range(c), field.q - 1]:
                row = lagrange_row(field, c, r)
                assert row == [lagrange_basis_at(field, c, x, r) for x in range(c)]
                assert sum(row) % field.q == 1  # partition of unity


def test_eval_values_at():
    coeffs = [3, 1, 4, 1]
    values = [eval_poly(F101, coeffs, x) for x in range(4)]
    for x in range(4):
        assert eval_values_at(F101, values, x) == values[x]
    for x in (10, 55, 100):
        assert eval_values_at(F101, values, x) == eval_poly(F101, coeffs, x)


def test_random_element_deterministic_and_in_range():
    for seed in (0, 1, 2):
        a = F11.rand(random.Random(seed))
        b = F11.rand(random.Random(seed))
        assert a == b
        assert 0 <= a < 11
    f2 = Field(2)
    seen = {f2.rand(random.Random(s)) for s in range(40)}
    assert seen == {0, 1}


def test_random_element_uniform_chi_square():
    rng = random.Random(17)
    counts = [0] * 11
    draws = 100_000
    for _ in range(draws):
        counts[F11.rand(rng)] += 1
    expect = draws / 11
    chi2 = sum((c - expect) ** 2 / expect for c in counts)
    assert chi2 < 29.59  # df=10 critical value at alpha=0.001


def test_field_at_least():
    assert field_at_least(100).q == M61
    big = field_at_least(M61 + 1)
    assert big.q > M61
    assert is_prime(big.q)


def test_next_prime_small():
    assert [next_prime(x) for x in (0, 2, 3, 4, 90)] == [2, 2, 3, 5, 97]
