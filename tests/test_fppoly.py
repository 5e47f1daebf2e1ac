import itertools
import random

import pytest
from sympy import isprime, primerange
from sympy.ntheory import sqrt_mod

from dpip import fppoly
from helpers import irreducible_mod_p, sympy_factor

PRIMES = [2, 3, 5, 7, 11, 13, 97]


def _rand_poly(rng, p, maxdeg):
    return fppoly.from_ints([rng.randrange(p) for _ in range(maxdeg + 1)], p)


def test_mul_divmod_roundtrip():
    rng = random.Random(0)
    for _ in range(300):
        p = rng.choice(PRIMES)
        a = _rand_poly(rng, p, rng.randint(0, 6))
        b = _rand_poly(rng, p, rng.randint(0, 4))
        if not b:
            continue
        q, r = fppoly.divmod_(a, b, p)
        recomposed = fppoly.add(fppoly.mul(q, b, p), r, p)
        assert recomposed == a
        assert len(r) < len(b)


def test_gcd_divides_both():
    rng = random.Random(1)
    for _ in range(200):
        p = rng.choice(PRIMES)
        a = _rand_poly(rng, p, 5)
        b = _rand_poly(rng, p, 5)
        g = fppoly.gcd(a, b, p)
        if g:
            assert not fppoly.mod(a, g, p)
            assert not fppoly.mod(b, g, p)
            assert g[-1] == 1


def test_xgcd_bezout():
    rng = random.Random(2)
    for _ in range(200):
        p = rng.choice(PRIMES)
        a = _rand_poly(rng, p, 5)
        b = _rand_poly(rng, p, 5)
        if not a and not b:
            continue
        g, u, v = fppoly.xgcd(a, b, p)
        lhs = fppoly.add(fppoly.mul(u, a, p), fppoly.mul(v, b, p), p)
        assert lhs == g


def test_factor_recomposes_and_is_irreducible():
    rng = random.Random(4)
    for _ in range(120):
        p = rng.choice(PRIMES)
        a = _rand_poly(rng, p, rng.randint(1, 6))
        if fppoly.deg(a) < 1:
            continue
        factors = fppoly.factor(a, p)
        prod = [a[-1]]  # leading coefficient
        for fac, e in factors:
            assert fac[-1] == 1
            assert irreducible_mod_p(fac, p)
            for _ in range(e):
                prod = fppoly.mul(prod, list(fac), p)
        assert prod == a


# x^2 + 5, x^2 + 21, x^2 + 105, x^2 + x + 1, x^2 - 2, x^2 + 3x + 7: b != 0,
# p | D and a real quadratic all occur
QUADRATICS = [(5, 0, 1), (21, 0, 1), (105, 0, 1), (1, 1, 1), (-2, 0, 1), (7, 3, 1)]


def test_quadratic_factor_matches_gf_factor_below_10000():
    for p in primerange(2, 10**4):
        for f in QUADRATICS:
            assert fppoly.factor(f, p) == sympy_factor(f, p), (f, p)


def _seeded_primes(rng, count):
    """count primes of 64-256 bits; every other one is 1 mod 2^8, where
    Tonelli-Shanks takes the most steps."""
    out = []
    for i in range(count):
        bits = 64 + 192 * i // (count - 1)
        if i % 2:
            k = rng.getrandbits(bits - 8) | 1 << (bits - 9)
            while not isprime(k << 8 | 1):
                k += 1
            out.append(k << 8 | 1)
        else:
            n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
            while not isprime(n):
                n += 2
            out.append(n)
    return out


def test_quadratic_factor_matches_gf_factor_at_large_primes():
    split = 0
    for p in _seeded_primes(random.Random(20), 20):
        for f in QUADRATICS:
            got = fppoly.factor(f, p)
            assert got == sympy_factor(f, p), (f, p)
            split += p % 256 == 1 and len(got) == 2
    assert split >= 10  # square roots mod p = 1 (mod 2^8) were taken


def _same_roots(a, p):
    """sqrt_residue(a, p) is a root exactly when sympy's `sqrt_mod` finds
    one, and then it is one of the same pair +-s."""
    s, x = sqrt_mod(a, p), fppoly.sqrt_residue(a, p)
    if s is None:
        return x * x % p != a
    return x in (s, (p - s) % p)


def test_sqrt_residue_matches_sqrt_mod_below_10000():
    rng = random.Random(21)
    for p in primerange(3, 10**4):
        cases = range(p) if p < 100 else [0, 1, p - 1, *(rng.randrange(p) for _ in range(6))]
        for a in cases:
            assert _same_roots(a, p), (a, p)


def test_sqrt_residue_matches_sqrt_mod_at_large_primes():
    rng = random.Random(22)
    for p in _seeded_primes(random.Random(20), 20):
        for _ in range(4):
            r = rng.randrange(1, p)
            assert _same_roots(r * r % p, p), p
            assert _same_roots(rng.randrange(p), p), p


def test_factor_reduces_and_trims_its_input():
    # a leading coefficient divisible by p drops before factoring
    assert fppoly.factor([2, 1, 0, 7], 7) == [((2, 1), 1)]
    # 3x^2 + x + 1 = 3(x + 3)(x + 4) over F_5
    assert fppoly.factor([1, 1, 3, 5], 5) == [((3, 1), 1), ((4, 1), 1)]
    assert fppoly.factor([1, 1, 3, 5], 5) == sympy_factor((1, 1, 3), 5)
    # nothing of positive degree is left
    for a, p in (([1, 0, 5], 5), ([7, 14], 7), ([], 5), ([0, 0, 3], 3)):
        with pytest.raises(ValueError):
            fppoly.factor(a, p)


def _irreducible_by_trial_division(a, p):
    """Monic a of degree n >= 1 is irreducible over F_p exactly when no
    monic polynomial of degree 1..n//2 divides it."""
    n = fppoly.deg(a)
    for k in range(1, n // 2 + 1):
        for tail in itertools.product(range(p), repeat=k):
            if not fppoly.mod(a, list(tail) + [1], p):
                return False
    return True


def test_factor_finds_the_irreducibles_that_trial_division_finds():
    # a monic polynomial is irreducible exactly when it is its own one factor
    for p in (2, 3, 5, 7):
        for n in range(1, 6):
            rng = random.Random(5 * p + n)
            for _ in range(30):
                coeffs = [rng.randrange(p) for _ in range(n)] + [1]
                irreducible = fppoly.factor(coeffs, p) == [(tuple(coeffs), 1)]
                assert irreducible == _irreducible_by_trial_division(coeffs, p), (p, coeffs)
