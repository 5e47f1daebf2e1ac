import itertools
import random

import pytest

from dpip import fppoly

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
            assert fppoly.is_irreducible(list(fac), p)
            for _ in range(e):
                prod = fppoly.mul(prod, list(fac), p)
        assert prod == a


def _irreducible_by_trial_division(a, p):
    """Monic a of degree n >= 1 is irreducible over F_p exactly when no
    monic polynomial of degree 1..n//2 divides it."""
    n = fppoly.deg(a)
    for k in range(1, n // 2 + 1):
        for tail in itertools.product(range(p), repeat=k):
            if not fppoly.mod(a, list(tail) + [1], p):
                return False
    return True


def test_is_irreducible_agrees_with_trial_division():
    for p in (2, 3, 5, 7):
        for n in range(1, 6):
            rng = random.Random(5 * p + n)
            for _ in range(30):
                coeffs = [rng.randrange(p) for _ in range(n)] + [1]
                assert fppoly.is_irreducible(coeffs, p) == _irreducible_by_trial_division(
                    coeffs, p
                ), (p, coeffs)


def test_is_irreducible_needs_a_monic_polynomial_of_positive_degree():
    assert fppoly.is_irreducible([], 5) is False
    assert fppoly.is_irreducible([3], 5) is False
    # 2x^2 + x + 1 is irreducible over F_5 but not monic
    assert fppoly.is_irreducible([1, 1, 2], 5) is False
    assert fppoly.is_irreducible([3, 3, 1], 5) is True  # its monic associate


def test_multiplicity():
    p = 7
    g = [3, 1]  # x + 3
    u = [1, 0, 1]  # x^2 + 1, which has no root -3 mod 7
    a = u
    for e in range(4):
        assert fppoly.multiplicity(g, a, p) == e
        a = fppoly.mul(a, g, p)
    assert fppoly.multiplicity(fppoly.mul(g, g, p), a, p) == 2  # a = u * g^4
    for constant in ([1], []):
        with pytest.raises(ValueError):
            fppoly.multiplicity(constant, u, p)
