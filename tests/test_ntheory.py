"""dpip's own primality and perfect-power tests against sympy's, and the
discriminant of Phi_m read from m against sympy's polynomial discriminant."""

import functools
import itertools
import random

import pytest
from sympy import Poly, Symbol, cyclotomic_poly, factorint, nextprime, totient
from sympy import isprime as sympy_isprime
from sympy import integer_nthroot
from sympy import perfect_power as sympy_perfect_power
from sympy.ntheory.primetest import is_strong_lucas_prp
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dup_discriminant

from dpip import ntheory
from dpip.errors import GaveUpError
from dpip.nf import NumberField, _cyclotomic_disc, _cyclotomic_poly, _totients

LUCAS_PSEUDOPRIMES = [5459, 5777, 10877, 16109, 18971]  # strong, Selfridge's D
BASE2_PSEUDOPRIMES = [2047, 3277, 4033]  # strong base-2
# the least strong pseudoprimes to the first k prime bases, psi_k, for k = 2
# to 7, 9 and 12 (psi13 is MR_EXACT)
PSI = [
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
]


@functools.cache
def _corpus():
    ns = LUCAS_PSEUDOPRIMES + BASE2_PSEUDOPRIMES + PSI
    # Carmichael numbers: the first ones, and Chernick's (6k + 1)(12k + 1)(18k
    # + 1) below 2^64, between 2^64 and psi13 and above it
    ns += [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341]
    for k in itertools.chain(range(1, 400), range(10**6, 10**6 + 400), range(10**8, 10**8 + 400)):
        if all(sympy_isprime(a * k + 1) for a in (6, 12, 18)):
            ns.append((6 * k + 1) * (12 * k + 1) * (18 * k + 1))
    ns += [ntheory.MR_EXACT + k for k in range(-2, 3)]
    ns += [2**64 + k for k in range(-200, 201)]
    # prime powers, near-powers and products of two primes
    rng = random.Random(22)
    for bits in (2, 11, 20, 33, 64, 82, 100, 200):
        q = nextprime(rng.getrandbits(bits) | (1 << (bits - 1)))
        for e in range(1, 8):
            ns += [q**e - 1, q**e, q**e + 1, q**e * 1009]
        ns.append(q * nextprime(q))
    ns += [rng.getrandbits(rng.randint(2, 300)) for _ in range(3000)]
    return tuple(ns)


def _pp(n):
    pp = sympy_perfect_power(n)
    return (int(pp[0]), int(pp[1])) if pp else None


def test_isprime_agrees_with_sympy():
    ns = [*range(-3, 20000), *_corpus()]
    assert all(ntheory.isprime(n) == sympy_isprime(n) for n in ns)
    assert not any(map(ntheory.isprime, LUCAS_PSEUDOPRIMES + BASE2_PSEUDOPRIMES + PSI))
    assert sum(map(ntheory.isprime, ns)) > 2000


def test_psi_k_are_strong_pseudoprimes_to_the_first_k_bases():
    # each psi_k fools the strong test on the first k prime bases, and the
    # 13 bases isprime uses below MR_EXACT catch it
    for k, n in zip((2, 3, 4, 5, 6, 7, 9, 12), PSI):
        assert ntheory.strong_prp(n, ntheory.SMALL_PRIMES[:k]), n
        assert not ntheory.strong_prp(n, ntheory.SMALL_PRIMES[:13]), n
        assert not ntheory.isprime(n) and not sympy_isprime(n)
    # psi13 itself passes all 13, and BPSW catches it
    assert ntheory.strong_prp(ntheory.MR_EXACT, ntheory.SMALL_PRIMES[:13])
    assert not ntheory.isprime(ntheory.MR_EXACT)


def test_strong_lucas_agrees_with_sympy():
    ns = [*range(1, 20000), *(n for n in _corpus() if n > 0)]
    got = [ntheory.strong_lucas_prp(n) for n in ns]
    assert got == [is_strong_lucas_prp(n) for n in ns]
    assert all(map(ntheory.strong_lucas_prp, LUCAS_PSEUDOPRIMES))
    assert not any(map(ntheory.strong_lucas_prp, BASE2_PSEUDOPRIMES))


def test_perfect_power_agrees_with_sympy():
    ns = [*range(2, 5000), *(n for n in _corpus() if n > 1)]
    for b, e in itertools.product((2, 3, 6, 12, 997, 1009, 2**61 - 1), range(2, 14)):
        ns += [b**e - 1, b**e, b**e + 1, 2 * b**e]
    ns += [2**10 * 3**5, 2**6 * 3**9 * 1009**3, 1009**2 * 1013**4]
    assert all(ntheory.perfect_power(n) == _pp(n) for n in ns)
    assert ntheory.perfect_power(1009**6) == (1009, 6)
    assert ntheory.perfect_power(2**10 * 3**5) == (12, 5)


def test_iroot_agrees_with_sympy():
    rng = random.Random(24)
    for _ in range(400):
        n, k = rng.getrandbits(rng.randint(1, 3000)), rng.randint(2, 40)
        r = integer_nthroot(n, k)[0]
        cases = [(n, r), (r**k - 1, r - 1), (r**k, r), (r**k + 1, r)] if r else [(n, r)]
        for m, want in cases:
            assert ntheory.iroot(m, k) == want == integer_nthroot(m, k)[0], (m, k)
    assert [ntheory.iroot(n, 1) for n in (0, 1, 7)] == [0, 1, 7]
    assert [ntheory.iroot(n, 5) for n in (0, 1, 31, 32, 33)] == [0, 1, 1, 2, 2]


def test_small_primes_and_prime_factors():
    assert ntheory.SMALL_PRIMES == tuple(n for n in range(1000) if sympy_isprime(n))
    assert ntheory.prime_factors(1) == []
    assert ntheory.prime_factors(180) == [2, 3, 5]
    assert ntheory.prime_factors(2 * 10007**2) == [2, 10007]


def test_prime_factors_matches_factorint_within_the_bound():
    # a product of primes below the bound, times one prime below its
    # square: the trial division finishes on each
    rng = random.Random(31)
    small = [p for p in range(2, ntheory.TRIAL_LIMIT) if sympy_isprime(p)]
    for _ in range(200):
        m = 1
        for p in rng.sample(small, rng.randint(0, 5)):
            m *= p ** rng.randint(1, 3)
        m *= nextprime(rng.randrange(ntheory.TRIAL_LIMIT**2 - 1000))
        assert ntheory.prime_factors(m) == sorted(factorint(m)), m


def test_prime_factors_gives_up_on_two_primes_above_the_bound():
    q1 = nextprime(ntheory.TRIAL_LIMIT)
    q2 = nextprime(2**31)
    for m in (q1 * q2, 12 * q1 * q2, q1 * q1):
        with pytest.raises(GaveUpError, match="cofactor"):
            ntheory.prime_factors(m)
    assert ntheory.prime_factors(6 * q2) == [2, 3, q2]


def test_cyclotomic_discriminant_matches_the_polynomial_discriminant():
    x = Symbol("x")
    phi = _totients(300)
    assert phi[1:] == [totient(m) for m in range(1, 301)]
    for m in range(1, 301):
        f = _cyclotomic_poly(m)
        assert list(f) == [int(c) for c in Poly(cyclotomic_poly(m, x), x).all_coeffs()[::-1]]
        assert _cyclotomic_disc(m, phi[m]) == int(dup_discriminant(list(f[::-1]), ZZ)), m


def test_cyclotomic_field_reads_disc_and_its_primes_from_m(K64, K180):
    assert K180.disc == _cyclotomic_disc(180, 48)
    assert K64.disc == 2**160
    assert NumberField([1, -1, 1]).disc == -3  # Phi_6: of the primes of 6, only 3 divides it
