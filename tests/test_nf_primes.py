import random

import pytest
from sympy import primerange

from dpip.nf import (
    Ideal,
    NumberField,
    PrimeIdeal,
    as_prime_ideal,
    kummer_dedekind,
    order_is_maximal_at,
    poly_discriminant,
)


def test_ramified_two(K5):
    factors = kummer_dedekind(2, K5)
    assert len(factors) == 1
    P = factors[0]
    assert (P.p, P.gen_poly, P.res_degree, P.ram_index) == (2, (1, 1), 1, 2)
    assert P.to_ideal() ** 2 == Ideal.principal(K5, K5.rational(2))


def test_split_three(K5):
    factors = kummer_dedekind(3, K5)
    assert len(factors) == 2
    assert all(P.res_degree == 1 and P.ram_index == 1 for P in factors)
    # x^2 + 5 = x^2 - 1 mod 3 by exhaustive root search
    roots = [a for a in range(3) if (a * a + 5) % 3 == 0]
    assert sorted(roots) == [1, 2]
    gens = {P.gen_poly for P in factors}
    assert gens == {(1, 1), (2, 1)}  # x + 1 and x + 2, i.e. roots -1, -2


def test_inert_eleven(K5):
    assert all((a * a + 5) % 11 for a in range(11))  # no root mod 11
    factors = kummer_dedekind(11, K5)
    assert len(factors) == 1
    assert factors[0].res_degree == 2
    assert factors[0].to_ideal() == Ideal.principal(K5, K5.rational(11))


def test_factor_recompose_all_small_primes(K5, K21, Ki):
    cubic = NumberField([-1, -1, 0, 1])  # x^3 - x - 1, disc -23
    for K in (K5, K21, Ki, cubic):
        ring = Ideal.ring(K)
        for p in primerange(2, 100):
            factors = kummer_dedekind(p, K)
            assert sum(P.ram_index * P.res_degree for P in factors) == K.degree
            prod = ring
            for P in factors:
                prod = prod * P.to_ideal() ** P.ram_index
            assert prod == Ideal.principal(K, K.rational(p))


def test_kummer_dedekind_rejects_composites(K5):
    with pytest.raises(ValueError):
        kummer_dedekind(6, K5)


def test_as_prime_examples(K5):
    assert as_prime_ideal(Ideal.ring(K5)) is None
    P = as_prime_ideal(Ideal.principal(K5, K5.element([3, 2])))
    assert P is not None
    assert (P.p, P.res_degree) == (29, 1)
    assert P.to_ideal().contains_element(K5.element([-13, 1]))
    # (2) has norm 4 = 2^2 but is the square of a degree-1 prime
    assert as_prime_ideal(Ideal.principal(K5, K5.rational(2))) is None


def test_as_prime_inert(K5):
    P = as_prime_ideal(Ideal.principal(K5, K5.rational(11)))
    assert P is not None and P.res_degree == 2 and P.ram_index == 1


def test_as_prime_random_consistency(K5, K21):
    rng = random.Random(0)
    for K in (K5, K21):
        for p in primerange(2, 60):
            for P in kummer_dedekind(p, K):
                back = as_prime_ideal(P.to_ideal())
                assert back == P
    # products of two distinct primes above the same p are not prime
    for K in (K5, K21):
        for p in primerange(2, 60):
            factors = kummer_dedekind(p, K)
            if len(factors) == 2:
                I = factors[0].to_ideal() * factors[1].to_ideal()
                assert as_prime_ideal(I) is None


def test_as_prime_requires_integral(K5):
    I = Ideal.from_generators(K5, [K5.rational(2), K5.element([1, 1])])
    with pytest.raises(ValueError):
        as_prime_ideal(I.inverse())


def test_prime_norm(K5):
    for p in (2, 3, 5, 7, 11, 13):
        for P in kummer_dedekind(p, K5):
            assert P.norm() == p**P.res_degree
            assert P.to_ideal().norm() == P.norm()


def test_prime_gen_poly_is_divided_by_its_leading_coefficient(K5):
    # 2x + 3 = 2(x + 4) mod 5: both cut out theta = 1
    assert PrimeIdeal(K5, 5, (3, 2), 1, 1).gen_poly == (4, 1)
    # 5x + 3 = 3 mod 5 has degree 0, not the residue degree 1
    with pytest.raises(ValueError):
        PrimeIdeal(K5, 5, (3, 5), 1, 1)


def test_poly_discriminant_examples(K5):
    one, zero = K5.one(), K5.zero()
    assert poly_discriminant([one, zero, one]) == K5.rational(-4)
    assert poly_discriminant([K5.rational(-1), K5.rational(-1), one]) == K5.rational(5)
    assert poly_discriminant([K5.element([7, -3]), one]) == one
    with pytest.raises(ValueError):
        poly_discriminant([one, zero, K5.rational(2)])  # not monic


def test_poly_discriminant_binomial_closed_form(K180):
    # disc(x^n + c) = (-1)^(n(n-1)/2) n^n c^(n-1)
    rng = random.Random(1)
    c = K180.element([rng.randint(-5, 5) for _ in range(48)])
    zero, one = K180.zero(), K180.one()
    d3 = poly_discriminant([c, zero, zero, one])
    assert d3 == K180.rational(-27) * c * c
    d5 = poly_discriminant([c, zero, zero, zero, zero, one])
    assert d5 == K180.rational(5**5) * c**4


def test_poly_discriminant_matches_integer_disc(K5):
    # rational-coefficient polynomials agree with the Z[x] discriminant
    from dpip.nf import int_poly_discriminant

    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(1, 4)
        ints = [rng.randint(-9, 9) for _ in range(n)] + [1]
        elems = [K5.rational(c) for c in ints]
        assert poly_discriminant(elems) == K5.rational(int_poly_discriminant(ints))


def test_dedekind_criterion(K5):
    assert order_is_maximal_at(2, K5) is True
    K5real = NumberField([-5, 0, 1])
    assert order_is_maximal_at(2, K5real) is False  # index 2: (1+sqrt5)/2
    # p^2 not dividing the discriminant is always maximal
    for p in (3, 7, 11, 13):
        assert K5.disc % (p * p) != 0
        assert order_is_maximal_at(p, K5) is True


def test_dedekind_criterion_cyclotomic(K64):
    # Z[zeta_64] is the maximal order, even at the totally ramified 2
    assert order_is_maximal_at(2, K64) is True
