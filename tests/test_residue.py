import itertools
import random

import pytest

from dpip import fppoly
from dpip.decide import NO, YES, decide_ideal, default_switch_config
from dpip.errors import SquarefreeViolationError
from dpip.nf import kummer_dedekind
from dpip.ntheory import isprime
from dpip.residue import (
    _inv,
    _mul,
    element_in_prime,
    reduce_poly_mod_prime,
    residue_of,
    splits_completely,
)
from helpers import (
    fq_add,
    fq_mul,
    fq_pow,
    fq_reduce,
    fq_sub,
    fqx_mul,
    irreducible_mod_p,
    residue_elements,
    residue_evaluate,
    splits_reference,
)


def _irreducible_modulus(p, f):
    if f == 1:
        return [0, 1]
    for tail in itertools.product(range(p), repeat=f):
        cand = list(tail) + [1]
        if irreducible_mod_p(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")


def test_residue_field_arithmetic():
    h = _irreducible_modulus(3, 2)
    els = list(residue_elements(3, 2))
    assert len(els) == 9
    for a in els:
        for b in els:
            assert _mul(a, b, 3, h) == _mul(b, a, 3, h) == fq_mul(a, b, 3, h)
        if a:
            assert _mul(a, _inv(a, 3, h), 3, h) == [1]
    with pytest.raises(ZeroDivisionError):
        _inv([], 3, h)


def test_reduce_mod_prime_rational_coeffs(K5):
    P29 = [P for P in kummer_dedekind(29, K5) if P.gen_poly == (16, 1)][0]
    g = reduce_poly_mod_prime([K5.one(), K5.zero(), K5.one()], P29)
    assert g == [[1], [], [1]]


def test_reduce_mod_prime_maps_theta(K5):
    # theta = 1 under (3, theta - 1), so x^2 - theta becomes x^2 - 1
    P = [P for P in kummer_dedekind(3, K5) if P.gen_poly == (2, 1)][0]
    g = reduce_poly_mod_prime([-K5.element([0, 1]), K5.zero(), K5.one()], P)
    assert g == [[2], [], [1]]


def test_reduce_mod_prime_power_coefficient(K64):
    # theta^16 maps to the 16th Frobenius-power of the residue class of z
    P = kummer_dedekind(97, K64)[0]
    assert P.res_degree == 2
    coeff = [0] * 32
    coeff[16] = 1
    g = reduce_poly_mod_prime([K64.element(coeff), K64.one()], P)
    z16 = [1]
    for _ in range(16):
        z16 = fppoly.mod(fppoly.mul(z16, [0, 1], 97), list(P.gen_poly), 97)
    assert g[0] == z16


def test_reduce_mod_requires_monic(K5):
    P = kummer_dedekind(3, K5)[0]
    with pytest.raises(ValueError):
        reduce_poly_mod_prime([K5.one(), K5.rational(2)], P)


def test_element_in_prime_examples(K5):
    P2 = kummer_dedekind(2, K5)[0]
    P3 = [P for P in kummer_dedekind(3, K5) if P.gen_poly == (2, 1)][0]
    P5 = kummer_dedekind(5, K5)[0]
    assert element_in_prime(K5.rational(-4), P2) is True
    assert element_in_prime(K5.rational(-4), P3) is False
    assert element_in_prime(K5.element([0, 1]), P5) is True


def test_element_in_prime_matches_lattice(K5, K21):
    rng = random.Random(0)
    for K in (K5, K21):
        for p in (2, 3, 5, 7, 11, 13):
            for P in kummer_dedekind(p, K):
                lattice = P.to_ideal()
                for _ in range(25):
                    a = K.element([rng.randint(-20, 20), rng.randint(-20, 20)])
                    assert element_in_prime(a, P) == lattice.contains_element(a)


def _splits(g, P):
    return splits_completely(g, P.p, P.gen_poly)


def test_splitting_examples(K5):
    one, zero = K5.one(), K5.zero()
    P29 = [P for P in kummer_dedekind(29, K5) if P.gen_poly == (16, 1)][0]
    assert _splits(reduce_poly_mod_prime([one, zero, one], P29), P29) is True
    assert [a for a in range(29) if (a * a + 1) % 29 == 0] == [12, 17]
    P3 = kummer_dedekind(3, K5)[0]
    assert _splits(reduce_poly_mod_prime([one, zero, one], P3), P3) is False
    assert not [a for a in range(3) if (a * a + 1) % 3 == 0]
    # linear polynomials always split
    assert _splits(reduce_poly_mod_prime([K5.element([4, 2]), one], P3), P3)


def test_splitting_vs_brute_force():
    rng = random.Random(1)
    checked = 0
    fields = [(2, 1), (3, 1), (5, 1), (7, 1), (13, 1), (2, 2), (3, 2), (5, 2),
              (7, 2), (2, 3), (3, 3), (2, 4), (11, 1), (97, 1)]
    for p, f in fields:
        h, q = _irreducible_modulus(p, f), p**f
        els = list(residue_elements(p, f))
        done = 0
        while done < 15:
            n = rng.randint(1, min(6, q - 1) if q > 2 else 2)
            g = [rng.choice(els) for _ in range(n)] + [[1]]
            try:
                verdict = splits_completely(g, p, h)
            except SquarefreeViolationError:
                continue
            roots = sum(1 for x in els if not residue_evaluate(g, x, p, h))
            assert verdict == (roots == n), (p, f, g)
            done += 1
            checked += 1
    assert checked >= 200


def test_squarefree_violation_raised():
    doubled = [[1], [3], [1]]  # (x + 4)^2 mod 5
    with pytest.raises(SquarefreeViolationError):
        splits_completely(doubled, 5, [0, 1])


@pytest.mark.parametrize("p, h, c", [(5, [0, 1], [2]), (3, [1, 0, 1], [0, 1]), (7, [1, 0, 1], [3, 1])])
def test_x_to_the_p_minus_c_is_not_squarefree(p, h, c):
    # d/dx (x^p - c) = p x^(p-1) = 0 over F_p[y]/(h), so gcd(g, g') = g
    g = [fq_sub([], c, p)] + [[]] * (p - 1) + [[1]]
    with pytest.raises(SquarefreeViolationError):
        splits_completely(g, p, h)


@pytest.mark.parametrize(
    "g, p, h",
    [
        ([[1], [1]], 5, [0, 2]),  # non-monic modulus
        ([[1], [1]], 5, [1, 0, 5]),  # leading coefficient 0 mod p
        ([[1], [1]], 5, [1]),  # degree-0 modulus
        ([[1], [1]], 5, []),
        ([[1], [2]], 5, [0, 1]),  # non-monic g
        ([[1]], 5, [0, 1]),  # degree-0 g
        ([[1], [1], []], 5, [0, 1]),  # untrimmed g
    ],
)
def test_splitting_refuses_a_bad_modulus_or_polynomial(g, p, h):
    with pytest.raises(ValueError):
        splits_completely(g, p, h)


def test_reduction_is_ring_hom(K5):
    rng = random.Random(2)
    for p in (3, 7, 11, 29):
        for P in kummer_dedekind(p, K5):
            h = P.gen_poly
            for _ in range(20):
                a = K5.element([rng.randint(-30, 30), rng.randint(-30, 30)])
                b = K5.element([rng.randint(-30, 30), rng.randint(-30, 30)])
                ia, ib = residue_of(a, P), residue_of(b, P)
                assert ia == fq_reduce(list(a.coords), p, h)
                assert fq_mul(ia, ib, p, h) == residue_of(a * b, P)
                assert fq_add(ia, ib, p) == residue_of(a + b, P)


def _random_monic(rng, p, h, n):
    """A random monic polynomial of degree n over F_p[y]/(h), from
    coefficient lists of length f, trimmed."""
    f = len(h) - 1
    return [fq_reduce([rng.randrange(p) for _ in range(f)], p, h) for _ in range(n)] + [[1]]


def _agrees_with_reference(g, p, h):
    """splits_completely(g, p, h) equals the reference verdict; False when
    g is not squarefree, which splits_completely reports by raising."""
    try:
        verdict = splits_completely(g, p, h)
    except SquarefreeViolationError:
        return False
    assert verdict == splits_reference(g, p, h), (p, h, g)
    return True


def _random_irreducible(rng, p, f):
    while True:
        cand = [rng.randrange(p) for _ in range(f)] + [1]
        if irreducible_mod_p(cand, p):
            return cand


@pytest.mark.parametrize("f", [1, 2, 3])
def test_frobenius_power_matches_reference(f):
    # small fields, where the reference is also checked by brute force
    # above, and primes of 14 to 61 bits, where q has many set bits
    rng = random.Random(10 + f)
    for p in (2, 3, 7, 10007, 2**61 - 1 if f == 1 else 2**31 - 1):
        h = _random_irreducible(rng, p, f)
        checked = 0
        while checked < 8:
            checked += _agrees_with_reference(_random_monic(rng, p, h, rng.randint(1, 5)), p, h)


@pytest.mark.parametrize("p", [2, 3, 10007])
def test_frobenius_power_edge_cases(p):
    # g = x and every degree-one g split; the zero remainder x mod x must
    # stay the zero polynomial through the shifts by x
    rng = random.Random(p)
    for f in (1, 2):
        h = _random_irreducible(rng, p, f)
        x = [[], [1]]
        assert splits_completely(x, p, h) is True and splits_reference(x, p, h) is True
        for c in range(min(p, 5)):
            g = [fq_reduce([c, 1], p, h), [1]]
            assert splits_completely(g, p, h) is True and splits_reference(g, p, h) is True
        g = [[], [1], [1]]  # x (x + 1)
        assert splits_completely(g, p, h) is True and splits_reference(g, p, h) is True


def test_frobenius_power_on_every_prime_of_qsqrtm5(K5):
    # inert primes give f = 2, the rest f = 1; the ramified ones and those
    # dividing a discriminant raise for the polynomials with a double root
    one, zero, theta = K5.one(), K5.zero(), K5.element([0, 1])
    polys = [
        [one, zero, one],
        [-theta, zero, one],
        [one + theta, theta, zero, one],
        [K5.rational(2), -theta, one, one],
    ]
    degrees = set()
    for p in filter(isprime, range(100)):
        for P in kummer_dedekind(p, K5):
            degrees.add(P.res_degree)
            for poly in polys:
                _agrees_with_reference(reduce_poly_mod_prime(poly, P), p, P.gen_poly)
    assert degrees == {1, 2}


def test_frobenius_power_on_the_degree48_witnesses(K180, pool180):
    # the witness primes of decide_ideal on the 24 inputs of the degree-48
    # bench pool: 21 (alpha) and 3 (alpha) * P for a non-principal P above
    # 181; every subfield of every witness
    advice, ideals = pool180
    cfg = default_switch_config(K180, bound_B=5, seed=480)
    verdicts = []
    for ideal in ideals:
        decision = decide_ideal(ideal, advice, cfg)
        verdicts.append(decision.verdict)
        W = decision.witness_prime
        assert W.res_degree == 1 and W.p.bit_length() > 150
        for _, poly in advice.subfields:
            assert _agrees_with_reference(reduce_poly_mod_prime(list(poly), W), W.p, W.gen_poly)
    assert verdicts.count(YES) == 21 and verdicts.count(NO) == 3


def _factors_over_fp(g, p, h):
    """`fppoly.factor` of g over F_p at f = 1, and at f = 2 of its norm
    g * g^sigma, sigma(c) = c^p, whose roots are those of g and their
    conjugates."""
    if len(h) == 3:
        g = fqx_mul(g, [fq_pow(c, p, p, h) for c in g], p, h)
    assert all(len(c) <= 1 for c in g)
    return fppoly.factor([c[0] if c else 0 for c in g], p)


def _splits_by_factoring(g, p, h):
    """Reference for `splits_completely`: at f = 1, g splits when it has deg
    g distinct linear factors; at f = 2, its roots lie in F_(p^2) exactly
    when every irreducible factor of its norm has degree <= 2."""
    factors = _factors_over_fp(g, p, h)
    if len(h) == 2:
        return all(len(u) == 2 and e == 1 for u, e in factors)
    return all(len(u) <= 3 for u, _ in factors)


def _test_polys(rng, p, h):
    """Monic g of degree 2..6 over F_p[y]/(h): binomials x^n - b (b an n-th
    power or not), trinomials x^n + a x^k + b, products of distinct linear
    factors, and random ones."""
    def el():
        return fq_reduce([rng.randrange(p) for _ in range(len(h) - 1)], p, h)

    out = []
    for n in range(2, 7):
        c = el()
        out.append([fq_sub([], fq_pow(c, n, p, h), p)] + [[]] * (n - 1) + [[1]])
        out.append([el()] + [[]] * (n - 1) + [[1]])
        k = rng.randrange(1, n)
        out.append([el()] + [[]] * (k - 1) + [el()] + [[]] * (n - k - 1) + [[1]])
        roots = {tuple(el()) for _ in range(n)}
        prod_ = [[1]]
        for r in roots:
            prod_ = fqx_mul(prod_, [fq_sub([], list(r), p), [1]], p, h)
        out.append(prod_)
        out.append([el() for _ in range(n)] + [[1]])
    return out


def _unreduced_shift(q, n):
    """Does x^q mod x^n - b take a shift by x that needs no reduction? Each
    power of x stays a monomial c x^r, r = e mod n for the exponent e so
    far, so a set bit after the squaring to 2e shifts with no reduction
    when 2e mod n < n - 1."""
    e, found = 1, False
    for bit in bin(q)[3:]:
        e *= 2
        if bit == "1":
            found |= e % n < n - 1
            e += 1
    return found


@pytest.mark.parametrize("p, f", [(3, 1), (101, 1), (10007, 1), (2**61 - 1, 1), (3, 2), (7, 2), (10007, 2)])
def test_splitting_matches_factoring(p, f):
    rng = random.Random(p * 10 + f)
    assert any(_unreduced_shift(p**f, n) for n in range(2, 7))
    h = [0, 1] if f == 1 else _random_irreducible(rng, p, f)
    verdicts = []
    for g in _test_polys(rng, p, h):
        try:
            verdict = splits_completely(g, p, h)
        except SquarefreeViolationError:
            assert any(e > 1 for _, e in _factors_over_fp(g, p, h))
            continue
        assert verdict == _splits_by_factoring(g, p, h), (p, f, g)
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts
