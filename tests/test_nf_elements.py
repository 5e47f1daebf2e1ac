import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Poly, Symbol, cyclotomic_poly, factorint, isprime, nextprime, primerange
from sympy.ntheory import perfect_power
from sympy.ntheory.primetest import mr

from dpip import nf
from dpip.errors import DefiningPolyError, DpipError, FieldMismatchError
from dpip.nf import (
    NumberField,
    cyclotomic_order,
    int_back_substitution,
    poly_discriminant,
    prime_power,
)
import helpers
from helpers import (
    bareiss_det,
    combine,
    norm_quotient,
    resultant_norm,
    sympy_discriminant,
    theta_order_rule,
)

coords5 = st.lists(st.integers(-50, 50), min_size=2, max_size=2)


def test_defining_relation(K5):
    th = K5.element([0, 1])
    assert (th * th).coords == (-5, 0)


def test_mul_identity_random(K5):
    rng = random.Random(0)
    one = K5.one()
    for _ in range(50):
        a = K5.element([rng.randint(-99, 99), rng.randint(-99, 99)])
        assert a * one == a


def test_conjugate_product(K5):
    a = K5.element([1, 1])
    b = K5.element([1, -1])
    assert (a * b) == 6


@settings(max_examples=100, deadline=None)
@given(coords5, coords5, coords5)
def test_ring_axioms_hypothesis(xs, ys, zs):
    K = NumberField([5, 0, 1])
    a, b, c = K.element(xs), K.element(ys), K.element(zs)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(coords5, coords5)
def test_norm_multiplicative_hypothesis(xs, ys):
    K = NumberField([5, 0, 1])
    a, b = K.element(xs), K.element(ys)
    assert (a * b).norm_int() == a.norm_int() * b.norm_int()


def test_norm_quadratic_formula(K5):
    rng = random.Random(1)
    for _ in range(100):
        x, y = rng.randint(-30, 30), rng.randint(-30, 30)
        assert K5.element([x, y]).norm_int() == x * x + 5 * y * y


def test_norm_matches_multiplication_determinant(K64, K180):
    # the norm is the determinant of multiplication by the element, taken
    # here by elimination instead of the tower that norm_int() uses
    rng = random.Random(2)
    for K in (K64, K180):
        for _ in range(5):
            a = K.element([rng.randint(-3, 3) for _ in range(K.degree)])
            cols = K.mul_matrix_columns(a.coords)
            assert a.norm_int() == bareiss_det(cols)


def _foot(a):
    """(poly, m, h): the foot of the tower of the element a."""
    return nf._tower(a.K.poly, cyclotomic_order(a.K), *a._packed())


def _record_moduli(monkeypatch):
    """The moduli of the table evaluations from here on, in order."""
    seen = []
    evaluation = nf._RootTable.evaluation

    def recorded(table, above):
        out = evaluation(table, above)
        seen.append(out[0])
        return out

    monkeypatch.setattr(nf._RootTable, "evaluation", recorded)
    return seen


def test_cyclotomic_norm_matches_resultant(K64, K180):
    rng = random.Random(6)
    fields = [NumberField(K.poly) for K in (K64, K180)]  # fresh: +-300 grows a table
    for K in fields:
        d = K.degree
        theta = K.element([0, 1] + [0] * (d - 2))
        elems = [K.zero(), K.one(), -K.one(), theta, -theta, theta + 1]
        elems += [K.element([rng.randint(-9, 9) for _ in range(d)]) for _ in range(20)]
        elems += [K.element([rng.randint(-300, 300) for _ in range(d)]) for _ in range(5)]
        for a in elems:
            assert a.norm_int() == resultant_norm(a), a
        assert K.zero().norm_int() == 0
        assert K.one().norm_int() == (-K.one()).norm_int() == theta.norm_int() == 1
    # x^32 + 1 halves down to degree one; Phi_180 once, to Phi_90
    assert fields[0]._roots is None
    assert fields[1]._roots.m == 90 and fields[1]._roots.poly == K180.poly[::2]


def test_cyclotomic_order_rests_on_irreducibility():
    # Phi_3 Phi_4: theta has order 12 and phi(12) = 4 = deg f, but f is not
    # Phi_12, and NumberField refuses it before any norm could take the tower
    f = [1, 1, 2, 1, 1]
    x = Symbol("x")
    F = Poly(list(reversed(f)), x)
    assert F == Poly(cyclotomic_poly(3, x) * cyclotomic_poly(4, x), x)
    assert (Poly(x**12 - 1, x) % F).is_zero
    assert not any((Poly(x**k - 1, x) % F).is_zero for k in (4, 6))
    assert F != Poly(cyclotomic_poly(12, x), x)
    with pytest.raises(DefiningPolyError, match="reducible"):
        NumberField(f)


def test_cyclotomic_fields_are_irreducible_by_identity(monkeypatch, K64, K180):
    # f = Phi_m coefficient for coefficient needs no factoring; anything
    # else still goes to sympy
    def refuse(self):
        raise AssertionError("is_irreducible ran")

    monkeypatch.setattr(Poly, "is_irreducible", property(refuse))
    fields = [([-1, 1], 1), ([1, 1, 1, 1, 1], 5), (K64.poly, 64), (K180.poly, 180)]
    for poly, m in fields:
        assert cyclotomic_order(NumberField(poly)) == m
    # Phi_3 Phi_4: theta has order 12 and phi(12) = 4, but f is not Phi_12;
    # x^4 - 1: theta has order 4 and phi(4) = 2
    reducible = ([1, 1, 2, 1, 1], [-1, 0, 0, 0, 1])
    for poly in reducible:
        with pytest.raises(AssertionError, match="is_irreducible ran"):
            NumberField(poly)
    monkeypatch.undo()
    for poly in reducible:
        with pytest.raises(DefiningPolyError, match="reducible"):
            NumberField(poly)


def test_cyclotomic_index_matches_the_theta_order_rule():
    # every monic f of degree 1-6 with coefficients in {-1, 0, 1}, every
    # Phi_m up to m = 210, and the reducible Phi_3 Phi_4, on coefficient
    # tuples: a NumberField would spend its time on sympy's irreducibility
    polys = [(*c, 1) for d in range(1, 7) for c in itertools.product((-1, 0, 1), repeat=d)]
    polys += [nf._cyclotomic_poly(m) for m in range(1, 211)]
    polys.append((1, 1, 2, 1, 1))
    got = [nf._cyclotomic_index(f) for f in polys]
    assert got == [theta_order_rule(f) for f in polys]
    assert got[-211:] == [*range(1, 211), 0]


def test_cyclotomic_poly_matches_sympy():
    # up to 210 = 2 * 3 * 5 * 7, the least m with four prime factors
    x = Symbol("x")
    for m in range(1, 211):
        want = Poly(cyclotomic_poly(m, x), x).all_coeffs()[::-1]
        assert nf._cyclotomic_poly(m) == tuple(want), m


def test_cyclotomic_norm_of_rationals_in_degree_one():
    # Q as Q[x]/(x - 1) and Q[x]/(x + 1): conductors 1 and 2, and the only
    # cyclotomic fields with negative norms
    for poly, m in (([-1, 1], 1), ([1, 1], 2)):
        K = NumberField(poly)
        assert cyclotomic_order(K) == m
        for q in (-7, -1, 1, 12, 0):
            assert K.rational(q).norm_int() == q
        assert K._roots is None


def _assert_parseval_table(a, seen):
    """The norm of a came from the foot h of its tower: h is
    the norm at degree one, with no table; otherwise the last table modulus
    M proves |N(h)| < M / 2: M^2 > 4 (m' * sum h_j^2 / d')^d'."""
    poly, m, h = _foot(a)
    if len(h) == 1:
        assert h[0] == a.norm_int() and a.K._roots is None
        return
    M, d = seen[-1], len(h)
    assert a.K._roots.poly == poly and a.K._roots.m == m
    assert M**2 * d**d > 4 * (m * sum(c * c for c in h)) ** d
    assert M > 2 * abs(a.norm_int())


def test_cyclotomic_norm_table_grows_for_large_elements(monkeypatch, K64, K180):
    # coefficients of about 2^200, as drawn under the conjectural bound
    seen = _record_moduli(monkeypatch)
    rng = random.Random(7)
    for fixture in (K64, K180):
        K = NumberField(fixture.poly)  # a fresh field, so its table starts cold
        d = K.degree
        small = K.element([rng.randint(-3, 3) for _ in range(d)])
        assert small.norm_int() == resultant_norm(small)
        big = K.element([rng.randint(-(2**200), 2**200) for _ in range(d)])
        if K._roots is None:  # x^32 + 1 never builds one
            assert big.norm_int() == resultant_norm(big) and K._roots is None
            continue
        table = K._roots
        primes = list(table.primes)
        assert big.norm_int() == resultant_norm(big)
        _assert_parseval_table(big, seen)
        # growth extends the checked primes rather than starting over
        assert len(table.primes) > len(primes)
        assert table.primes[: len(primes)] == primes
        # the grown table still serves small elements
        again = K.element([rng.randint(-3, 3) for _ in range(d)])
        assert again.norm_int() == resultant_norm(again)
        assert K._roots is table


def test_small_norms_keep_their_prefix_after_a_large_one(monkeypatch, K180):
    # each norm takes the fewest leading primes its own bound needs
    seen = _record_moduli(monkeypatch)
    K = NumberField(K180.poly)
    rng = random.Random(11)
    small = [rng.randint(-9, 9) for _ in range(K.degree)]
    K.element(small).norm_int()
    short, count = seen[-1], len(K._roots.primes)
    big = K.element([rng.choice((1, -1)) * 2**300 for _ in range(K.degree)])
    assert big.norm_int() == resultant_norm(big)
    assert len(K._roots.primes) > 4 * count and seen[-1] > short**4
    assert K.element(small).norm_int() == resultant_norm(K.element(small))
    assert seen[-1] == short


def test_cyclotomic_norm_parseval_edge_cases(monkeypatch, K64, K180):
    # constants and monomials have |g(w)| = |c| at every root, where AM-GM
    # is an equality; Q as x - 1 and x + 1 has d = 1 with m = 1 and m = 2
    seen = _record_moduli(monkeypatch)
    big = 2**200
    for poly in (K64.poly, K180.poly, [-1, 1], [1, 1]):
        K = NumberField(poly)
        d = K.degree
        elems = [K.rational(c) for c in (1, -1, 3, -7, big, -big - 1)]
        for k in {0, d // 2, d - 1}:
            for c in (1, -1, 5, big, -big):
                coords = [0] * d
                coords[k] = c
                elems.append(K.element(coords))
        elems.append(K.element([big if j % 2 else -big for j in range(d)]))
        for a in elems:
            assert a.norm_int() == resultant_norm(a), a
            _assert_parseval_table(a, seen)


def _phi(m):
    """The m-th cyclotomic polynomial, little-endian."""
    x = Symbol("x")
    return [int(c) for c in reversed(Poly(cyclotomic_poly(m, x), x).all_coeffs())]


def test_tower_norms_match_the_resultant(monkeypatch):
    # the resultant by sympy's PRS is the reference, and the general path,
    # the Bareiss determinant, raises while the tower computes the same norms
    def refuse(*args):
        raise AssertionError("a general path ran in a cyclotomic field")

    rng = random.Random(12)
    big = 2**300
    for m, foot in (
        (4, 2), (8, 2), (16, 2), (64, 2), (12, 6), (36, 18), (180, 90),
        (1, 1), (2, 2), (15, 15), (30, 30),
    ):
        K = NumberField(_phi(m))
        d = K.degree
        theta = K.element(K.theta_shift(K.one().coords))  # theta * 1, also at d = 1
        elems = [K.one(), -K.one(), theta, -theta, K.rational(2**200), K.rational(-(2**200))]
        elems += [K.element([big] * d), K.element([big if j % 2 else -big for j in range(d)])]
        elems += [K.element([rng.randint(-(2**64), 2**64) for _ in range(d)]) for _ in range(2)]
        norms = [resultant_norm(a) for a in [K.zero()] + elems]
        monkeypatch.setattr(nf, "bareiss", refuse)
        for a, n in zip([K.zero()] + elems, norms):
            assert a.norm_int() == n, (m, a)
        monkeypatch.undo()
        assert nf._tower(K.poly, m, *theta._packed())[1] == foot
        if foot <= 2:
            assert K._roots is None, m
        else:
            assert (K._roots.m, K._roots.poly) == (foot, tuple(_phi(foot))), m


def test_non_cyclotomic_norms_use_the_resultant(monkeypatch, K5, K21):
    # Res(f, g) as the determinant of g's multiplication matrix, by one
    # Bareiss elimination
    calls = []
    bareiss = nf.bareiss

    def counted(a):
        calls.append(len(a))
        return bareiss(a)

    monkeypatch.setattr(nf, "bareiss", counted)
    assert K5.element([3, 2]).norm_int() == 9 + 5 * 4
    assert K21.element([3, -2]).norm_int() == 9 + 21 * 4
    assert calls == [2, 2]
    assert K5._roots is None and K21._roots is None


def test_prime_power_matches_factorint():
    for n in range(-3, 2 * 10**5):
        f = factorint(n) if n > 1 else {}
        expected = next(iter(f.items())) if len(f) == 1 else None
        assert prime_power(n) == expected, n
    for k in (1, 2, 7, 300):
        for p in (2, 997, 1009):
            assert prime_power(p**k) == (p, k)
        assert prime_power(2**k * 3) is None
    for p, q in ((2, 1009), (997, 10**9 + 7), (3, 2**127 - 1)):
        assert prime_power(p * q) is None
        assert prime_power(p * q**2) is None
    assert prime_power(997**3 * 1009) is None
    assert prime_power(2**127 - 1) == (2**127 - 1, 1)
    assert prime_power((2**61 - 1) ** 3) == (2**61 - 1, 3)
    # squares of the Wieferich primes pass the base-2 Fermat test
    for q in (1093, 3511):
        assert pow(2, q * q - 1, q * q) == 1
        assert prime_power(q * q) == (q, 2)
    # base-2 pseudoprimes with no factor below 1000
    for p, q in ((1013, 1657), (1009, 2017)):
        assert pow(2, p * q - 1, p * q) == 1
        assert prime_power(p * q) is None
    # prime powers that fail the Fermat test keep 2x - 2 divisible by q
    for q in (1009, 7919, 2**31 - 1, 10**9 + 7):
        for e in range(2, 6):
            assert pow(2, q**e - 1, q**e) != 1
            assert prime_power(q**e) == (q, e)
            assert prime_power(q**e * 1013) is None
    for n in (-8, 0, 1):
        assert prime_power(n) is None


def _isprime_power(n):
    """prime_power's answer from sympy's isprime and perfect_power alone."""
    if isprime(n):
        return n, 1
    pp = perfect_power(n)
    if pp and isprime(pp[0]):
        return int(pp[0]), int(pp[1])
    return None


def test_prime_power_agrees_with_isprime_and_perfect_power():
    rng = random.Random(19)
    ns = [rng.getrandbits(rng.randint(64, 400)) | 1 | (1 << 63) for _ in range(10**4)]
    # Chernick's Carmichael numbers (6k + 1)(12k + 1)(18k + 1), none with a
    # factor below 1000, some above 2^64
    for k in itertools.chain(range(167, 3000), range(10**7, 10**7 + 3000)):
        if all(isprime(a * k + 1) for a in (6, 12, 18)):
            ns.append((6 * k + 1) * (12 * k + 1) * (18 * k + 1))
    # base-2 strong pseudoprimes p(ap - a + 1) with no factor below 1000
    # (all below 2^64), and the least strong pseudoprimes to the first 9,
    # 12 and 13 prime bases, the last at the threshold _MR_EXACT
    spsp = [3825123056546413051, 318665857834031151167461, nf._MR_EXACT]
    for p in primerange(1009, 8000):
        spsp += [p * q for q in (2 * p - 1, 3 * p - 2, 4 * p - 3) if isprime(q) and mr(p * q, [2])]
    assert len(spsp) >= 40 and all(mr(n, [2]) for n in spsp)
    # prime powers, and primes times primes
    for bits in (11, 20, 33, 64, 100, 200):
        q = nextprime(rng.getrandbits(bits) | (1 << (bits - 1)))
        ns += [q**e for e in range(1, 6)] + [q * nextprime(q), q * q * 1009]
    verdicts = []
    for n in ns + spsp:
        verdicts.append(_isprime_power(n))
        assert prime_power(n) == verdicts[-1], n
    assert sum(v is not None for v in verdicts) > 100
    assert not any(verdicts[len(ns) :])


def test_element_coordinate_types(K5, K64):
    for bad in (1.0, "1", None):
        with pytest.raises(TypeError):
            K5.element([bad, 0])
        with pytest.raises(TypeError):
            K5.element([0, bad])
        with pytest.raises(TypeError):
            K5.rational(bad)
    a = K5.element([True, False])
    assert a.coords == (True, False) and type(a.coords[0]) is bool
    assert a == K5.one() and a.norm_int() == 1
    c = K64.element([True] * 2 + [0] * 30)
    assert c.norm_int() == K64.element([1, 1] + [0] * 30).norm_int() == 2


def test_norm_int_is_the_int_numerator_of_the_norm(K5, K64, K180):
    # an element of Z[theta] has an integral norm: norm_int is an int and is
    # the resultant, on elements and on switching draws held packed
    rng = random.Random(19)
    for K in (K5, K64, K180):
        d = K.degree
        power_basis = [tuple(int(i == j) for i in range(d)) for j in range(d)]
        elems = [K.element([rng.randint(-30, 30) for _ in range(d)]) for _ in range(5)]
        # switching draws, held packed
        elems += [combine(K, power_basis, [rng.randint(-9, 9) for _ in range(d)]) for _ in range(5)]
        for a in elems:
            n = a.norm_int()
            assert type(n) is int and n == resultant_norm(a)


def test_elements_have_no_division(K5):
    # the one inverse is that of an ideal; an element has none
    a = K5.element([1, 2])
    for name in ("inverse", "norm", "is_integral"):
        assert not hasattr(a, name), name
    assert not hasattr(nf, "norm_quotient")
    with pytest.raises(TypeError):
        a / a
    with pytest.raises(TypeError):
        a / 2
    with pytest.raises(TypeError):
        a**-1


def test_norm_quotient_identity(K5, K64, K180):
    # the test reference beta = N(a)/a, by Bareiss elimination in every
    # field, cyclotomic or not
    rng = random.Random(4)
    for K, span in ((K5, 30), (K64, 3), (K180, 3)):
        for _ in range(8):
            a = K.element([rng.randint(-span, span) for _ in range(K.degree)])
            if a.is_zero():
                continue
            beta, det = norm_quotient(a)
            assert a * beta == K.rational(det)
            assert det == a.norm_int()


def test_norm_quotient_of_non_cyclotomic_fields_uses_bareiss(monkeypatch, K5, K21):
    # for a quadratic a the reference's beta is the conjugate, from one
    # Bareiss elimination and no cyclotomic root table
    calls = []
    bareiss = helpers.bareiss
    monkeypatch.setattr(helpers, "bareiss", lambda a: calls.append(1) or bareiss(a))
    for K, x, y in ((K5, 3, 2), (K21, 3, -2)):
        beta, n = norm_quotient(K.element([x, y]))
        assert beta == K.element([x, -y]) and n == x * x + K.poly[0] * y * y
    assert len(calls) == 2
    assert K5._roots is None and K21._roots is None


def test_int_back_substitution():
    rows = [[2, 1, 5], [0, 3, 7], [0, 0, 4]]
    assert int_back_substitution(rows, [8, 10, 4]) == [1, 1, 1]
    # 4 x_2 = 2 has no integral solution
    with pytest.raises(DpipError):
        int_back_substitution(rows, [8, 10, 2])


def test_rational_elements_hash_as_their_values(K5, K64):
    # == holds between a rational element and its int value, so their
    # hashes agree, and a set or dict holds them as one key
    for K in (K5, K64):
        for q in (0, 3, -7, 2**100):
            x = K.rational(q)
            assert x == q and hash(x) == hash(q)
            assert len({x, q}) == 1 and {q: 1}[x] == 1
    assert len({K5.rational(3), K5.element([0, 1]), K5.element([0, 1]) + 0}) == 2


def test_fractional_coordinates(K5):
    # elements are elements of Z[theta]: a Fraction coordinate is refused
    # like any other non-int, even one of denominator 1
    for bad in (Fraction(1, 2), Fraction(4, 2)):
        with pytest.raises(TypeError):
            K5.element([bad, 0])
        with pytest.raises(TypeError):
            K5.element([0, bad])
        with pytest.raises(TypeError):
            K5.rational(bad)
    with pytest.raises(TypeError):
        K5.element([Fraction(1, 2), Fraction(1, 3)])


def test_field_mismatch(K5, Ki):
    with pytest.raises(FieldMismatchError):
        K5.one() + Ki.one()


def test_defining_poly_validation():
    with pytest.raises(DefiningPolyError):
        NumberField([5, 0, 2])  # not monic
    with pytest.raises(DefiningPolyError):
        NumberField([1, 2, 1])  # (x+1)^2: repeated factor
    with pytest.raises(DefiningPolyError):
        NumberField([-1, 0, 1])  # rational roots +-1
    with pytest.raises(DefiningPolyError):
        NumberField([0, 1, 1])  # x | f
    with pytest.raises(DefiningPolyError):
        NumberField([1])  # degree 0


def test_reducible_without_rational_root_screen():
    # (x^2+1)(x^2+2) = x^4 + 3x^2 + 2 has no rational root and a nonzero
    # discriminant, yet it is reducible and must be rejected.
    with pytest.raises(DefiningPolyError):
        NumberField([2, 0, 3, 0, 1])


def test_discriminants():
    assert poly_discriminant([5, 0, 1]) == -20
    assert poly_discriminant([-1, -1, 1]) == 5
    assert poly_discriminant([1, 0, 1]) == -4
    assert poly_discriminant([2, 1]) == 1  # linear
    # x^3 - x - 1 has discriminant -23
    assert poly_discriminant([-1, -1, 0, 1]) == -23
    # cyclotomic: disc(z^32 + 1) = 2^160
    assert poly_discriminant([1] + [0] * 31 + [1]) == 2**160
    with pytest.raises(ValueError):
        poly_discriminant([2, 3])  # not monic
    # a field that is not cyclotomic takes its discriminant from here
    for poly in ([5, 0, 1], [-2, 0, 0, 1], [-1, -1, 0, 1], [1, 1, 0, 0, 1]):
        assert NumberField(poly).disc == poly_discriminant(poly) == sympy_discriminant(poly)


def test_field_discriminant_is_the_norm_of_the_derivative():
    # disc f = (-1)^(d(d-1)/2) N(f'(theta)) for f that is not Phi_m, against
    # the Hankel determinant of the power sums, on degrees 1 to 3, three
    # dense degree-32 polynomials and the sparse x^31 - x - 1, x^64 - x - 1
    rng = random.Random(32)
    polys = [[2, 1], [5, 0, 1], [-1, -1, 1], [-1, -1, 0, 1], [-2, 0, 0, 1], [3, -5, 2, 1]]
    polys += [[rng.randint(-9, 9) for _ in range(32)] + [1] for _ in range(3)]
    polys += [[-1, -1] + [0] * 29 + [1], [-1, -1] + [0] * 62 + [1]]
    for poly in polys:
        K = NumberField(poly)
        assert cyclotomic_order(K) is None
        assert K.disc == poly_discriminant(poly), poly


def test_resultant_against_sylvester_determinant():
    # the norm of g(theta) in a field that is not cyclotomic is Res(f, g),
    # the determinant of the Sylvester matrix of the monic f and g
    from sympy import Matrix

    rng = random.Random(5)
    checked = 0
    for _ in range(80):
        m = rng.randint(2, 6)
        f = [rng.randint(-9, 9) for _ in range(m)] + [1]
        try:
            K = NumberField(f)
        except DefiningPolyError:
            continue
        g = [rng.randint(-9, 9) for _ in range(rng.randint(2, m))]
        while g[-1] == 0:
            g[-1] = rng.randint(-9, 9)
        dm, dn = len(f) - 1, len(g) - 1
        fh, gh = list(reversed(f)), list(reversed(g))
        rows = [[0] * i + fh + [0] * (dn - 1 - i) for i in range(dn)]
        rows += [[0] * i + gh + [0] * (dm - 1 - i) for i in range(dm)]
        theirs = int(Matrix(rows).det())
        assert K.element(g + [0] * (dm - len(g))).norm_int() == theirs, (f, g)
        checked += 1
    assert checked > 50


def test_resultant_constant_cases():
    # N(c) = c^d for a rational c, N(0) = 0, and in degree one the element
    # is its own norm
    K5 = NumberField([5, 0, 1])
    assert K5.rational(3).norm_int() == 9 and K5.rational(-3).norm_int() == 9
    assert K5.zero().norm_int() == 0
    K = NumberField([9, 1])
    assert K.rational(7).norm_int() == 7 and K.rational(-99).norm_int() == -99
    assert K.element([-9]).norm_int() == -9  # theta = -9
    # N(theta + 9) = -f(-9) in the cubic field of x^3 + 8x^2 + 2x + 1
    assert NumberField([1, 2, 8, 1]).element([9, 1, 0]).norm_int() == 98
