import itertools
import random

import pytest
from sympy import isprime, primerange

from dpip import fppoly
from dpip.decide import (
    cofactor_side,
    draw_coefficients,
    first_prime_cofactor,
    prime_cofactor,
    substream,
)
from dpip.errors import DpipError
from dpip.lll import lll_reduce
from dpip.nf import (
    Ideal,
    NumberField,
    PrimeIdeal,
    as_prime_ideal,
    division_free_det,
    kummer_dedekind,
    poly_discriminant,
    power_sums,
    prime_from_generators,
)
from helpers import bareiss_det, combine, prime_ideal_by_insertion, sympy_discriminant, sympy_factor


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


def test_kummer_dedekind_of_quadratic_fields_matches_sympy():
    # the square-root route gives the primes that sympy's factoring gives
    for m in (5, 21, 105):
        K = NumberField([m, 0, 1])
        for p in primerange(2, 10**4):
            want = [(c, len(c) - 1, e) for c, e in sympy_factor(K.poly, p)]
            got = [(P.gen_poly, P.res_degree, P.ram_index) for P in kummer_dedekind(p, K)]
            assert got == want, (m, p)


def test_kummer_dedekind_of_a_quadratic_field_runs_no_gf_factor(monkeypatch):
    def refuse(*args):
        raise AssertionError("gf_factor ran")

    monkeypatch.setattr(fppoly, "gf_factor", refuse)
    K = NumberField([5, 0, 1])  # fresh, so no prime is cached
    for p in primerange(3, 10**3):
        assert sum(P.ram_index * P.res_degree for P in kummer_dedekind(p, K)) == 2
    with pytest.raises(AssertionError, match="gf_factor ran"):
        kummer_dedekind(2, K)  # p = 2 stays on sympy


PHI5 = [1, 1, 1, 1, 1]


@pytest.mark.parametrize("field", ["K5", "K21", "x^3-2", "Phi5", "K64", "K180"])
def test_closed_form_prime_hnf_matches_insertion(request, field):
    # every prime above p < 60 and above 181, 193 and 257: split, ramified,
    # inert and f > 1 primes, and g = x where p | f(0)
    K = {"x^3-2": lambda: NumberField([-2, 0, 0, 1]), "Phi5": lambda: NumberField(PHI5)}.get(
        field, lambda: request.getfixturevalue(field)
    )()
    kinds = set()
    for p in [*primerange(2, 60), 181, 193, 257]:
        for P in kummer_dedekind(p, K):
            P._ideal = None
            I = P.to_ideal()
            assert I.cols == prime_ideal_by_insertion(P), (field, p, P)
            assert I.det() == P.norm() and I.contains_element(K.rational(p))
            kinds.add("inert" if P.res_degree == K.degree else "f>1" if P.res_degree > 1 else "f=1")
            kinds.update(["e>1"] * (P.ram_index > 1) + ["g=x"] * (P.gen_poly == (0, 1)))
    want = {
        "K5": {"f=1", "inert", "e>1", "g=x"},
        "K21": {"f=1", "inert", "e>1", "g=x"},
        "x^3-2": {"f=1", "f>1", "e>1", "g=x"},
        "Phi5": {"f=1", "f>1", "inert", "e>1"},
        "K64": {"f=1", "f>1", "e>1"},
        "K180": {"f=1", "f>1", "e>1"},
    }[field]
    assert want <= kinds, kinds


@pytest.mark.parametrize("field, primes", [("K180", (181, 541, 1621)), ("K64", (193, 257, 449, 577))])
def test_split_primes_of_a_cyclotomic_field_match_gf_factor(request, monkeypatch, field, primes):
    # p = 1 (mod m) splits into the x - z^k, read with no factoring at all
    poly = request.getfixturevalue(field).poly
    want = {p: sympy_factor(poly, p) for p in primes}

    def refuse(*args):
        raise AssertionError("gf_factor ran")

    monkeypatch.setattr(fppoly, "gf_factor", refuse)
    K = NumberField(poly)  # fresh, so no prime is cached
    for p in primes:
        got = kummer_dedekind(p, K)
        assert len(got) == K.degree
        assert [(P.gen_poly, P.res_degree, P.ram_index) for P in got] == [
            (c, len(c) - 1, e) for c, e in want[p]
        ]
        assert got == [PrimeIdeal(K, p, c) for c, e in want[p]]
    with pytest.raises(AssertionError, match="gf_factor ran"):
        kummer_dedekind(7, K)  # not 1 mod m: sympy factors it


SINGLE_SOURCE_FIELDS = {
    "x^2+5": ([5, 0, 1], range(2, 300)),
    "x^2+3": ([3, 0, 1], range(2, 300)),  # Z[theta] is not maximal at 2
    "x^3-2": ([-2, 0, 0, 1], range(2, 300)),
    "x^4+x+1": ([1, 1, 0, 0, 1], range(2, 300)),
    "Phi180": (None, (7, 11, 181)),
}


@pytest.mark.parametrize("field", SINGLE_SOURCE_FIELDS)
def test_kummer_dedekind_is_the_one_source_of_how_p_factors(K180, field):
    # the primes above p, with f and e, are sympy's factors of f mod p and
    # their exponents; (p, G(theta)) of norm p^k is prime exactly when G is
    # one of them, and a product of two of them, or a square, is not
    poly, primes = SINGLE_SOURCE_FIELDS[field]
    K = K180 if poly is None else NumberField(poly)
    for p in filter(isprime, primes):
        listed = kummer_dedekind(p, K)
        want = [(c, len(c) - 1, e) for c, e in sympy_factor(K.poly, p)]
        assert [(P.gen_poly, P.res_degree, P.ram_index) for P in listed] == want, (field, p)
        for P in listed:
            assert prime_from_generators(K, p, P.res_degree, [P.gen_poly]) == P
        for P, Q in itertools.combinations_with_replacement(listed, 2):
            G = fppoly.mul(list(P.gen_poly), list(Q.gen_poly), p)
            assert prime_from_generators(K, p, fppoly.deg(G), [G]) is None, (field, p)


def test_a_pair_that_cuts_out_no_prime_has_no_ramification_index(K5):
    # x + 1 does not divide x^2 + 5 = x^2 - 2 mod 7, so (7, 1 + theta) is no
    # prime of K5: its ramification index is an error, not e = 0
    P = PrimeIdeal(K5, 7, [1, 1])
    assert P not in kummer_dedekind(7, K5)
    with pytest.raises(DpipError, match="no prime above 7"):
        P.ram_index
    assert repr(P) == "PrimeIdeal(p=7, g=1 + x, f=1)"


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
    # 2x + 3 = 2(x + 4) mod 5: both cut out theta = 1, of residue degree 1
    P = PrimeIdeal(K5, 5, (3, 2))
    assert (P.gen_poly, P.res_degree) == ((4, 1), 1)
    # the residue degree is read from gen_poly, the ramification index from
    # the prime of `kummer_dedekind` it equals: x^2 + 5 = x^2 mod 5, and 11
    # is inert
    assert PrimeIdeal(K5, 5, (0, 1)).ram_index == 2
    Q = PrimeIdeal(K5, 11, (5, 0, 1))
    assert (Q.res_degree, Q.ram_index) == (2, 1)
    # 5x + 3 = 3 mod 5 has degree 0, and 5 = 0 mod 5 is no polynomial
    for gen_poly in ((3, 5), (5,), ()):
        with pytest.raises(ValueError):
            PrimeIdeal(K5, 5, gen_poly)


def _eager_prime(K, p, gens):
    """The form of a norm-p prime as `prime_from_generators` built it for
    every k: G = gcd(f, gens) mod p and its multiplicity in f."""
    f = fppoly.from_ints(K.poly, p)
    G = f
    for g in gens:
        G = fppoly.gcd(G, fppoly.from_ints(g, p), p)
    return PrimeIdeal(K, p, G)


_READS = {
    "gen_poly": lambda P, Q: P.gen_poly == Q.gen_poly,
    "ram_index": lambda P, Q: P.ram_index == Q.ram_index,
    "eq": lambda P, Q: P == Q,
    "hash": lambda P, Q: hash(P) == hash(Q),
    "to_ideal": lambda P, Q: P.to_ideal() == Q.to_ideal(),
    "label": lambda P, Q: P.label() == Q.label(),
}


def _norm_p_cofactors(K, ideals, want):
    """(J, w) for the first `want` draws w over the cofactor side (J, W) of
    each ideal whose cofactor (w)/J has prime norm."""
    out = []
    for I in ideals:
        J, W = lll_reduce(I)
        draws = substream(17, "deferred", K.degree)
        found = 0
        for _ in range(2000):
            r = combine(K, W, draw_coefficients(draws, 5, K.degree))
            P = prime_cofactor(J, r)
            if P is not None and P.res_degree == 1:
                out.append((J, r))
                found += 1
                if found == want:
                    break
        assert found == want, (K.degree, I)
    return out


@pytest.mark.parametrize("field, p", [("K5", 3), ("K64", 193), ("K180", 181)])
def test_deferred_prime_matches_the_eager_form(request, field, p):
    # a norm-p cofactor keeps its generators until its form is read, and
    # every read gives the form the eager gcd gives
    K = request.getfixturevalue(field)
    rng = random.Random(180)
    alpha = K.element([rng.randint(-3, 3) for _ in range(K.degree)])
    P = kummer_dedekind(p, K)[0].to_ideal()
    ideals = [Ideal.principal(K, alpha), P, Ideal.principal(K, alpha) * P]
    cofactors = _norm_p_cofactors(K, ideals, 2 if K.degree > 2 else 6)
    if K.degree == 2:
        # K5 draws reach the branch p | N(I) too
        assert any(J.norm_int() % prime_cofactor(J, r).p == 0 for J, r in cofactors)
    builds = [lambda J=J, r=r: prime_cofactor(J, r) for J, r in cofactors]
    # a prime read from the generators (p, g(theta)) of its own ideal
    for Q in kummer_dedekind(p, K)[:3]:
        gens = Q.to_ideal()._generators()
        builds.append(lambda gens=gens: prime_from_generators(K, p, 1, gens))
    for build in builds:
        for name, same in _READS.items():
            deferred = build()
            assert deferred._gens is not None
            eager = _eager_prime(K, deferred.p, deferred._gens)
            assert same(deferred, eager), (K.degree, name)
            assert deferred._gens is None
            assert deferred.gen_poly == eager.gen_poly
            assert deferred.ram_index == eager.ram_index
            assert deferred.to_ideal() == eager.to_ideal()
    assert build() in kummer_dedekind(p, K)


def test_deferred_ramified_prime(K5):
    # (2, 1 + theta) has norm 2, and x + 1 divides x^2 + 5 twice mod 2
    P = prime_from_generators(K5, 2, 1, [[2, 0], [1, 1]])
    assert P._gens is not None and P.norm() == 2
    assert P.ram_index == 2 and P.gen_poly == (1, 1)
    assert P == kummer_dedekind(2, K5)[0] == _eager_prime(K5, 2, [[2, 0], [1, 1]])
    back = as_prime_ideal(Ideal.from_generators(K5, [K5.rational(2), K5.element([1, 1])]))
    assert hash(back) == hash(P) and back.to_ideal() == P.to_ideal()
    assert back.ram_index == 2


def _counting_gcd(monkeypatch):
    calls = []
    gcd = fppoly.gcd

    def counted(a, b, p):
        calls.append(p)
        return gcd(a, b, p)

    monkeypatch.setattr(fppoly, "gcd", counted)
    return calls


def test_inert_prime_runs_its_gcd(monkeypatch, K5):
    # (11) has norm 11^2: k = 2 needs the gcd and the irreducibility test
    calls = _counting_gcd(monkeypatch)
    P = as_prime_ideal(Ideal.principal(K5, K5.rational(11)))
    assert calls == [11]
    assert P._gens is None and P.gen_poly == (5, 0, 1) and P.res_degree == 2


def test_root_form_matches_the_gcd_on_the_degree48_witnesses(monkeypatch, K180, pool180):
    # every witness of the degree-48 bench pool has p = 1 (mod 180), so its
    # form is read from the roots of Phi_180 mod p, with no gcd, and equals
    # the gcd's; as does that of a prime above 181 given by (p, theta - a)
    _, ideals = pool180
    calls = _counting_gcd(monkeypatch)
    deferred = []
    for ideal in ideals:
        _, W = first_prime_cofactor(cofactor_side(ideal), 5, substream(480, "decide"), 10**4)
        assert W is not None and W._gens is not None and W.p % 180 == 1
        deferred.append(W)
    for Q in kummer_dedekind(181, K180)[::12]:
        gens = Q.to_ideal()._generators()
        assert len(gens) == 2
        deferred.append(prime_from_generators(K180, 181, 1, gens))
    for W in deferred:
        gens = W._gens
        assert W.gen_poly[1] == 1 and not calls
        assert W.gen_poly == _eager_prime(K180, W.p, gens).gen_poly
        calls.clear()
    assert len(deferred) == 28


@pytest.mark.parametrize("gens", [[[1] + [0] * 47], [[181] + [0] * 47], []])
def test_root_form_needs_exactly_one_common_root(K180, gens):
    # no root, or all 48, is no prime of norm 181
    P = prime_from_generators(K180, 181, 1, gens)
    with pytest.raises(DpipError, match="degree"):
        P.gen_poly


@pytest.mark.parametrize("gens", [[[3, 0]], [[1, 0]], []])
def test_deferred_prime_with_a_wrong_form_is_an_error(K5, gens):
    # generators that do not cut out a degree-one factor mod 3 break the
    # precondition, and the first read says so
    P = prime_from_generators(K5, 3, 1, gens)
    with pytest.raises(DpipError, match="degree"):
        P.gen_poly
    with pytest.raises(DpipError):
        hash(P)


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
    c2 = c * c
    assert d5 == K180.rational(5**5) * c2 * c2


def test_poly_discriminant_matches_integer_disc(K5):
    # rational-coefficient polynomials agree with the Z[x] discriminant,
    # which int coefficients give as an int
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(1, 4)
        ints = [rng.randint(-9, 9) for _ in range(n)] + [1]
        elems = [K5.rational(c) for c in ints]
        disc = poly_discriminant(ints)
        assert type(disc) is int and disc == sympy_discriminant(ints)
        assert poly_discriminant(elems) == K5.rational(disc)


def test_poly_discriminant_reduces_at_degree_one_primes(K5, K64, K180):
    # at a prime (p, theta - a), reducing mod it commutes with the
    # discriminant, whose value there is the F_p discriminant of g's image
    rng = random.Random(18)
    for K, p in ((K5, 3), (K64, 193), (K180, 181)):
        d = K.degree
        roots = [-P.gen_poly[0] % p for P in kummer_dedekind(p, K) if P.res_degree == 1]
        assert roots
        for n in range(1, 7):
            g = [K.element([rng.randint(-(2**40), 2**40) for _ in range(d)]) for _ in range(n)]
            g.append(K.one())
            disc = poly_discriminant(g)
            for a in roots:
                image = [_value_at(c, a, p) for c in g]
                assert _value_at(disc, a, p) == sympy_discriminant(image) % p


def _value_at(elem, a, p):
    """The image of an element of Z[theta] under theta -> a mod p."""
    return sum(c * pow(a, i, p) for i, c in enumerate(elem.coords)) % p


def test_division_free_det_matches_bareiss():
    rng = random.Random(19)
    for n in range(1, 8):
        for shape in ("dense", "singular", "zero pivot"):
            a = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
            if shape == "singular":
                coef = [rng.randint(-3, 3) for _ in range(n - 1)]
                a[-1] = [sum(c * row[j] for c, row in zip(coef, a)) for j in range(n)]
                assert bareiss_det(a) == 0
            if shape == "zero pivot":
                a[0][0] = 0
            assert division_free_det(a, 0) == bareiss_det(a)


def test_power_sums():
    # x^2 - 5: roots +-sqrt(5); x^3 - x - 1 against its roots' powers
    assert power_sums([-5, 0, 1], 6) == [2, 0, 10, 0, 50, 0]
    assert power_sums([-1, -1, 0, 1], 7) == [3, 0, 2, 3, 2, 5, 5]


def test_factoring_past_sympys_float_range_is_refused(K180, K5):
    # sympy's random polynomials take float(p): from 2^1024 - 2^970 up that
    # overflows, so a prime there is refused before sympy runs; a quadratic
    # field takes its square root instead, and 1 mod 180 splits by roots
    p = fppoly.GF_FACTOR_LIMIT
    while not (isprime(p) and p % 180 != 1):
        p += 1
    with pytest.raises(DpipError, match="2\\^1024"):
        kummer_dedekind(p, K180)
    assert sum(P.res_degree * P.ram_index for P in kummer_dedekind(p, K5)) == 2
