import random
from fractions import Fraction
from math import gcd, prod

import pytest

from sympy import primefactors

from dpip import fppoly, nf
from dpip.errors import NonDivisibleError, NonInvertibleIdealError, ZeroIdealError
from dpip.intlattice import IntLattice
from dpip.nf import (
    FieldElement,
    Ideal,
    NumberField,
    _normalized,
    _saturate_kernel,
    int_back_substitution,
    kummer_dedekind,
    poly_discriminant,
)
from dpip.serialize import load_ideal, read_json
from helpers import (
    in_product,
    naive_lattice_basis,
    principal_inverse,
    resultant_norm,
    sympy_discriminant,
)


def _random_small_ideal(K, rng, prime_bound=50):
    """A random integral ideal: a prime factor or a small principal ideal."""
    if rng.random() < 0.5:
        while True:
            p = rng.choice([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47])
            primes = kummer_dedekind(p, K)
            pick = rng.choice(primes)
            if pick.norm() < 10**6:
                return pick.to_ideal()
    while True:
        coords = [rng.randint(-3, 3) for _ in range(K.degree)]
        if any(coords):
            el = K.element(coords)
            if abs(el.norm_int()) < 10**6:
                return Ideal.principal(K, el)


def test_unit_ideal(K5):
    ring = Ideal.ring(K5)
    assert ring.hnf_matrix() == ((1, 0), (0, 1))
    assert ring.norm() == 1
    assert Ideal.from_generators(K5, [K5.one()]) == ring


def test_two_element_example(K5):
    I = Ideal.from_generators(K5, [K5.rational(2), K5.element([1, 1])])
    assert I.norm() == 2
    # independent closure oracle: brute-force module span then echelon
    gens = []
    for g in ([2, 0], [1, 1]):
        v = list(g)
        for _ in range(2):
            gens.append(list(v))
            v = K5.theta_shift(v)
    rows = naive_lattice_basis(gens)
    det = abs(rows[0][0] * rows[1][1])
    assert det == 2
    for col in I.cols:
        red = list(col)
        for j, row in enumerate(rows):
            q = red[j] // row[j]
            red = [a - q * b for a, b in zip(red, row)]
        assert red == [0, 0]


def test_zeta64_two_element_norm(K64):
    g = [0] * 32
    g[0], g[4], g[8], g[16] = 54, -33, -85, 34
    I = Ideal.from_generators(K64, [K64.rational(187), K64.element(g)])
    # 187 = 11 * 17; the lattice determinant factors through the primes
    # above 11 (residue degree 16) and 17 (residue degree 4)
    assert I.norm() == 11**16 * 17**4
    f11 = {P.res_degree for P in kummer_dedekind(11, K64)}
    f17 = {P.res_degree for P in kummer_dedekind(17, K64)}
    assert f11 == {16} and f17 == {4}


def test_hnf_canonicity(K5, K21):
    rng = random.Random(0)
    cases = 0
    for K in (K5, K21):
        for _ in range(60):
            a = K.element([rng.randint(-9, 9), rng.randint(-9, 9)])
            b = K.element([rng.randint(-9, 9), rng.randint(-9, 9)])
            if a.is_zero() or b.is_zero():
                continue
            I = Ideal.from_generators(K, [a, b])
            # the same ideal from a redundant, reordered generating set
            J = Ideal.from_generators(K, [b, a + b, a, a * b])
            assert I.hnf_matrix() == J.hnf_matrix()
            cases += 1
    assert cases > 80


def test_norm_multiplicativity(K5):
    rng = random.Random(1)
    for _ in range(60):
        I = _random_small_ideal(K5, rng)
        J = _random_small_ideal(K5, rng)
        assert (I * J).norm() == I.norm() * J.norm()


def test_mul_examples(K5):
    I = Ideal.from_generators(K5, [K5.rational(2), K5.element([1, 1])])
    J = Ideal.from_generators(K5, [K5.rational(3), K5.element([1, 1])])
    assert I * Ideal.ring(K5) == I
    assert I * I == Ideal.principal(K5, K5.rational(2))
    assert I * J == Ideal.principal(K5, K5.element([1, 1]))


def test_inverse_examples(K5):
    ring = Ideal.ring(K5)
    assert ring.inverse() == ring
    Ppl = Ideal.principal(K5, K5.element([1, 1]))
    inv = Ppl.inverse()
    assert Ppl * inv == ring
    assert inv.norm() == Fraction(1, 6)
    I = Ideal.from_generators(K5, [K5.rational(2), K5.element([1, 1])])
    assert I * I.inverse() == ring
    assert I.inverse().norm() == Fraction(1, 2)


def test_inverse_identity_random(K5, K21):
    rng = random.Random(2)
    for K in (K5, K21):
        ring = Ideal.ring(K)
        for _ in range(100):
            I = _random_small_ideal(K, rng)
            assert I * I.inverse() == ring


def test_negative_ideal_powers_are_powers_of_the_inverse(K5, K21):
    rng = random.Random(3)
    for K in (K5, K21):
        ring = Ideal.ring(K)
        for _ in range(20):
            I = _random_small_ideal(K, rng)
            assert I**-2 == (I**2).inverse()
            assert I * I**-1 == ring


def _inverse_rows(monkeypatch, ideal):
    """ideal.inverse(), and the number of vectors it inserted into lattices."""
    calls = []
    add = IntLattice.add

    def counted(lat, vec):
        calls.append(1)
        return add(lat, vec)

    monkeypatch.setattr(IntLattice, "add", counted)
    inv = ideal.inverse()
    monkeypatch.setattr(IntLattice, "add", add)
    return inv, len(calls)


@pytest.mark.parametrize("field, p", [("K5", 3), ("K180", 181)])
def test_inverse_from_generators_matches_hnf_inverse(request, monkeypatch, field, p):
    # (alpha)*P keeps the generators (alpha*p, alpha*g(theta)), and its
    # inverse from their congruences equals the inverse from the HNF columns
    K = request.getfixturevalue(field)
    rng = random.Random(180)
    alpha = K.element([rng.randint(-3, 3) for _ in range(K.degree)])
    P = kummer_dedekind(p, K)[0].to_ideal()
    J = Ideal.principal(K, alpha) * P
    assert J._gens == tuple(alpha * g for g in P._gens)
    bare = Ideal(K, J.cols, J.denom)
    inv, rows = _inverse_rows(monkeypatch, J)
    bare_inv, bare_rows = _inverse_rows(monkeypatch, bare)
    assert inv == bare_inv
    # 2d congruences against d*d from the columns; the dual basis is
    # solved in echelon form, with no insertion
    assert rows == 2 * K.degree
    assert bare_rows == K.degree**2
    # the exact identities, not only the norms: at d = 48 the product takes
    # 2 x 48 generator products modulo l(J) * l(n*J^-1)
    assert J * inv == Ideal.ring(K)
    assert (J * P).divide(P) == J


def _dual_by_insertion(K, vecs, n):
    """n*I^-1 as a reference: the functionals in their own coordinate order,
    and the d upper triangular dual vectors inserted one at a time."""
    d = K.degree
    r = IntLattice(d, modulus=n)
    for c in vecs:
        mcols = K.mul_matrix_columns(list(c))
        for i in range(d):
            r.add([mcols[j][i] for j in range(d)])
    cols = r.basis_columns()
    out = IntLattice(d, modulus=n)
    for k in range(d):
        out.add(int_back_substitution(cols, [n * (i == k) for i in range(d)]))
    return out.basis_columns()


def test_scaled_dual_matches_the_dual_by_insertion(K5, K21, K64, K180, fixtures_dir):
    # the echelon dual basis has the same canonical HNF, bit for bit, on
    # ideals given by their HNF columns
    rng = random.Random(12)
    ideals = []
    for K in (K5, K21):
        for _ in range(30):
            I = _random_small_ideal(K, rng) * _random_small_ideal(K, rng)
            ideals.append(Ideal(K, I.cols))
    ideals.append(load_ideal(fixtures_dir / "ideal_zeta64_switch.json", K64))
    ideals.append(kummer_dedekind(193, K64)[1].to_ideal())
    P = kummer_dedekind(181, K180)[2].to_ideal()
    ideals.append(P)
    cases = [(I.K, I.cols, I.det()) for I in ideals]
    # (alpha) * P from its two generators: its columns would take d*d rows
    alpha = K180.element([rng.randint(-3, 3) for _ in range(K180.degree)])
    J = Ideal.principal(K180, alpha) * P
    cases.append((K180, J._generators(), J.det()))
    for K, vecs, n in cases:
        got = _saturate_kernel(K, vecs, n).basis_columns()
        assert got == _dual_by_insertion(K, vecs, n), K.degree


def test_product_from_generators_matches_product_from_columns(K5, K21, K180):
    # two primes above 181 at d = 48: 2 x 48 products against 48 x 48
    P, Q = (F.to_ideal() for F in kummer_dedekind(181, K180)[:2])
    assert P * Q == Ideal(K180, P.cols) * Ideal(K180, Q.cols)
    assert (P * Q)._gens == tuple(g * h for g in P._gens for h in Q._gens)
    rng = random.Random(4)
    for K in (K5, K21):
        for _ in range(40):
            I = _random_small_ideal(K, rng)
            J = _random_small_ideal(K, rng)
            bare = Ideal(K, I.cols) * Ideal(K, J.cols)
            assert I * J == bare and J * I == bare
            if I._gens and J._gens and len(I._gens) * len(J._gens) <= K.degree:
                assert (I * J)._gens == tuple(g * h for g in I._gens for h in J._gens)
            # repeated squaring keeps at most d recorded generators
            assert len((I**8)._gens or ()) <= K.degree


def _assert_least_integer(ideal):
    ell = ideal._least_integer()
    zeros = [0] * (ideal.K.degree - 1)
    assert ideal.contains_vector([ell] + zeros)
    for q in primefactors(ell):
        assert not ideal.contains_vector([ell // q] + zeros)


def test_least_integer_is_least(K5, K21):
    rng = random.Random(5)
    for K in (K5, K21):
        for _ in range(60):
            I = _random_small_ideal(K, rng)
            _assert_least_integer(I)
            # the numerator lattice of a fractional inverse
            _assert_least_integer(I.inverse())
    two = Ideal.principal(K5, K5.rational(2))
    assert two.det() == 4 and two._least_integer() == 2


def test_non_invertible_ideal_is_refused():
    # Z[sqrt 5] is not maximal at 2, and P = (2, 1 + theta) is not invertible:
    # P * P = 2P has norm 8, not N(P)^2 = 4, and the colon (O : P) has the
    # norm of an inverse while P * (O : P) has norm 2
    K = NumberField([-5, 0, 1])
    P = Ideal.from_generators(K, [K.rational(2), K.element([1, 1])])
    assert P * P == Ideal.principal(K, K.rational(2)) * P
    assert (P * P).norm() == 8
    with pytest.raises(NonInvertibleIdealError):
        P.inverse()
    with pytest.raises(NonInvertibleIdealError):
        P.divide(P)


def test_inverse_skips_product_check_where_the_order_is_maximal(monkeypatch, K180):
    # gcd(N(J), disc f) = 81, and Z[zeta_180] is maximal at 3, so the norm
    # check proves the inverse without forming J * J^-1
    rng = random.Random(7)
    alpha = K180.element([rng.randint(-3, 3) for _ in range(48)])
    P = kummer_dedekind(181, K180)[0].to_ideal()
    J = Ideal.principal(K180, alpha) * P
    assert gcd(J.norm_int(), K180.disc) == 81

    def refuse(self, other):
        raise AssertionError("product check ran")

    monkeypatch.setattr(Ideal, "__mul__", refuse)
    inv = J.inverse()
    monkeypatch.undo()
    assert J * inv == Ideal.ring(K180)


def test_inverse_prime_to_disc_factors_nothing(monkeypatch):
    # gcd(N(I), disc f) = 1 needs no maximality audit, so an HNF-given
    # prime above 3 of Q(sqrt -5), disc -20, inverts without factorint
    import sympy

    def refuse(*args, **kwargs):
        raise AssertionError("factorint ran")

    monkeypatch.setattr(sympy, "factorint", refuse)
    K = NumberField([5, 0, 1])  # fresh, so nothing is cached
    P = kummer_dedekind(3, K)[0].to_ideal()
    bare = Ideal.from_hnf_matrix(K, P.hnf_matrix())
    assert bare._gens is None and gcd(bare.norm_int(), K.disc) == 1
    inv = bare.inverse()
    assert bare * inv == Ideal.ring(K)
    assert inv == P.inverse()


def test_inverse_of_a_prime_of_a_degree_16_field_factors_no_discriminant(monkeypatch):
    # a random monic f of degree 16 (disc f has 77 digits, 3 | disc f): a
    # degree-one prime above 3, read from its HNF columns alone, inverts
    # without factoring disc f
    import sympy

    def refuse(*args, **kwargs):
        raise AssertionError("factorint ran")

    monkeypatch.setattr(sympy, "factorint", refuse)
    rng = random.Random(5)
    K = NumberField([rng.randint(-99, 99) for _ in range(16)] + [1])
    assert len(str(abs(K.disc))) == 77 and K.disc % 3 == 0
    P = next(P for P in kummer_dedekind(3, K) if P.res_degree == 1)
    I = Ideal(K, P.to_ideal().cols)
    assert I._gens is None
    assert I * I.inverse() == Ideal.ring(K)


def test_inverse_checks_the_product_when_trial_division_stops(monkeypatch):
    # gcd(N(I), disc f) = 10 and f is no Phi_m, so no theorem proves the
    # inverse: I * I^-1 = O_K is checked, and nothing is factored or audited
    K = NumberField([5, 0, 1])
    P2, P5 = (kummer_dedekind(p, K)[0].to_ideal() for p in (2, 5))
    I = Ideal.from_hnf_matrix(K, (P2 * P5).hnf_matrix())
    assert gcd(I.norm_int(), K.disc) == 10
    products = []
    mul = Ideal.__mul__

    def counted(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(Ideal, "__mul__", counted)
    inv = I.inverse()
    assert len(products) == 1 and products[0] is inv


def test_inverse_in_a_cyclotomic_field_runs_no_dedekind_criterion(monkeypatch, K180):
    # Z[zeta_180] is maximal by theorem, so an HNF-given ideal whose norm
    # shares the prime 3 with disc f is inverted without factoring f mod 3
    rng = random.Random(7)
    alpha = K180.element([rng.randint(-3, 3) for _ in range(48)])
    J = Ideal.principal(K180, alpha) * kummer_dedekind(181, K180)[0].to_ideal()
    want = J.inverse()

    def refuse(*args):
        raise AssertionError("gf_factor ran")

    monkeypatch.setattr(fppoly, "gf_factor", refuse)
    K = NumberField(K180.poly)  # fresh, so no factorization is cached
    bare = Ideal.from_hnf_matrix(K, J.hnf_matrix())
    assert gcd(bare.norm_int(), K.disc) == 81
    inv = bare.inverse()
    assert inv.cols == want.cols and inv.denom == want.denom
    with pytest.raises(AssertionError, match="gf_factor ran"):
        kummer_dedekind(3, K)


def test_inverse_without_a_theorem_runs_one_product_and_no_audit(monkeypatch):
    # (2, 1 + theta) of Q(sqrt -5), read from its HNF: gcd(2, -20) = 2 and f
    # is no Phi_m, so the product I * I^-1 = O_K proves the inverse, and no
    # factorization of f mod 2 runs
    K = NumberField([5, 0, 1])  # fresh, so nothing is cached
    P = Ideal.from_generators(K, [K.rational(2), K.element([1, 1])])
    bare = Ideal.from_hnf_matrix(K, P.hnf_matrix())
    assert bare._gens is None and gcd(bare.norm_int(), K.disc) == 2
    # Z[sqrt 5] is not maximal at 2, and its (2, 1 + theta) has no inverse
    Kr5 = NumberField([-5, 0, 1])
    Q = Ideal.from_generators(Kr5, [Kr5.rational(2), Kr5.element([1, 1])])
    products = []
    mul = Ideal.__mul__

    def counted(self, other):
        products.append(other)
        return mul(self, other)

    def refuse(*args):
        raise AssertionError("kummer_dedekind ran")

    monkeypatch.setattr(nf, "kummer_dedekind", refuse)
    monkeypatch.setattr(Ideal, "__mul__", counted)
    inv = bare.inverse()
    assert len(products) == 1 and products[0] is inv
    with pytest.raises(NonInvertibleIdealError):
        Q.inverse()
    monkeypatch.undo()
    assert bare * inv == Ideal.ring(K)


def test_divide_examples(K5):
    I = Ideal.from_generators(K5, [K5.rational(2), K5.element([1, 1])])
    J = Ideal.from_generators(K5, [K5.rational(3), K5.element([1, 1])])
    Ppl = Ideal.principal(K5, K5.element([1, 1]))
    assert I.divide(I) == Ideal.ring(K5)
    assert Ppl.divide(I) == J
    six = Ideal.principal(K5, K5.rational(6))
    two = Ideal.principal(K5, K5.rational(2))
    three = Ideal.principal(K5, K5.rational(3))
    assert six.divide(two) == three


def test_divide_requires_containment(K5):
    I = Ideal.from_generators(K5, [K5.rational(2), K5.element([1, 1])])
    three = Ideal.principal(K5, K5.rational(3))
    with pytest.raises(NonDivisibleError):
        three.divide(I)


def test_divide_recompose_random(K5, K21):
    rng = random.Random(3)
    for K in (K5, K21):
        for _ in range(60):
            I = _random_small_ideal(K, rng)
            Q = _random_small_ideal(K, rng)
            J = I * Q
            got = J.divide(I)
            assert got == Q
            assert got * I == J


def test_fractional_divide(K5):
    I = Ideal.from_generators(K5, [K5.rational(2), K5.element([1, 1])])
    Iinv = I.inverse()
    # (I^-1 * I) / I^-1 == I
    prod = Iinv * I
    assert prod.divide(Iinv) == I


def test_membership(K5):
    I = Ideal.from_generators(K5, [K5.rational(2), K5.element([1, 1])])
    assert I.contains_element(K5.element([1, 1]))
    assert I.contains_element(K5.element([3, 1]))
    assert not I.contains_element(K5.one())
    assert not I.contains_element(K5.element([0, 1]))
    assert I.contains_element(K5.element([0, 2]))


def test_from_generators_takes_no_norm_beside_a_rational_generator(
    monkeypatch, K64, fixtures_dir
):
    # (187, beta): 187 lies in the ideal, so 187 Z^d bounds the insertion,
    # and the HNF equals the one reduced modulo gcd of the generator norms
    path = fixtures_dir / "ideal_zeta64_switch.json"
    gens = [K64.element(map(int, c)) for c in read_json(path)["generators"]]
    old_modulus = gcd(*(g.norm_int() for g in gens))
    lat = IntLattice(K64.degree, modulus=old_modulus)
    for g in gens:
        lat.extend(K64.mul_matrix_columns(g.coords))

    def refuse(self):
        raise AssertionError("generator norm computed")

    monkeypatch.setattr(FieldElement, "norm_int", refuse)
    I = load_ideal(path, K64)
    assert I.cols == tuple(map(tuple, lat.basis_columns()))


def test_from_generators_rejects_zero(K5):
    with pytest.raises(ZeroIdealError):
        Ideal.from_generators(K5, [K5.zero()])
    with pytest.raises(ZeroIdealError):
        Ideal.from_generators(K5, [0, K5.zero()])


def test_from_hnf_matrix_validation(K5):
    I = Ideal.from_generators(K5, [K5.rational(2), K5.element([1, 1])])
    again = Ideal.from_hnf_matrix(K5, I.hnf_matrix())
    assert again == I
    with pytest.raises(ValueError):
        Ideal.from_hnf_matrix(K5, ((2, 1), (0, 1)))  # not lower triangular
    with pytest.raises(ValueError):
        Ideal.from_hnf_matrix(K5, ((1, 0), (0, -1)))  # negative diagonal
    with pytest.raises(ValueError):
        # triangular, reduced, but not theta-stable: {1, 2*theta} misses theta
        Ideal.from_hnf_matrix(K5, ((1, 0), (0, 2)))


def test_from_hnf_matrix_content_coprime_to_denom(K5):
    # 2*Z^2 over 2 is O_K, which has no canonical form with denominator 2
    with pytest.raises(ValueError, match="coprime"):
        Ideal.from_hnf_matrix(K5, ((2, 0), (0, 2)), denom=2)
    half = Ideal.from_hnf_matrix(K5, ((1, 0), (0, 1)), denom=2)
    assert half.denom == 2 and not half.is_integral()
    assert half * Ideal.principal(K5, K5.rational(2)) == Ideal.ring(K5)


def test_ideal_equality_and_hash(K5):
    I = Ideal.from_generators(K5, [K5.rational(2), K5.element([1, 1])])
    J = Ideal.from_generators(K5, [K5.element([1, 1]), K5.rational(2)])
    assert I == J and hash(I) == hash(J)
    assert I != Ideal.ring(K5)


def _eager(K, gens):
    """The HNF built as before ideals kept their factors: the multiplication
    columns of every generator, inserted modulo the norm."""
    lat = IntLattice(K.degree, modulus=abs(prod(g.norm_int() for g in gens)))
    for g in gens:
        lat.extend(K.mul_matrix_columns(g.coords))
    return Ideal(K, lat.basis_columns())


@pytest.mark.parametrize("field", ["K5", "K21", "K64", "K180", "Kr5"])
def test_factored_ideal_matches_eager_hnf(request, field):
    # Z[sqrt 5] (Kr5) has elements of negative norm and is not maximal at 2
    K = NumberField([-5, 0, 1]) if field == "Kr5" else request.getfixturevalue(field)
    d = K.degree
    rng = random.Random(field)
    alpha, beta = (K.element([rng.randint(-3, 3) for _ in range(d)]) for _ in range(2))
    if field == "Kr5":
        alpha = K.element([1, 1])
        assert alpha.norm_int() == -4
    p = next(p for p in (181, 29, 5, 3) if len(kummer_dedekind(p, K)) > 1)
    F = kummer_dedekind(p, K)[0]
    P = F.to_ideal()
    g = K.element(list(F.gen_poly) + [0] * (d - F.res_degree - 1))
    six = K.rational(6)
    # (lazy, eager, an element outside, one inside); for the products the
    # outside one is a multiple of u, so only the test in J refuses it
    cases = [
        (Ideal.principal(K, alpha), _eager(K, [alpha]), K.one(), alpha),
        (Ideal.principal(K, six), _eager(K, [six]), K.rational(3), six * g),
        (Ideal.principal(K, alpha) * P, _eager(K, [alpha * p, alpha * g]), alpha, alpha * g),
        (
            Ideal.principal(K, alpha) * Ideal.principal(K, beta) * P,
            _eager(K, [alpha * beta * p, alpha * beta * g]),
            alpha * beta,
            alpha * beta * p,
        ),
    ]
    for lazy, eager, outside, inside_elem in cases:
        assert lazy._factors is not None and eager._factors is None
        assert lazy.det() == eager.det() and lazy.norm_int() == eager.norm_int()
        assert lazy._cols is None  # the determinant is read from the factors
        inside = []
        for _ in range(6):
            coeffs = [rng.randint(-4, 4) for _ in range(d)]
            inside.append([sum(x * c[i] for x, c in zip(coeffs, eager.cols)) for i in range(d)])
        for v in inside:
            assert lazy.contains_vector(v) and eager.contains_vector(v)
            for j in range(d):
                w = list(v)
                w[j] += rng.randint(1, 3)
                assert lazy.contains_vector(w) == eager.contains_vector(w)
            assert not lazy.contains_vector([v[0] + 1] + v[1:])
        assert lazy.contains_vectors(inside)
        assert not lazy.contains_element(outside) and not eager.contains_element(outside)
        assert lazy.contains_element(inside_elem) and eager.contains_element(inside_elem)
        assert not lazy.contains_vectors(inside + [[1] + [0] * (d - 1)])
        assert lazy.cols == eager.cols
        assert lazy == eager and eager == lazy and hash(lazy) == hash(eager)
        assert len({lazy, eager}) == 1


@pytest.mark.parametrize("field, p", [("K5", 3), ("K180", 181)])
def test_general_product_builds_no_hnf_of_a_factored_operand(request, field, p):
    # u*J lends |N(u)| * l(J) to the product's modulus, read from its factors
    K = request.getfixturevalue(field)
    rng = random.Random(field)
    alpha = K.element([rng.randint(-3, 3) for _ in range(K.degree)])
    P, Q = (F.to_ideal() for F in kummer_dedekind(p, K)[:2])
    cases = [
        (lambda: Ideal.principal(K, alpha) * P, Q),
        (lambda: Ideal.principal(K, alpha), Q.inverse()),
    ]
    for make, other in cases:
        # the same generators over a built HNF take the least integer
        lazy, built = make(), make()
        bare = Ideal(K, built.cols, gens=built._gens)
        for got, want in ((lazy * other, bare * other), (other * lazy, other * bare)):
            assert got.cols == want.cols and got.denom == want.denom
        assert lazy._factors is not None and lazy._cols is None


_REFERENCE_FIELDS = {
    "x^2+5": [5, 0, 1],
    "x^2+21": [21, 0, 1],
    "x^2-5": [-5, 0, 1],
    "x^3-2": [-2, 0, 0, 1],
    "x^3-x-1": [-1, -1, 0, 1],
    "x^4+x+1": [1, 1, 0, 0, 1],
    "Phi180": None,
}


@pytest.mark.parametrize("field", list(_REFERENCE_FIELDS))
def test_norm_disc_inverse_and_membership_match_the_references(request, field):
    # the norm (Bareiss determinant or tower) against sympy's resultant, disc f
    # (power sums or read from m) against sympy's discriminant, the inverse
    # of the fractional ideal (a)/den against (den * beta)/|n| and membership
    # in u*O_K and u*P against the test through beta = N(u)/u
    poly = _REFERENCE_FIELDS[field]
    K = request.getfixturevalue("K180") if poly is None else NumberField(poly)
    d = K.degree
    rng = random.Random(field)
    assert K.disc == sympy_discriminant(K.poly)
    if poly is not None:
        assert poly_discriminant(K.poly) == K.disc
    span = 3 if d > 4 else 40
    count = 2 if d > 4 else 12
    elems, dens = [], []
    while len(elems) < 2 * count:
        a = K.element([rng.randint(-span, span) for _ in range(d)])
        if not a.is_zero():
            dens.append(rng.randint(1, 6) if len(elems) % 2 else 1)
            elems.append(a)
    for a, den in zip(elems, dens):
        assert a.norm_int() == resultant_norm(a), (field, a)
        g = Ideal.principal(K, a)
        frac = _normalized(K, g.cols, den) if den > 1 else g
        assert frac.inverse() == principal_inverse(a, den), (field, a, den)
    p = next(p for p in (181, 7, 11, 13) if kummer_dedekind(p, K)[0].res_degree < d)
    P = kummer_dedekind(p, K)[0].to_ideal()
    outside = 0
    for u in elems[::2]:
        for J in (None, P):
            lazy = Ideal.principal(K, u) if J is None else Ideal.principal(K, u) * J
            assert lazy._factors == (u, J)
            basis = [[int(i == j) for i in range(d)] for j in range(d)] if J is None else J.cols
            inside = []
            for _ in range(3):
                c = [rng.randint(-4, 4) for _ in basis]
                w = [sum(x * b[i] for x, b in zip(c, basis)) for i in range(d)]
                inside.append(K.mul_coords(u.coords, w))
            vecs = inside + [[x + (i == j) for i, x in enumerate(v)] for v in inside for j in (0, d - 1)]
            for v in vecs:
                want = in_product(u, J, [v])
                assert lazy.contains_vector(v) == want, (field, u, v)
                outside += not want
            assert lazy.contains_vectors(inside) and in_product(u, J, inside)
    assert outside > 0
