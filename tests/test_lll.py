import hashlib
import random
from fractions import Fraction

import pytest

from dpip import lll, nf
from dpip.errors import DpipError
from dpip.intlattice import IntLattice
from dpip.lll import cyclotomic_order, integral_lll, lll_reduce, minkowski_gram
from dpip.nf import Ideal, NumberField, kummer_dedekind
from dpip.serialize import load_field, load_ideal
from helpers import bareiss_det, gram_of, is_lll_reduced, lll_basis, lll_reference


def test_integral_lll_against_fraction_reference():
    rng = random.Random(7)
    checked = 0
    while checked < 40:
        n = rng.randint(2, 5)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        gram = [
            [sum(a[k][i] * a[k][j] for k in range(n)) + (i == j) for j in range(n)]
            for i in range(n)
        ]
        vecs = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        det = abs(bareiss_det(vecs))
        if not det:
            continue
        assert lll.form_gram(vecs, gram) == gram_of(vecs, gram)
        out = integral_lll(vecs, gram_of(vecs, gram))
        assert is_lll_reduced(out, gram)
        ref = lll_reference(vecs, gram)
        assert is_lll_reduced(ref, gram)
        # each modulus is the |det| of its own basis, so each HNF is exact
        lat = IntLattice(n, modulus=det)
        lat2 = IntLattice(n, modulus=abs(bareiss_det(out)))
        lat.extend(vecs)
        lat2.extend(out)
        assert lat2.basis_columns() == lat.basis_columns()
        checked += 1


# a Toeplitz t = (1, 2), a non-Toeplitz Gram, a singular one, and the
# singular Gram of five vectors in Z^5 of which one is a combination of the
# others, whose zero pivot the float path's Cholesky rounds to a tiny
# positive value
_NOT_POSITIVE_DEFINITE = [
    [[1, 2], [2, 1]],
    [[2, 3], [3, 1]],
    [[1, 0], [0, 0]],
    [
        [24861, 1211, 6955, -660, 2328],
        [1211, 5887, 964, -1375, -153],
        [6955, 964, 3187, 862, -1734],
        [-660, -1375, 862, 2614, -2930],
        [2328, -153, -1734, -2930, 5230],
    ],
]


@pytest.mark.parametrize("gram", _NOT_POSITIVE_DEFINITE)
def test_indefinite_form_is_refused(gram):
    # the float path declines the form and the exact set-up raises the
    # package's error, which the CLI maps to exit 2
    identity = [[int(i == j) for j in range(len(gram))] for i in range(len(gram))]
    assert lll._float_lll(identity, gram) is None
    with pytest.raises(DpipError, match="positive definite"):
        integral_lll(identity, gram)
    with pytest.raises(DpipError, match="positive definite"):
        lll.gram_schmidt(gram)


def test_toeplitz_row_needs_every_diagonal_constant(K64, K180):
    t = [5, 2, 1, 0]
    gram = [[t[abs(i - j)] for j in range(4)] for i in range(4)]
    assert lll._toeplitz_row(gram) == t
    for i, j in ((3, 3), (2, 0), (0, 3)):
        bent = [list(row) for row in gram]
        bent[i][j] += 1
        assert lll._toeplitz_row(bent) is None
    assert lll._toeplitz_row([]) is None
    # the start Gram of u*O_K in a cyclotomic field is Toeplitz, so its float
    # Gram-Schmidt takes Schur's recurrence
    small = [NumberField(f) for f in ([-1, 1], [1, 1, 1], [1] + [0] * 7 + [1])]
    for K in small + [K64, K180]:
        rng = random.Random(K.degree)
        for _ in range(3):
            coords = [0] * K.degree
            while not any(coords):
                coords = [rng.randint(-9, 9) for _ in range(K.degree)]
            gram = lll.start_gram(Ideal.principal(K, K.element(coords)))
            assert lll._toeplitz_row(gram) == gram[0]


def _refuse_exact_set_up(monkeypatch):
    def refuse(ips):
        raise AssertionError("exact Gram-Schmidt set-up")

    monkeypatch.setattr(lll, "gram_schmidt", refuse)


def test_small_gram_ideals_run_no_exact_set_up(monkeypatch, K180):
    # the float path reduces (alpha) and P*Q above 181 in Q(zeta_180), so the
    # exact set-up never runs; the same (alpha)*P given by its HNF has an
    # ill-conditioned Gram whose float pivot falls below the floor, so it
    # takes the exact path
    _refuse_exact_set_up(monkeypatch)
    alpha, P, J = _principal_times_prime(K180, 181)
    assert _basis_digest(lll_basis(Ideal.principal(K180, alpha))) == "c66531891a5df380"
    Q = kummer_dedekind(181, K180)[1].to_ideal()
    lll_reduce(P * Q)
    hnf = Ideal(K180, J.cols)
    assert lll._float_gram_schmidt(lll.start_gram(hnf)) is None
    with pytest.raises(AssertionError, match="exact"):
        lll_reduce(hnf)


def test_minkowski_gram_quadratic(K5):
    # embeddings a + b*sqrt(-5): <1,1> = 2, <t,t> = 10, <1,t> = 0
    assert minkowski_gram(K5) == ((2, 0), (0, 10))


def test_minkowski_gram_cyclotomic(K64):
    gram = minkowski_gram(K64)
    for i in range(32):
        for j in range(32):
            assert gram[i][j] == (32 if i == j else 0)


def test_ring_basis_already_reduced(K5):
    ring = Ideal.ring(K5)
    J, W = lll_reduce(ring)
    assert J is ring and sorted(W) == [(0, 1), (1, 0)]


def test_reduce_prime_ideals(K5, K21):
    for K in (K5, K21):
        gram = minkowski_gram(K)
        for p in (2, 3, 5, 7, 11, 13):
            for P in kummer_dedekind(p, K):
                ideal = P.to_ideal()
                J, W = lll_reduce(ideal)
                assert J is ideal
                assert is_lll_reduced([list(w) for w in W], gram)
                assert ideal.contains_vectors(W)


def test_reduce_table_basis_spans_ideal(K64):
    g = [0] * 32
    g[0], g[4], g[8], g[16] = 54, -33, -85, 34
    ideal = Ideal.from_generators(K64, [K64.rational(187), K64.element(g)])
    _, basis = lll_reduce(ideal)
    lat = IntLattice(32, modulus=abs(bareiss_det([list(b) for b in basis])))
    lat.extend(basis)
    assert lat.basis_columns() == ideal.cols
    assert is_lll_reduced([list(b) for b in basis], minkowski_gram(K64))


def test_reduce_rejects_fractional(K5):
    I = Ideal.from_generators(K5, [K5.rational(2), K5.element([1, 1])])
    with pytest.raises(ValueError):
        lll_reduce(I.inverse())


def test_lll_deterministic(K64):
    g = [0] * 32
    g[0], g[4], g[8], g[16] = 54, -33, -85, 34
    i1 = Ideal.from_generators(K64, [K64.rational(187), K64.element(g)])
    i2 = Ideal.from_generators(K64, [K64.rational(187), K64.element(g)])
    assert lll_reduce(i1)[1] == lll_reduce(i2)[1]


def test_lll_reduce_runs_at_one_delta(K64):
    # neither lll_reduce nor integral_lll takes a delta: there is one
    # reduction, at DELTA
    g = [0] * 32
    g[0], g[4], g[8], g[16] = 54, -33, -85, 34
    I = Ideal.from_generators(K64, [K64.rational(187), K64.element(g)])
    with pytest.raises(TypeError):
        lll_reduce(I, delta=(99, 100))
    with pytest.raises(TypeError):
        integral_lll(I.cols, lll.start_gram(I), lll.DELTA)
    J, W = lll_reduce(I)
    assert W == tuple(map(tuple, integral_lll(I.cols, lll.start_gram(I))))


def _basis_digest(basis):
    return hashlib.sha256(repr([b.coords for b in basis]).encode()).hexdigest()[:16]


def test_lll_output_pinned(K64, K180, fixtures_dir):
    # taken at delta = 3/4 on u x W; the Toeplitz start Gram of (alpha)
    # leaves the basis bit-identical to the generic b_i^T G b_j
    switch = load_ideal(fixtures_dir / "ideal_zeta64_switch.json", K64)
    assert _basis_digest(lll_basis(switch)) == "056a2018dcfe50d5"
    rng = random.Random(180)
    alpha = K180.element([rng.randint(-3, 3) for _ in range(48)])
    principal = Ideal.principal(K180, alpha)
    assert _basis_digest(lll_basis(principal)) == "c66531891a5df380"


def _principal_times_prime(K, p):
    rng = random.Random(180)
    alpha = K.element([rng.randint(-3, 3) for _ in range(K.degree)])
    P = kummer_dedekind(p, K)[0].to_ideal()
    return alpha, P, Ideal.principal(K, alpha) * P


@pytest.mark.parametrize("field, p", [("K5", 3), ("K21", 5), ("K180", 181)])
def test_product_by_principal_records_a_short_basis(request, field, p):
    # (alpha) * P records alpha x (basis of P), and LLL starts from it
    K = request.getfixturevalue(field)
    alpha, P, J = _principal_times_prime(K, p)
    assert P._basis is None
    assert J._basis == tuple(map(tuple, K.mul_vectors(alpha.coords, P.cols)))
    basis = [list(b.coords) for b in lll_basis(J)]
    # |det| times Z^d lies in the span of the basis, so the modulus is exact
    lat = IntLattice(K.degree, modulus=abs(bareiss_det(basis)))
    lat.extend(basis)
    assert lat.basis_columns() == J.cols
    assert is_lll_reduced(basis, minkowski_gram(K))


def test_product_of_non_principal_ideals_records_no_basis(K5, K180):
    for K, p in ((K5, 3), (K180, 181)):
        P, Q = (F.to_ideal() for F in kummer_dedekind(p, K)[:2])
        assert (P * Q)._basis is None


def test_product_lll_output_pinned(K180):
    # taken at delta = 3/4, from the start alpha x (basis of P)
    _, _, J = _principal_times_prime(K180, 181)
    assert _basis_digest(lll_basis(J)) == "2f48f51ef1b15211"


@pytest.mark.parametrize("field, p", [("K5", 3), ("K21", 5), ("K64", 193), ("K180", 181)])
def test_cofactor_side_reduction_returns_the_product_basis(request, field, p):
    # integral_lll reads every step from the Gram matrix, so B_J reduced
    # under the Gram of u x B_J, times u, is the reduction of u x B_J itself
    K = request.getfixturevalue(field)
    alpha, _, J = _principal_times_prime(K, p)
    beta = K.element([1, -2] + [0] * (K.degree - 2))
    for ideal in (Ideal.principal(K, alpha), J, Ideal.principal(K, beta) * J):
        _, cofactor = ideal._factors
        assert lll_reduce(ideal)[0] is (cofactor or Ideal.ring(K))
        expected = integral_lll(ideal._basis, lll.start_gram(ideal))
        assert [list(b.coords) for b in lll_basis(ideal)] == expected


def _start_gram_cases(K, p):
    alpha, P, J = _principal_times_prime(K, p)
    beta = K.element([1, -2] + [0] * (K.degree - 3) + [1])
    return {
        "principal": Ideal.principal(K, alpha),
        "times-prime": J,
        # u*J with J itself a product: a dense recorded basis of J
        "times-product": Ideal.principal(K, beta) * J,
        "hnf": P * kummer_dedekind(p, K)[1].to_ideal(),
    }


@pytest.mark.parametrize("field, p", [("K64", 193), ("K180", 181)])
def test_toeplitz_start_gram_equals_generic(request, monkeypatch, field, p):
    # the weight form of u gives the Gram of u x B_J exactly, and LLL then
    # returns the same basis as from b_i^T G b_j
    K = request.getfixturevalue(field)
    form = minkowski_gram(K)
    cases = _start_gram_cases(K, p)
    assert cases["hnf"]._factors is None and cases["times-product"]._factors[1]._basis
    fast = {}
    for name, ideal in cases.items():
        start = ideal._basis or ideal.cols
        assert lll.start_gram(ideal) == lll.form_gram(start, form), name
        fast[name] = lll_reduce(ideal)[1]
    monkeypatch.setattr(
        lll, "start_gram", lambda I: lll.form_gram(I._basis or I.cols, minkowski_gram(I.K))
    )
    for name, ideal in _start_gram_cases(K, p).items():
        assert lll_reduce(ideal)[1] == fast[name], name


def test_start_gram_of_non_cyclotomic_fields_is_generic(monkeypatch, K5, K21):
    # no weight form there: the start basis itself goes under the field's form
    calls = []
    generic = lll.form_gram
    monkeypatch.setattr(lll, "form_gram", lambda *a: calls.append(a) or generic(*a))
    for K, p in ((K5, 3), (K21, 5)):
        _, _, J = _principal_times_prime(K, p)
        for ideal in (J, Ideal.principal(K, J._factors[0])):
            lll.start_gram(ideal)
            assert calls == [(ideal._basis, minkowski_gram(K))]
            assert is_lll_reduced([list(b.coords) for b in lll_basis(ideal)], minkowski_gram(K))
            calls.clear()


def test_exact_gram_matches_numerical(K64, K180):
    for K in (K64, K180):
        assert lll._cyclotomic_gram(K) == lll._numerical_gram(K)


def test_cyclotomic_order(K5, K64, K180):
    assert cyclotomic_order(K64) == 64
    assert cyclotomic_order(K180) == 180
    assert cyclotomic_order(K5) is None
    # reciprocal, with two roots on the unit circle, but not cyclotomic
    assert cyclotomic_order(NumberField([1, -1, -1, -1, 1])) is None


def test_cyclotomic_order_is_computed_once_per_field(monkeypatch, fixtures_dir):
    # the Gram matrix and the norm table both ask; the field answers from
    # its cache the second time
    calls = []
    totients = nf._totients

    def counted(n):
        calls.append(n)
        return totients(n)

    monkeypatch.setattr(nf, "_totients", counted)
    K = load_field(fixtures_dir / "field_zeta64.json")
    minkowski_gram(K)
    assert K.element([1, 2] + [0] * 30).norm_int() == 1 + 2**32
    assert cyclotomic_order(K) == 64
    assert len(calls) == 1


def test_cyclotomic_fixtures_skip_numerical_gram(monkeypatch, fixtures_dir):
    def refuse(K):
        raise AssertionError(f"numerical Gram matrix computed for {K}")

    monkeypatch.setattr(lll, "_numerical_gram", refuse)
    for name in ("field_zeta64.json", "field_zeta180.json"):
        K = load_field(fixtures_dir / name)  # a fresh field, so no cached Gram
        gram = minkowski_gram(K)
        d = K.degree
        assert all(gram[j][k] == gram[0][abs(j - k)] for j in range(d) for k in range(d))


# corruptions of the reduction's output: a basis of u*J is reduced on J's
# side, so for u*O_K every integer output stays in O_K and only the
# determinant can refuse it
_SPAN_CORRUPTIONS = {
    # a sublattice of index 2^d: every vector in the ideal, no span
    "sublattice": (lambda vecs: [[2 * x for x in v] for v in vecs], "does not span"),
    # determinant 0
    "repeated": (lambda vecs: [vecs[0]] + vecs[:-1], "does not span"),
    # a sublattice of index 2
    "doubled": (lambda vecs: [[2 * x for x in vecs[0]]] + vecs[1:], "does not span"),
    # the unit vector 1 is in no proper ideal
    "outside": (lambda vecs: [[1] + [0] * (len(vecs) - 1)] + vecs[1:], "left the input ideal"),
}


def _span_check_ideal(request, case):
    if case == "K5-principal":
        K = request.getfixturevalue("K5")
        return Ideal.principal(K, K.element([3, 1]))
    if case == "K5-hnf":
        K = request.getfixturevalue("K5")
        P2, P3 = kummer_dedekind(2, K)[0], kummer_dedekind(3, K)[0]
        return P2.to_ideal() * P3.to_ideal()
    alpha, P, ideal = _principal_times_prime(request.getfixturevalue("K180"), 181)
    return Ideal.principal(ideal.K, alpha) if case == "K180-principal" else ideal


@pytest.mark.parametrize(
    "case, corruption",
    [
        (case, corruption)
        for case in ("K5-principal", "K180-principal", "K180-times-prime", "K5-hnf")
        for corruption in _SPAN_CORRUPTIONS
        # W stays in O_K for u*O_K, so nothing can leave (u)
        if corruption != "outside" or case in ("K180-times-prime", "K5-hnf")
    ],
)
def test_span_check_on_factored_ideals(request, monkeypatch, case, corruption):
    # an ideal u*J checks both halves on J's side, with no HNF of u*J; an
    # HNF lattice checks its own columns
    ideal = _span_check_ideal(request, case)
    wrong, message = _SPAN_CORRUPTIONS[corruption]
    monkeypatch.setattr(lll, "integral_lll", lambda vecs, gram: wrong([list(v) for v in vecs]))
    with pytest.raises(DpipError, match=message):
        lll_reduce(ideal)
    assert (ideal._factors is None) == (case == "K5-hnf")
    assert (ideal._cols is None) == (ideal._factors is not None)


def _cofactor_start(ideal):
    """The vectors and Gram matrix lll_reduce hands integral_lll."""
    J = ideal if ideal._factors is None else ideal._factors[1] or Ideal.ring(ideal.K)
    return J._basis or J.cols, lll.start_gram(ideal)


def _assert_float_path_agrees(ideal):
    # the float path runs, its W is exact_lll's on the same start, lll_reduce
    # returns it, and u x W is LLL-reduced under the canonical-embedding form
    vectors, gram = _cofactor_start(ideal)
    exact = lll.exact_lll(vectors, gram)
    assert lll._float_lll(vectors, gram) == exact
    assert lll_reduce(ideal)[1] == tuple(map(tuple, exact))
    assert is_lll_reduced([b.coords for b in lll_basis(ideal)], minkowski_gram(ideal.K))


def _random_principal(K, seed, bound, count):
    rng = random.Random(seed)
    ideals = []
    while len(ideals) < count:
        coords = [rng.randint(-bound, bound) for _ in range(K.degree)]
        if any(coords):
            ideals.append(Ideal.principal(K, K.element(coords)))
    return ideals


@pytest.mark.parametrize("field, bound", [("K180", 3), ("K180", 9), ("K64", 3), ("K64", 9)])
def test_float_path_agrees_with_exact_on_principal_ideals(request, field, bound):
    K = request.getfixturevalue(field)
    for ideal in _random_principal(K, 29 * bound + K.degree, bound, 26):
        _assert_float_path_agrees(ideal)


def test_float_path_agrees_with_exact_on_the_degree48_pool(pool180):
    # |mu| = 1/2 exactly in most of these (the cyclotomic symmetry), so
    # without the FLOAT_MARGIN tie rule some W here differs from exact_lll's
    _, ideals = pool180
    for ideal in ideals:
        _assert_float_path_agrees(ideal)


@pytest.mark.parametrize("field, p", [("K180", 181), ("K64", 193)])
def test_float_path_agrees_with_exact_on_products_by_a_prime(request, field, p):
    K = request.getfixturevalue(field)
    primes = [F.to_ideal() for F in kummer_dedekind(p, K)]
    for bound in (3, 9):
        for i, ideal in enumerate(_random_principal(K, p + bound, bound, 3)):
            _assert_float_path_agrees(ideal * primes[i])
    _assert_float_path_agrees(_principal_times_prime(K, p)[2])


def test_float_path_agrees_with_exact_on_prime_and_switch_ideals(K5, K21, K64, fixtures_dir):
    for K in (K5, K21):
        for p in (2, 3, 5, 7, 11, 13):
            for P in kummer_dedekind(p, K):
                _assert_float_path_agrees(P.to_ideal())
    _assert_float_path_agrees(load_ideal(fixtures_dir / "ideal_zeta64_switch.json", K64))


def test_hnf_given_ideal_takes_the_exact_path(monkeypatch, K180):
    # the HNF of (alpha)*P181 has Gram entries of about 316 bits, beyond
    # doubles: the float path declines at once, the exact path runs from the
    # start, and its W passes lll_reduce's span check
    _, _, J = _principal_times_prime(K180, 181)
    hnf = Ideal(K180, J.cols)
    runs = []
    float_lll, exact_lll = lll._float_lll, lll.exact_lll
    monkeypatch.setattr(lll, "_float_lll", lambda *a: runs.append(float_lll(*a)))
    monkeypatch.setattr(lll, "exact_lll", lambda *a: runs.append(exact_lll(*a)) or runs[-1])
    _, W = lll_reduce(hnf)
    assert runs[0] is None and len(runs) == 2
    assert W == tuple(map(tuple, runs[1]))


def _large_generator_ideals(K, p, bits):
    # (u) and (u)*P for a prime P above p, one u per b with coordinates up
    # to 2^b
    P = kummer_dedekind(p, K)[0].to_ideal()
    rng = random.Random(p)
    ideals = []
    for b in bits:
        u = K.element([rng.randint(-(2**b), 2**b) for _ in range(K.degree)])
        ideals += [Ideal.principal(K, u), Ideal.principal(K, u) * P]
    return ideals


def _gram_bits(gram):
    return max(max(map(max, gram)), -min(map(min, gram))).bit_length()


@pytest.mark.parametrize(
    "coeffs, p", [([1] + [0] * 15 + [1], 97), ([-2, 0, 0, 1], 5)], ids=["x^16+1", "x^3-2"]
)
def test_float_path_reduces_gram_entries_up_to_the_double_range(monkeypatch, coeffs, p):
    # Gram entries from 2^50 up to 2^511 leave room in a double for the
    # product of two pivots, so the float path reduces (u) and (u)*P there:
    # the exact set-up never runs, and W is exact_lll's
    K = NumberField(coeffs)
    starts = [_cofactor_start(I) for I in _large_generator_ideals(K, p, (30, 120, 220))]
    expected = [lll.exact_lll(*start) for start in starts]
    _refuse_exact_set_up(monkeypatch)
    for start, exact in zip(starts, expected):
        assert 50 < _gram_bits(start[1]) <= 511
        assert integral_lll(*start) == exact


def test_gram_entries_beyond_the_double_range_take_the_exact_path(monkeypatch):
    # with u ~ 2^260 in x^8+1 the Gram entries pass 2^511, where a product of
    # two pivots could overflow a double: the float path declines at once,
    # and exact_lll reduces the Toeplitz Gram of (u) and the Gram of (u)*P
    # with no OverflowError, to the pinned bases
    K = NumberField([1] + [0] * 7 + [1])
    runs = []
    exact_lll = lll.exact_lll
    monkeypatch.setattr(lll, "exact_lll", lambda *a: runs.append(a) or exact_lll(*a))
    digests = []
    for ideal in _large_generator_ideals(K, 17, (260,)):
        vectors, gram = _cofactor_start(ideal)
        assert _gram_bits(gram) > lll.FLOAT_GRAM_BITS == 511
        assert lll._float_lll(vectors, gram) is None
        W = lll_reduce(ideal)[1]
        digests.append(hashlib.sha256(repr(W).encode()).hexdigest()[:16])
    assert lll._toeplitz_row(runs[0][1]) is not None and len(runs) == 2
    assert digests == ["5105befa541fb3ec", "42ba2e5f58fd018e"]


def test_float_step_cap_falls_back_to_the_exact_path(monkeypatch, K180):
    # with no float steps allowed the float path gives up, and integral_lll
    # returns exact_lll's basis from the original vectors
    ideal = _random_principal(K180, 5, 3, 1)[0]
    vectors, gram = _cofactor_start(ideal)
    monkeypatch.setattr(lll, "FLOAT_STEPS", 0)
    assert lll._float_lll(vectors, gram) is None
    assert integral_lll(vectors, gram) == lll.exact_lll(vectors, gram)


def test_float_path_breaks_ties_as_the_exact_path_does():
    # |b_1|^2 = 3/4 |b_0|^2 is a Lovasz tie, which exact_lll's strict test
    # leaves unswapped; B_1 + mu^2 B_0 in doubles lands on either side of it,
    # and FLOAT_MARGIN keeps every such pair unswapped as well
    for g00 in range(4, 400, 4):
        for g01 in range(g00 // 2 + 1):
            gram = [[g00, g01], [g01, 3 * g00 // 4]]
            if g00 * gram[1][1] > g01 * g01:
                assert lll._float_lll([[1, 0], [0, 1]], gram) == lll.exact_lll([[1, 0], [0, 1]], gram)


@pytest.mark.parametrize("field, p", [("K64", 193), ("K180", 181)])
def test_float_gram_schmidt_is_far_inside_the_margin(request, fixtures_dir, field, p):
    # Schur's recurrence on the Toeplitz Gram of (alpha), and the fixed-point
    # Cholesky on the ill-conditioned Gram of (alpha)*P and of an HNF lattice,
    # give mu and B within 2^-40 of the exact minors' ratios, far inside
    # FLOAT_MARGIN = 2^-30
    K = request.getfixturevalue(field)
    cases = [_random_principal(K, p, bound, 2) for bound in (3, 9)]
    ideals = [I for pair in cases for I in pair]
    primes = [F.to_ideal() for F in kummer_dedekind(p, K)]
    ideals += [I * P for I, P in zip(ideals, primes)]
    if K.degree == 32:
        ideals.append(load_ideal(fixtures_dir / "ideal_zeta64_switch.json", K))
    for ideal in ideals:
        gram = lll.start_gram(ideal)
        mu, bb = lll._float_gram_schmidt(gram)
        lam, d = lll.gram_schmidt(gram)
        for i in range(K.degree):
            assert abs(Fraction(bb[i]) * d[i] / d[i + 1] - 1) < 2**-40
            for j in range(i):
                assert abs(Fraction(mu[i][j]) - Fraction(lam[i][j], d[j + 1])) < 2**-40
