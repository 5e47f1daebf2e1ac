import hashlib
import random

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
        lat = IntLattice(n)
        for v in vecs:
            lat.add(list(v))
        if not lat.is_full_rank():
            continue
        assert lll.form_gram(vecs, gram) == gram_of(vecs, gram)
        out = integral_lll(vecs, gram_of(vecs, gram))
        assert is_lll_reduced(out, gram)
        ref = lll_reference(vecs, gram)
        assert is_lll_reduced(ref, gram)
        lat2 = IntLattice(n)
        for v in out:
            lat2.add(list(v))
        assert lat2.hnf_matrix() == lat.hnf_matrix()
        checked += 1


@pytest.mark.parametrize("gram", [[[1, 2], [2, 1]], [[2, 3], [3, 1]], [[1, 0], [0, 0]]])
def test_indefinite_form_is_refused(gram):
    # a Toeplitz t = (1, 2), a non-Toeplitz Gram and a singular one: both
    # set-ups raise the package's error, which the CLI maps to exit 2
    with pytest.raises(DpipError, match="positive definite"):
        integral_lll([[1, 0], [0, 1]], gram)
    with pytest.raises(DpipError, match="positive definite"):
        lll.gram_schmidt(gram)
    if lll._toeplitz_row(gram) is not None:
        with pytest.raises(DpipError, match="positive definite"):
            lll.toeplitz_gram_schmidt(gram[0])


def test_toeplitz_row_needs_every_diagonal_constant():
    t = [5, 2, 1, 0]
    gram = [[t[abs(i - j)] for j in range(4)] for i in range(4)]
    assert lll._toeplitz_row(gram) == t
    for i, j in ((3, 3), (2, 0), (0, 3)):
        bent = [list(row) for row in gram]
        bent[i][j] += 1
        assert lll._toeplitz_row(bent) is None
    assert lll._toeplitz_row([]) is None


@pytest.mark.parametrize(
    "field",
    [[-1, 1], [1, 1, 1], [1] + [0] * 7 + [1], "K64", "K180"],
    ids=["x-1", "x^2+x+1", "x^8+1", "x^32+1", "phi180"],
)
def test_toeplitz_set_up_matches_generic_on_principal_ideals(request, field):
    # the start Gram of u*O_K in a cyclotomic field is Toeplitz, and its
    # two-vector minors are Cohen's lambda/d tables
    K = request.getfixturevalue(field) if isinstance(field, str) else NumberField(field)
    rng = random.Random(K.degree)
    for _ in range(3 if K.degree > 32 else 10):
        coords = [0] * K.degree
        while not any(coords):
            coords = [rng.randint(-9, 9) for _ in range(K.degree)]
        gram = lll.start_gram(Ideal.principal(K, K.element(coords)))
        t = lll._toeplitz_row(gram)
        assert t == gram[0]
        assert lll.toeplitz_gram_schmidt(t) == lll.gram_schmidt(gram)


def test_toeplitz_set_up_matches_generic_on_autocorrelations():
    # t_k = sum_j w_j w_{j+k} for a nonzero w is the Gram matrix of the
    # shifts of w, so positive definite, with entries up to 2^100 here
    rng = random.Random(14)
    for n in range(1, 13):
        for _ in range(6):
            w = [0]
            while not any(w):
                w = [rng.randint(-(2**48), 2**48) for _ in range(rng.randint(1, 16))]
            t = [sum(x * y for x, y in zip(w, w[k:])) for k in range(n)]
            gram = [[t[abs(i - j)] for j in range(n)] for i in range(n)]
            assert lll._toeplitz_row(gram) == t
            assert lll.toeplitz_gram_schmidt(t) == lll.gram_schmidt(gram)


def test_principal_ideal_skips_the_generic_set_up(monkeypatch, K180):
    # (alpha) in Q(zeta_180) reduces from the Toeplitz route alone; an HNF
    # ideal still takes the generic one
    def refuse(ips):
        raise AssertionError("generic Gram-Schmidt set-up")

    monkeypatch.setattr(lll, "gram_schmidt", refuse)
    rng = random.Random(180)
    alpha = K180.element([rng.randint(-3, 3) for _ in range(48)])
    assert _basis_digest(lll_basis(Ideal.principal(K180, alpha))) == "c66531891a5df380"
    P, Q = (F.to_ideal() for F in kummer_dedekind(181, K180)[:2])
    with pytest.raises(AssertionError, match="generic"):
        lll_reduce(P * Q)


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
    lat = IntLattice(32)
    for b in basis:
        lat.add(list(b))
    assert lat.hnf_matrix() == ideal.hnf_matrix()
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
