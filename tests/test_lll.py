import hashlib
import random

import pytest

from dpip import lll, nf
from dpip.errors import DpipError
from dpip.intlattice import IntLattice, bareiss_det
from dpip.lll import (
    cyclotomic_order,
    integral_lll,
    is_lll_reduced,
    lll_reduce,
    minkowski_gram,
)
from dpip.nf import Ideal, NumberField, kummer_dedekind
from dpip.serialize import load_field, load_ideal
from helpers import lll_reference


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
        out = integral_lll(vecs, gram)
        assert is_lll_reduced(out, gram)
        ref = lll_reference(vecs, gram)
        assert is_lll_reduced(ref, gram)
        lat2 = IntLattice(n)
        for v in out:
            lat2.add(list(v))
        assert lat2.hnf_matrix() == lat.hnf_matrix()
        checked += 1


def test_minkowski_gram_quadratic(K5):
    # embeddings a + b*sqrt(-5): <1,1> = 2, <t,t> = 10, <1,t> = 0
    assert minkowski_gram(K5) == ((2, 0), (0, 10))


def test_minkowski_gram_cyclotomic(K64):
    gram = minkowski_gram(K64)
    for i in range(32):
        for j in range(32):
            assert gram[i][j] == (32 if i == j else 0)


def test_ring_basis_already_reduced(K5):
    basis = lll_reduce(Ideal.ring(K5))
    vecs = sorted(tuple(b.coords) for b in basis)
    assert vecs == [(0, 1), (1, 0)]


def test_reduce_prime_ideals(K5, K21):
    for K in (K5, K21):
        gram = minkowski_gram(K)
        for p in (2, 3, 5, 7, 11, 13):
            for P in kummer_dedekind(p, K):
                ideal = P.to_ideal()
                basis = lll_reduce(ideal)
                coords = [list(b.coords) for b in basis]
                assert is_lll_reduced(coords, gram)
                for b in basis:
                    assert ideal.contains_element(b)


def test_reduce_table_basis_spans_ideal(K64):
    g = [0] * 32
    g[0], g[4], g[8], g[16] = 54, -33, -85, 34
    ideal = Ideal.from_generators(K64, [K64.rational(187), K64.element(g)])
    basis = lll_reduce(ideal)
    lat = IntLattice(32)
    for b in basis:
        lat.add(list(b.coords))
    assert lat.hnf_matrix() == ideal.hnf_matrix()
    assert is_lll_reduced([list(b.coords) for b in basis], minkowski_gram(K64))


def test_reduce_rejects_fractional(K5):
    I = Ideal.from_generators(K5, [K5.rational(2), K5.element([1, 1])])
    with pytest.raises(ValueError):
        lll_reduce(I.inverse())


def test_lll_deterministic(K64):
    g = [0] * 32
    g[0], g[4], g[8], g[16] = 54, -33, -85, 34
    i1 = Ideal.from_generators(K64, [K64.rational(187), K64.element(g)])
    i2 = Ideal.from_generators(K64, [K64.rational(187), K64.element(g)])
    b1 = [b.coords for b in lll_reduce(i1)]
    b2 = [b.coords for b in lll_reduce(i2)]
    assert b1 == b2


def _basis_digest(basis):
    return hashlib.sha256(repr([b.coords for b in basis]).encode()).hexdigest()[:16]


def test_lll_output_pinned(K64, K180, fixtures_dir):
    # the exact Gram and the set-up by vector-matrix products leave every
    # reduced basis bit-identical; these digests were taken before both
    switch = load_ideal(fixtures_dir / "ideal_zeta64_switch.json", K64)
    assert _basis_digest(lll_reduce(switch)) == "7573ffb223edc36c"
    rng = random.Random(180)
    alpha = K180.element([rng.randint(-3, 3) for _ in range(48)])
    principal = Ideal.principal(K180, alpha)
    assert _basis_digest(lll_reduce(principal)) == "f3cd96f444c4f0de"


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
    basis = [list(b.coords) for b in lll_reduce(J)]
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
    # taken when the start from alpha x (basis of P) replaced the HNF start
    _, _, J = _principal_times_prime(K180, 181)
    assert _basis_digest(lll_reduce(J)) == "0bc21fbae997372f"


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
    assert K.element([1, 2] + [0] * 30).norm() == 1 + 2**32
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


@pytest.mark.parametrize(
    "wrong, message",
    [
        # a sublattice of index 2^d: every vector in the ideal, no span
        (lambda vecs: [[2 * x for x in v] for v in vecs], "does not span"),
        # the unit vector 1 is in no proper ideal
        (lambda vecs: [[1] + [0] * (len(vecs) - 1)] + vecs[1:], "left the input ideal"),
    ],
    ids=["sublattice", "outside"],
)
@pytest.mark.parametrize("case", ["K5-principal", "K180-principal", "K180-times-prime"])
def test_span_check_on_factored_ideals(request, monkeypatch, case, wrong, message):
    # an ideal u*J checks both halves from its factors, with no HNF
    if case == "K5-principal":
        K = request.getfixturevalue("K5")
        ideal = Ideal.principal(K, K.element([3, 1]))
    else:
        alpha, P, ideal = _principal_times_prime(request.getfixturevalue("K180"), 181)
        if case == "K180-principal":
            ideal = Ideal.principal(ideal.K, alpha)
    monkeypatch.setattr(lll, "integral_lll", lambda vecs, gram, delta: wrong([list(v) for v in vecs]))
    with pytest.raises(DpipError, match=message):
        lll_reduce(ideal)
    assert ideal._factors is not None and ideal._cols is None
