import random

import pytest
from sympy import factorint, primerange

from dpip import quadforms
from dpip.errors import ClassGroupNotElementary2Error, GaveUpError, NotFundamentalError
from dpip.nf import Ideal, kummer_dedekind
from dpip.quadforms import (
    QuadForm,
    enumerate_forms,
    field_for_disc,
    genus_advice,
    ideal_form,
    is_principal_quad,
    prime_discriminants,
    principal_form,
)
from helpers import principal_by_representation, represents


def test_enumerate_minus4():
    g = enumerate_forms(-4)
    assert g.h == 1
    assert g.forms == (QuadForm(1, 0, 1),)
    assert g.elementary2


def test_enumerate_minus20():
    g = enumerate_forms(-20)
    assert g.h == 2
    assert g.forms == (QuadForm(1, 0, 5), QuadForm(2, 2, 3))
    assert g.elementary2


def test_enumerate_minus84():
    g = enumerate_forms(-84)
    assert g.h == 4
    assert all(f.is_ambiguous() for f in g.forms)
    assert g.elementary2


def test_enumerate_non_elementary():
    # h(-23) = 3 with classes (1,1,6), (2,+-1,3)
    g = enumerate_forms(-23)
    assert g.h == 3
    assert not g.elementary2


def test_enumerate_rejects_bad_discs():
    with pytest.raises(NotFundamentalError):
        enumerate_forms(5)
    with pytest.raises(NotFundamentalError):
        enumerate_forms(-21)  # 3 mod 4
    with pytest.raises(NotFundamentalError):
        enumerate_forms(-12)  # 4 * (-3), -3 is 1 mod 4
    with pytest.raises(NotFundamentalError):
        enumerate_forms(-45)  # 9 * -5 not squarefree
    for disc in (-75, -72):  # 1 mod 4 but 25 * -3; 4 * -18, 2 mod 4 but 9 * -2
        with pytest.raises(NotFundamentalError):
            enumerate_forms(disc)


def test_reduction_terminates_at_reduced_forms():
    rng = random.Random(0)
    for _ in range(200):
        a = rng.randint(1, 30)
        b = rng.randint(-30, 30)
        cmin = (b * b + 4 * a - 1) // (4 * a) + 1
        c = rng.randint(cmin, cmin + 30)
        form = QuadForm(a, b, c)
        if form.disc() >= 0:
            continue
        red = form.reduced()
        assert red.is_reduced()
        assert red.disc() == form.disc()


def test_ideal_form_discriminant(K5):
    for p in (3, 7, 23, 29):
        for P in kummer_dedekind(p, K5):
            form = ideal_form(P.to_ideal(), -20)
            assert form.disc() == -20
            assert form.a > 0


def test_is_principal_examples(K5):
    I2 = Ideal.from_generators(K5, [K5.rational(2), K5.element([1, 1])])
    assert is_principal_quad(I2, -20) is False
    assert is_principal_quad(Ideal.principal(K5, K5.element([3, 2])), -20) is True
    P3 = [P for P in kummer_dedekind(3, K5) if P.gen_poly == (2, 1)][0]
    assert is_principal_quad(P3.to_ideal(), -20) is False
    assert not represents(5, 3)  # no a^2 + 5 b^2 = 3


def test_form_ideal_duality(K5):
    """Primes above p < 1000: the form verdict matches exhaustive search."""
    for p in primerange(2, 1000):
        for P in kummer_dedekind(p, K5):
            if P.res_degree > 1:
                continue  # inert primes excluded: split or ramified only
            got = is_principal_quad(P.to_ideal(), -20)
            want = represents(5, p)
            assert got == want, (p, got, want)


def test_oracle_matches_representation_search(K5, K21):
    rng = random.Random(1)
    for K, disc in ((K5, -20), (K21, -84)):
        for _ in range(40):
            a = K.element([rng.randint(-4, 4), rng.randint(-4, 4)])
            b = K.element([rng.randint(-4, 4), rng.randint(-4, 4)])
            if a.is_zero() or b.is_zero():
                continue
            I = Ideal.from_generators(K, [a, b])
            if I.norm_int() > 4000:
                continue
            assert is_principal_quad(I, disc) == principal_by_representation(K, I)


def test_class_count_via_prime_forms():
    """h matches the reduced forms reachable from prime forms above p < 50."""
    for disc in (-20, -84, -120, -132):
        group = enumerate_forms(disc)
        K = field_for_disc(disc)
        seen = {principal_form(disc).reduced()}
        for p in primerange(2, 50):
            if disc % p and pow(disc, (p - 1) // 2, p) != 1 if p > 2 else False:
                continue
            for P in kummer_dedekind(p, K):
                if P.res_degree == 1:
                    form = ideal_form(P.to_ideal(), disc).reduced()
                    seen.add(form)
                    # the opposite orientation is the inverse class
                    seen.add(QuadForm(form.a, -form.b, form.c).reduced())
        assert seen == set(group.forms), (disc, seen)


def test_prime_discriminant_factorizations():
    assert prime_discriminants(-20) == [5, -4]
    assert prime_discriminants(-84) == [-3, -7, -4]
    assert prime_discriminants(-120) == [-3, 5, 8]
    assert prime_discriminants(-4) == [-4]
    assert prime_discriminants(-8) == [-8]


def _fundamental_by_factorint(disc):
    """D < 0 is fundamental when D = 1 (mod 4) is squarefree, or D = 4m with
    m = 2, 3 (mod 4) squarefree: the definition, read from sympy's factorint."""
    m = disc if disc % 4 == 1 else disc // 4 if disc % 16 in (8, 12) else None
    return m is not None and all(e == 1 for e in factorint(-m).values())


def test_fundamental_discriminants_and_their_prime_discriminants_match_factorint():
    # trial division finds the discriminants and prime discriminants that
    # sympy's factorint finds
    for disc in range(-3000, 0):
        if not _fundamental_by_factorint(disc):
            with pytest.raises(NotFundamentalError):
                prime_discriminants(disc)
            continue
        pds = prime_discriminants(disc)
        odd = sorted(p for p in factorint(-disc) if p > 2)
        assert [abs(d) for d in pds if d % 2] == odd, disc
        assert all(d % 4 == 1 for d in pds if d % 2), disc


def test_genus_advice_minus20(K5):
    bundle = genus_advice(-20)
    assert bundle.field == K5
    assert bundle.t == 1
    q, poly = bundle.subfields[0]
    assert q == 2
    assert [c.coords for c in poly] == [(1, 0), (0, 0), (1, 0)]  # x^2 + 1
    assert bundle.S == ()
    assert bundle.disc_cache[0] == K5.rational(-4)


def test_genus_advice_trivial_group():
    bundle = genus_advice(-4)
    assert bundle.t == 0
    assert bundle.S == ()


def test_genus_advice_minus84(K21):
    bundle = genus_advice(-84)
    assert bundle.field == K21
    polys = [[c.coords for c in poly] for _, poly in bundle.subfields]
    assert polys == [[(1, 0), (0, 0), (1, 0)], [(3, 0), (0, 0), (1, 0)]]


def test_genus_advice_rejects_large_classes():
    with pytest.raises(ClassGroupNotElementary2Error):
        genus_advice(-23)


def test_field_for_disc():
    assert field_for_disc(-20).poly == (5, 0, 1)
    assert field_for_disc(-7).poly == (2, -1, 1)
    assert field_for_disc(-7).disc == -7


def test_a_discriminant_above_the_bound_is_given_up():
    # squarefree, 1 mod 4 and built from primes below 30, so trial division
    # alone would finish on it; the O(|D|) enumeration is what is refused
    disc = -3 * 5 * 7 * 11 * 13 * 17 * 19 * 23
    assert disc % 4 == 1 and -disc > quadforms.MAX_ABS_DISC
    for run in (enumerate_forms, genus_advice):
        with pytest.raises(GaveUpError, match="bound"):
            run(disc)
    # neither enumerates forms, so neither is bounded
    assert prime_discriminants(disc) == [-3, 5, -7, -11, 13, 17, -19, -23]
    assert field_for_disc(disc).disc == disc
    with pytest.raises(NotFundamentalError):
        enumerate_forms(disc - 2)  # 3 mod 4 is refused as before
