"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them live). The
criteria pin: oracle agreement on quadratic fields, reproduction of the
published switching averages, the worked ramified example, end-to-end
degree-48 decisions, advice equivalence, the randomized arithmetic
invariant suite, the prime-ideal-count sanity ratio, and exhaustive vs
sampled switching density.
"""

import hashlib
import random

from sympy import primerange

from dpip.advice import build_advice, load_advice
from dpip.decide import (
    NO,
    YES,
    decide_ideal,
    decide_prime_ideal,
    default_switch_config,
)
from dpip.errors import SquarefreeViolationError
from dpip.nf import Ideal, NumberField, kummer_dedekind
from dpip.quadforms import genus_advice, is_principal_quad
from dpip.residue import element_in_prime, splits_completely
from dpip.switching import landau_ratio, prime_switch_density, switch_stats
from helpers import irreducible_mod_p, residue_elements, residue_evaluate


def _report(num, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{tag}] {detail}")
    assert ok, detail


def test_criterion_1_oracle_agreement():
    """Form-reduction oracle vs the advice decision on all primes < 1000."""
    total = 0
    for disc in (-20, -84):
        advice = genus_advice(disc)
        K = advice.field
        for p in primerange(2, 1000):
            for P in kummer_dedekind(p, K):
                if P.norm() >= 1000:
                    continue
                got = decide_prime_ideal(P, advice).verdict == YES
                want = is_principal_quad(P.to_ideal(), disc)
                if got != want:
                    _report(1, False, f"disagreement at {P.label()} disc {disc}")
                total += 1
    _report(1, True, f"oracle agreement on {total} prime ideals of norm < 1000")


def test_criterion_2_switch_averages(K64):
    """Mean switches at B = 5, 10, 20 within a factor-2 band of 20/26/32."""
    g = [0] * 32
    g[0], g[4], g[8], g[16] = 54, -33, -85, 34
    ideal = Ideal.from_generators(K64, [K64.rational(187), K64.element(g)])
    bands = {5: (10, 40), 10: (13, 52), 20: (16, 64)}
    stats = switch_stats(ideal, [5, 10, 20], trials=100, seed=20260810)
    means = {s.bound_B: float(s.mean) for s in stats}
    ok = all(bands[b][0] <= means[b] <= bands[b][1] for b in bands)
    _report(
        2,
        ok,
        "degree-32 switch means "
        + ", ".join(f"B={b}: {means[b]:.1f} in {bands[b]}" for b in sorted(bands)),
    )


def test_criterion_3_ramified_example(K5):
    """(2, 1+sqrt(-5)) answers No; (2) answers Yes through switching."""
    advice = genus_advice(-20)
    ram = Ideal.from_generators(K5, [K5.rational(2), K5.element([1, 1])])
    cfg = default_switch_config(K5, bound_B=16, seed=42)
    d_ram = decide_ideal(ram, advice, cfg)
    d_two = decide_ideal(Ideal.principal(K5, K5.rational(2)), advice, cfg)
    ok = d_ram.verdict == NO and d_two.verdict == YES
    _report(
        3,
        ok,
        f"(2, 1+θ) -> {d_ram.verdict} ({d_ram.reason}); "
        f"(2) -> {d_two.verdict} after {d_two.switches_used} switches",
    )


def test_criterion_4_degree48_principal(fixtures_dir, K180):
    """25 random principal ideals of height <= 3 all answer Yes."""
    advice = load_advice(fixtures_dir / "advice_zeta180.json")
    assert advice.field == K180
    assert [q for q, _ in advice.subfields] == [3, 5, 5]
    rng = random.Random(180)
    cfg = default_switch_config(K180, bound_B=5, seed=480)
    yes = 0
    switch_counts = []
    witnesses = []
    for _ in range(25):
        while True:
            alpha = K180.element([rng.randint(-3, 3) for _ in range(48)])
            if not alpha.is_zero():
                break
        decision = decide_ideal(Ideal.principal(K180, alpha), advice, cfg)
        yes += decision.verdict == YES
        switch_counts.append(decision.switches_used)
        w = decision.witness_prime
        witnesses.append(f"{w.p}:{','.join(map(str, w.gen_poly))}")
    _report(
        4,
        yes == 25,
        f"{yes}/25 principal degree-48 ideals verdict Yes "
        f"(switches: min {min(switch_counts)}, max {max(switch_counts)})",
    )
    # the seeded draws are pinned: a change to the reduction, the draw or
    # the cofactor test that moves a count or a witness shows here
    assert switch_counts == [
        2, 8, 18, 12, 27, 2, 7, 13, 9, 17, 11, 3, 8, 22, 5, 35, 4, 8, 43, 56, 5, 5, 39, 1, 10
    ]
    digest = hashlib.sha256("|".join(witnesses).encode()).hexdigest()[:16]
    assert digest == "df61db519f3d569a"


def test_criterion_5_advice_equivalence(K5):
    """x^2+1 and x^2-x-1 verdicts agree off the discriminant gates, N < 10^4."""
    advice_a = genus_advice(-20)
    advice_b = build_advice(
        K5,
        [[K5.rational(-1), K5.rational(-1), K5.one()]],
        principal_test=lambda P: is_principal_quad(P.to_ideal(), -20),
    )
    gates = list(advice_a.disc_cache) + list(advice_b.disc_cache)
    compared = 0
    for p in primerange(2, 10**4):
        for P in kummer_dedekind(p, K5):
            if P.norm() >= 10**4:
                continue
            if any(element_in_prime(d, P) for d in gates):
                continue
            va = decide_prime_ideal(P, advice_a).verdict
            vb = decide_prime_ideal(P, advice_b).verdict
            if va != vb:
                _report(5, False, f"verdicts differ at {P.label()}: {va} vs {vb}")
            compared += 1
    _report(5, True, f"advice-equivalent verdicts on {compared} ungated primes")


def test_criterion_6_arithmetic_invariants(K5, K21, Ki):
    """HNF canonicity, norms, recompose, inverse/divide, Frobenius: no failures."""
    rng = random.Random(606)
    cases = 0
    octic = NumberField([1, 0, 0, 0, -1, 0, 0, 0, 1])  # x^8 - x^4 + 1
    quartic = NumberField([1, 1, 0, 0, 1])  # x^4 + x + 1, irreducible mod 2
    fields = [K5, K21, Ki, quartic]

    def random_ideal(K, span=3):
        while True:
            coords = [rng.randint(-span, span) for _ in range(K.degree)]
            if any(coords):
                el = K.element(coords)
                n = abs(el.norm_int())
                if 0 < n < 10**6:
                    break
        if rng.random() < 0.5:
            return Ideal.principal(K, el)
        p = rng.choice([2, 3, 5, 7, 11, 13])
        return Ideal.from_generators(K, [K.rational(p), el])

    # HNF canonicity: regenerating from shuffled, redundant generator sets
    done = 0
    while done < 1400:
        K = rng.choice(fields)
        a = K.element([rng.randint(-5, 5) for _ in range(K.degree)])
        b = K.element([rng.randint(-5, 5) for _ in range(K.degree)])
        if a.is_zero() or b.is_zero():
            continue
        base = Ideal.from_generators(K, [a, b])
        again = Ideal.from_generators(K, [b, a * b, a, b + a])
        assert base.hnf_matrix() == again.hnf_matrix()
        done += 1
    cases += done

    # norm multiplicativity on ideals of norm < 10^6 (degrees 2, 4, 8)
    for _ in range(1400):
        K = rng.choice(fields + [octic])
        I, J = random_ideal(K), random_ideal(K)
        assert (I * J).norm() == I.norm() * J.norm()
        cases += 1

    # factor-recompose for every p < 500 in four fields
    for K in fields:
        for p in primerange(2, 500):
            factors = kummer_dedekind(p, K)
            assert sum(P.ram_index * P.res_degree for P in factors) == K.degree
            prod = Ideal.ring(K)
            for P in factors:
                prod = prod * P.to_ideal() ** P.ram_index
            assert prod == Ideal.principal(K, K.rational(p))
            cases += 1

    # inverse and division identities, exact HNF equality
    for _ in range(400):
        K = rng.choice(fields)
        I = random_ideal(K)
        assert I * I.inverse() == Ideal.ring(K)
        cases += 1
    for _ in range(400):
        K = rng.choice(fields)
        I, Q = random_ideal(K), random_ideal(K)
        J = I * Q
        got = J.divide(I)
        assert got == Q and got * I == J
        cases += 1

    # Frobenius splitting vs exhaustive root counting over F_q, q < 10^4
    qfields = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 47, 53, 61, 71, 83, 97):
        f = 1
        while p**(f + 1) < 10**4 and f < 4:
            f += 1
        for ff in range(1, f + 1):
            qfields.append((p, ff))

    def modulus_for(p, f):
        if f == 1:
            return [0, 1]
        rloc = random.Random(p * 100 + f)
        while True:
            cand = [rloc.randrange(p) for _ in range(f)] + [1]
            if irreducible_mod_p(cand, p):
                return cand

    built = [(p, f, modulus_for(p, f)) for p, f in qfields]
    small = [(p, f, h) for p, f, h in built if p**f <= 200]
    big = [(p, f, h) for p, f, h in built if p**f > 200]
    elements = {(p, f): list(residue_elements(p, f)) for p, f, _ in built}
    frob_cases = 0
    target = 6500

    def frob_case(p, f, h):
        els = elements[(p, f)]
        while True:
            n = rng.randint(1, 6)
            g = [rng.choice(els) for _ in range(n)] + [[1]]
            try:
                verdict = splits_completely(g, p, h)
            except SquarefreeViolationError:
                continue
            roots = sum(1 for x in els if not residue_evaluate(g, x, p, h))
            assert verdict == (roots == n), (p, f, g)
            return

    for p, f, h in big:
        for _ in range(3):
            frob_case(p, f, h)
            frob_cases += 1
    while frob_cases < target:
        for p, f, h in small:
            frob_case(p, f, h)
            frob_cases += 1
            if frob_cases >= target:
                break
    cases += frob_cases

    _report(
        6,
        cases >= 10**4,
        f"{cases} randomized arithmetic cases, zero failures "
        f"({frob_cases} Frobenius-vs-brute-force)",
    )


def test_criterion_7_landau(K5, Ki):
    r5 = landau_ratio(K5, 10**4)
    ri = landau_ratio(Ki, 10**4)
    ok = 0.5 <= r5 <= 2 and 0.5 <= ri <= 2
    _report(7, ok, f"pi_K(10^4) log(10^4)/10^4 = {r5:.3f} and {ri:.3f}, in [0.5, 2]")


def test_criterion_8_density(K5):
    ring = Ideal.ring(K5)
    exact = prime_switch_density(ring, 5, mode="exhaustive", budget=200)
    sampled = prime_switch_density(ring, 5, mode="sampled", budget=10**5, seed=8)
    gap = abs(float(exact.value) - float(sampled.value))
    ok = exact.value > 0 and gap <= 4 * sampled.stderr
    _report(
        8,
        ok,
        f"exhaustive density {exact.value} vs sampled {float(sampled.value):.5f} "
        f"(gap {gap:.5f} <= 4se {4 * sampled.stderr:.5f}), strictly positive",
    )
