import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from sympy import primerange

import dpip
from dpip import intlattice, lll, nf

from dpip.advice import build_advice, load_advice
from dpip.decide import (
    NO,
    YES,
    CofactorSide,
    Decision,
    SwitchConfig,
    conjectural_bound,
    decide_ideal,
    decide_prime_ideal,
    default_switch_config,
    draw_coefficients,
    first_prime_cofactor,
    prime_cofactor,
    substream,
)
from dpip.errors import (
    FieldMismatchError,
    MaxTrialsExceededError,
    NonDivisibleError,
    NonInvertibleIdealError,
)
from dpip.intlattice import IntLattice
from dpip.lll import lll_reduce
from dpip.nf import Ideal, NumberField, kummer_dedekind, prime_power
from dpip.quadforms import genus_advice, is_principal_quad
from dpip.residue import element_in_prime
from dpip.serialize import load_ideal
from dpip.switching import switch_stats
from helpers import combine, lll_basis, plain_combination, principal_inverse, resultant_norm


@pytest.fixture(scope="module")
def advice20():
    return genus_advice(-20)


def _prime(K, p, gen):
    return [P for P in kummer_dedekind(p, K) if P.gen_poly == gen][0]


def test_ramified_prime_is_rejected(K5, advice20):
    d = decide_prime_ideal(_prime(K5, 2, (1, 1)), advice20)
    assert d.verdict == NO and d.reason == "not-in-S"
    assert d.witness_prime is None and d.switches_used == 0


def test_split_principal_prime(K5, advice20):
    d = decide_prime_ideal(_prime(K5, 29, (16, 1)), advice20)
    assert d.verdict == YES and d.reason == "all-split"
    assert 29 == 3**2 + 5 * 2**2  # principal by explicit representation


def test_split_nonprincipal_prime(K5, advice20):
    d = decide_prime_ideal(_prime(K5, 3, (2, 1)), advice20)
    assert d.verdict == NO and d.reason == "non-split"
    assert d.failed_subfield == 0


def test_inert_primes_are_principal(K5, advice20):
    for p in (11, 13, 17, 19):
        factors = kummer_dedekind(p, K5)
        if len(factors) == 1 and factors[0].res_degree == 2:
            assert decide_prime_ideal(factors[0], advice20).verdict == YES


def test_exceptional_set_membership(K5):
    from dpip.advice import build_advice

    alt = build_advice(
        K5,
        [[K5.rational(-1), K5.rational(-1), K5.one()]],  # x^2 - x - 1, disc 5
        principal_test=lambda P: is_principal_quad(P.to_ideal(), -20),
    )
    p5 = kummer_dedekind(5, K5)[0]
    d = decide_prime_ideal(p5, alt)
    assert d.verdict == YES and d.reason == "in-S"


def test_advice_field_mismatch(K5, Ki, advice20):
    with pytest.raises(FieldMismatchError):
        decide_prime_ideal(kummer_dedekind(3, Ki)[0], advice20)


def test_decision_consistency_enforced():
    with pytest.raises(ValueError):
        Decision(verdict=YES, reason="non-split")


def test_decision_with_an_unknown_reason_is_a_value_error():
    with pytest.raises(ValueError, match="unknown reason"):
        Decision(verdict=YES, reason="bogus")


def test_switch_config_validation():
    with pytest.raises(ValueError):
        SwitchConfig(bound_B=0, max_trials=10, seed=1)
    with pytest.raises(ValueError):
        SwitchConfig(bound_B=5, max_trials=0, seed=1)
    with pytest.raises(ValueError):
        SwitchConfig(bound_B=5, max_trials=10, seed=-1)


def test_conjectural_bound(K5):
    assert conjectural_bound(K5) == 4 * 20


def _basis(ideal):
    """Coordinates of the reduced basis of the ideal itself (u x W for u*J)."""
    return [b.coords for b in lll_basis(ideal)]


def _sample_switch(ideal, basis, cfg, rng):
    """One switching draw: r uniform on the box over basis, and (r)/I."""
    K = ideal.K
    r = combine(K, basis, draw_coefficients(rng, cfg.bound_B, K.degree))
    return r, Ideal.principal(K, r) * ideal.inverse()


def _draw_by_randrange(rng, bound, count):
    """The plain draw: (coefficients, tries), redrawing an all-zero vector."""
    tries = 0
    while True:
        tries += 1
        coeffs = [rng.randrange(-bound, bound + 1) for _ in range(count)]
        if any(coeffs):
            return coeffs, tries


@pytest.mark.parametrize("bound", [1, 5, 20, 2**70 + 3])
def test_draw_coefficients_matches_randrange(bound):
    # getrandbits with randrange's rejection step: the same stream, the same
    # all-zero redraws, and the generator left in the same state
    redraws = 0
    for count in (1, 32, 48):
        for seed in range(20):
            fast, plain = random.Random(seed), random.Random(seed)
            for _ in range(5):
                coeffs, tries = _draw_by_randrange(plain, bound, count)
                assert draw_coefficients(fast, bound, count) == coeffs
                redraws += tries - 1
            assert fast.getstate() == plain.getstate()
    assert redraws > 0 or bound > 1


def test_sample_switch_unit_ideal(K5, advice20):
    ring = Ideal.ring(K5)
    cfg = default_switch_config(K5, bound_B=5, seed=11)
    rng = substream(cfg.seed, "test")
    J, basis = lll_reduce(ring)
    assert J is ring
    r, cof = _sample_switch(ring, basis, cfg, rng)
    assert not r.is_zero()
    assert cof == Ideal.principal(K5, r)


def test_sample_switch_matches_exact_division(K5):
    I = Ideal.from_generators(K5, [K5.rational(2), K5.element([1, 1])])
    cfg = default_switch_config(K5, bound_B=4, seed=3)
    rng = substream(cfg.seed, "test")
    _, basis = lll_reduce(I)
    for _ in range(20):
        r, cof = _sample_switch(I, basis, cfg, rng)
        assert I.contains_element(r)
        assert cof.is_integral()
        assert Ideal.principal(K5, r).divide(I) == cof
        assert cof * I == Ideal.principal(K5, r)


def test_divide_example_cofactor(K5):
    I = Ideal.from_generators(K5, [K5.rational(2), K5.element([1, 1])])
    r = K5.element([1, 1])
    cof = Ideal.principal(K5, r).divide(I)
    assert cof == Ideal.from_generators(K5, [K5.rational(3), K5.element([1, 1])])


def _reference_prime(C):
    """The Kummer-Dedekind prime whose ideal equals the integral ideal C, or None."""
    pk = prime_power(C.norm_int())
    if pk is None:
        return None
    p, k = pk
    for P in kummer_dedekind(p, C.K):
        if P.res_degree == k and P.to_ideal() == C:
            return P
    return None


def test_packed_combination_matches_the_plain_sum(K5, K21, K64, K180):
    # the packed draw has the plain sum's coordinates and, read from its
    # digits, the subresultant norm of the plain sum
    rng = random.Random(11)
    Q = NumberField([-1, 1])
    K15 = NumberField([1, -1, 0, 1, -1, 1, 0, -1, 1])  # Phi_15: the tower takes no step
    cases = [
        (K5, Ideal.from_generators(K5, [K5.rational(3), K5.element([1, 1])])),
        (K21, Ideal.principal(K21, K21.element([5, -2]))),
        (K64, Ideal.principal(K64, K64.element([rng.randint(-3, 3) for _ in range(32)]))),
        (K180, Ideal.principal(K180, K180.element([rng.randint(-2, 2) for _ in range(48)]))),
        (K15, Ideal.principal(K15, K15.element([rng.randint(-3, 3) for _ in range(8)]))),
        (Q, Ideal.principal(Q, Q.rational(-6))),
    ]
    for K, ideal in cases:
        basis = _basis(ideal)
        d = K.degree
        # the coordinate with the largest sum_j |b_j[i]| reaches the slot bound
        top = max(range(d), key=lambda i: sum(abs(b[i]) for b in basis))
        sign = [(b[top] > 0) - (b[top] < 0) for b in basis]
        for B in (1, 5, 20, 2**200):
            draws = [[B] * d, [-B] * d, [B * s for s in sign], [-B * s for s in sign]]
            draws += [[rng.randint(-B, B) for _ in range(d)] for _ in range(4)]
            # a reference norm at B = 2^200 takes 0.05 s in degree 32 and
            # 0.3 s in degree 48, so there one extreme-sign draw is normed
            normed = draws[3:4] if d >= 32 and B > 20 else draws
            for c in draws:
                r = combine(K, basis, c)
                plain = plain_combination(basis, c)
                if c in normed:
                    assert r.norm_int() == resultant_norm(K.element(plain)), (K, B, c)
                assert list(r.coords) == plain
                assert all(type(x) is int for x in r.coords)
            # the same kernel multiplies vectors by an element
            x = basis[-1]
            assert K.mul_vectors(x, draws) == [K.mul_coords(x, c) for c in draws]
        assert combine(K, basis, [0] * d) == K.zero()


def test_prime_cofactor_matches_kummer_dedekind(K5, K21):
    # small fields: the witness is exactly the factor of (p) equal to (r)/I;
    # Z[sqrt 5] is not maximal at 2, so its ideals stay away from 2
    Z5 = NumberField([-5, 0, 1])
    rng = random.Random(6)
    kinds = {"p | N(I)": 0, "k > 1": 0, "prime": 0}
    for K in (K5, K21, Z5):
        ideals = []
        for p in primerange(3 if K is Z5 else 2, 30):
            for P in kummer_dedekind(p, K):
                alpha = K.element([rng.randint(-4, 4), rng.randint(1, 4)])
                Q = P.to_ideal()
                ideals += [Q, Q * Q, Ideal.principal(K, alpha) * Q]
        for I in ideals:
            basis = _basis(I)
            for _ in range(20):
                r = combine(K, basis, draw_coefficients(rng, 6, K.degree))
                C = Ideal.principal(K, r) * I.inverse()
                want = _reference_prime(C)
                got = prime_cofactor(I, r)
                assert got == want, (K.poly, I, r.coords)
                if got is not None:
                    assert got.ram_index == want.ram_index
                    kinds["prime"] += 1
                    kinds["p | N(I)"] += I.norm_int() % got.p == 0
                    kinds["k > 1"] += got.res_degree > 1
    assert all(kinds.values()), kinds


def test_prime_cofactor_witness_is_the_cofactor(K5, K64, K180, fixtures_dir):
    # a draw w over the cofactor side (J, W) of I = u*J stands for r = u*w in
    # I: (w)/J is (r)/I, and every witness generates exactly that cofactor
    ideals = [load_ideal(fixtures_dir / "ideal_zeta64_switch.json", K64)]
    for K, p in ((K5, 3), (K64, 193), (K180, 181)):
        rng = random.Random(180)
        alpha = K.element([rng.randint(-3, 3) for _ in range(K.degree)])
        beta = K.element([1, -2] + [0] * (K.degree - 2))
        principal = Ideal.principal(K, alpha)
        times_prime = principal * kummer_dedekind(p, K)[0].to_ideal()
        ideals += [principal, times_prime, Ideal.principal(K, beta) * times_prime]
    for I in ideals:
        K = I.K
        u, cofactor = I._factors or (K.one(), I)
        J, W = lll_reduce(I)
        assert J is (cofactor or Ideal.ring(K))
        draws = substream(7, "witness")
        count = hits = 0
        while count < 30 or not hits:
            w = combine(K, W, draw_coefficients(draws, 5, K.degree))
            r = u * w
            witness = prime_cofactor(J, w)
            assert witness == prime_cofactor(I, r), (K.degree, I, count)
            if witness is not None:
                assert witness.to_ideal() == Ideal.principal(K, r) * I.inverse()
                hits += 1
            count += 1
            assert count < 400


def test_prime_cofactor_builds_no_lattice(monkeypatch, K180):
    # with the inverse and the HNF that membership reads built, a prime
    # cofactor is read without a lattice
    rng = random.Random(180)
    alpha = K180.element([rng.randint(-3, 3) for _ in range(K180.degree)])
    I = Ideal.principal(K180, alpha)
    I.inverse()
    I.cols
    basis = _basis(I)

    def refuse(self, vec):
        raise AssertionError("prime_cofactor inserted a lattice vector")

    monkeypatch.setattr(IntLattice, "add", refuse)
    # draw until the first hit, so that a cofactor is read at all
    draws = substream(3, "lattice-free")
    cofactors = (
        prime_cofactor(I, combine(K180, basis, draw_coefficients(draws, 5, K180.degree)))
        for _ in range(400)
    )
    assert any(c is not None for c in cofactors)


def test_prime_cofactor_needs_no_inverse_when_p_is_coprime(monkeypatch, K180):
    # p not dividing N(I) reads C from r alone: C + (p) = (r) + (p)
    rng = random.Random(180)
    alpha = K180.element([rng.randint(-3, 3) for _ in range(K180.degree)])
    I = Ideal.principal(K180, alpha)
    basis = _basis(I)

    def refuse(self):
        raise AssertionError("prime_cofactor computed an inverse")

    monkeypatch.setattr(Ideal, "inverse", refuse)
    _, witness = first_prime_cofactor(CofactorSide(I, basis), 5, substream(3, "no-inverse"), 200)
    assert witness is not None
    assert I.norm_int() % witness.p


def test_cyclotomic_switching_computes_no_resultant(monkeypatch, K64, K180, fixtures_dir):
    # x^32 + 1 and Phi_180 take every norm from their root tables, never
    # from the general path, the Bareiss determinant
    advice = load_advice(fixtures_dir / "advice_zeta180.json")
    rng = random.Random(180)
    alpha = K180.element([rng.randint(-3, 3) for _ in range(K180.degree)])

    def refuse(a):
        raise AssertionError("norm computed by Bareiss elimination")

    monkeypatch.setattr(nf, "bareiss", refuse)
    J = load_ideal(fixtures_dir / "ideal_zeta64_switch.json", K64)
    (stats,) = switch_stats(J, [10], trials=1, seed=801, cap=1000)
    assert stats.capped_trials == 0
    cfg = default_switch_config(K180, bound_B=5, seed=480)
    decision = decide_ideal(Ideal.principal(K180, alpha), advice, cfg)
    assert decision.verdict == YES
    assert decision.switches_used > 0


def test_decide_refuses_non_invertible_ideal():
    # (2, 1 + theta) has no inverse in Z[sqrt 5], so neither has its product
    # with a prime above 11, and the first prime-power draw must say so
    K = NumberField([-5, 0, 1])
    advice = build_advice(K, [[K.one(), K.zero(), K.one()]])
    I = Ideal.from_generators(K, [K.rational(2), K.element([1, 1])])
    I = I * kummer_dedekind(11, K)[0].to_ideal()
    for seed in range(5):
        with pytest.raises(NonInvertibleIdealError):
            decide_ideal(I, advice, default_switch_config(K, seed=seed))


def test_prime_cofactor_agrees_with_as_prime(K5):
    I = Ideal.from_generators(K5, [K5.rational(2), K5.element([1, 1])])
    _, basis = lll_reduce(I)
    rng = substream(5, "check")
    cfg = default_switch_config(K5, bound_B=6, seed=5)
    for _ in range(50):
        r, cof = _sample_switch(I, basis, cfg, rng)
        assert prime_cofactor(I, r) == _reference_prime(cof)


def test_decide_principal_by_construction(K5, advice20):
    cfg = default_switch_config(K5, bound_B=8, seed=1)
    d = decide_ideal(Ideal.principal(K5, K5.element([3, 1])), advice20, cfg)
    assert d.verdict == YES
    assert d.witness_prime is not None


def test_decide_nonprincipal_product(K5, advice20):
    I2 = Ideal.from_generators(K5, [K5.rational(2), K5.element([1, 1])])
    I5 = Ideal.from_generators(K5, [K5.rational(5), K5.gen()])
    ten = I2 * I5
    assert ten.norm() == 10
    cfg = default_switch_config(K5, bound_B=8, seed=2)
    assert decide_ideal(ten, advice20, cfg).verdict == NO


def test_decide_prime_input_fast_path(K5, advice20):
    P = _prime(K5, 29, (16, 1))
    cfg = default_switch_config(K5, bound_B=8, seed=3)
    d = decide_ideal(P.to_ideal(), advice20, cfg)
    assert d.verdict == YES
    assert d.switches_used == 0
    assert d.witness_prime == P


def test_decide_deterministic(K5, advice20):
    I = Ideal.principal(K5, K5.element([4, 3]))
    cfg = default_switch_config(K5, bound_B=8, seed=77)
    runs = {decide_ideal(I, advice20, cfg) for _ in range(3)}
    assert len(runs) == 1
    other = decide_ideal(
        Ideal.principal(K5, K5.element([4, 3])),
        advice20,
        SwitchConfig(bound_B=8, max_trials=cfg.max_trials, seed=78),
    )
    assert other.verdict == next(iter(runs)).verdict


def test_decide_class_invariance(K5, advice20):
    rng = random.Random(9)
    cfg = default_switch_config(K5, bound_B=8, seed=5)
    I2 = Ideal.from_generators(K5, [K5.rational(2), K5.element([1, 1])])
    base = {
        "I2": decide_ideal(I2, advice20, cfg).verdict,
        "ring": YES,
    }
    checked = 0
    while checked < 50:
        alpha = K5.element([rng.randint(-6, 6), rng.randint(-6, 6)])
        if alpha.is_zero():
            continue
        scaled = I2 * Ideal.principal(K5, alpha)
        assert decide_ideal(scaled, advice20, cfg).verdict == base["I2"]
        principal = Ideal.principal(K5, alpha)
        assert decide_ideal(principal, advice20, cfg).verdict == YES
        checked += 1


def test_decide_soundness_random_principal(K5, K21, advice20):
    rng = random.Random(10)
    advice84 = genus_advice(-84)
    for K, advice in ((K5, advice20), (K21, advice84)):
        cfg = default_switch_config(K, bound_B=8, seed=6)
        done = 0
        while done < 100:
            alpha = K.element([rng.randint(-9, 9), rng.randint(-9, 9)])
            if alpha.is_zero():
                continue
            d = decide_ideal(Ideal.principal(K, alpha), advice, cfg)
            assert d.verdict == YES, (K.poly, alpha.coords, d)
            done += 1


def test_decide_agrees_with_oracle_on_primes(K5, K21, advice20):
    advice84 = genus_advice(-84)
    for K, advice, disc in ((K5, advice20, -20), (K21, advice84, -84)):
        for p in primerange(2, 200):
            for P in kummer_dedekind(p, K):
                want = is_principal_quad(P.to_ideal(), disc)
                got = decide_prime_ideal(P, advice).verdict == YES
                assert got == want


def test_genus_advice_soundness_all_elementary2_discs():
    """Advice verdicts match the form oracle for four elementary-2 fields."""
    for disc in (-20, -84, -120, -132):
        advice = genus_advice(disc)
        K = advice.field
        for p in primerange(2, 1000):
            for P in kummer_dedekind(p, K):
                if P.norm() >= 1000:
                    continue
                got = decide_prime_ideal(P, advice).verdict == YES
                assert got == is_principal_quad(P.to_ideal(), disc), (disc, P)


def test_max_trials_exhaustion(K5, advice20):
    # (2) is not prime, so the switching loop runs; at B=2 many draws give
    # non-prime cofactors, so a one-trial budget fails for some seed
    two = Ideal.principal(K5, K5.rational(2))
    for seed in range(100):
        cfg = SwitchConfig(bound_B=2, max_trials=1, seed=seed)
        try:
            decide_ideal(two, advice20, cfg)
        except MaxTrialsExceededError as exc:
            assert exc.trials == 1 and exc.bound == 2
            break
    else:
        pytest.fail("no seed exhausted the trial budget")


def test_advice_equivalence_small(K5, advice20):
    """x^2+1 and x^2-x-1 give identical verdicts off the discriminant gates."""
    from dpip.advice import build_advice

    alt = build_advice(
        K5,
        [[K5.rational(-1), K5.rational(-1), K5.one()]],
        principal_test=lambda P: is_principal_quad(P.to_ideal(), -20),
    )
    for p in primerange(2, 500):
        for P in kummer_dedekind(p, K5):
            gated = any(
                element_in_prime(disc, P)
                for disc in list(advice20.disc_cache) + list(alt.disc_cache)
            )
            if gated:
                continue
            assert (
                decide_prime_ideal(P, advice20).verdict
                == decide_prime_ideal(P, alt).verdict
            )


def test_prime_cofactor_rejects_foreign_element_under_O():
    # python -O strips asserts; the membership check must still raise
    script = (
        "from dpip.decide import prime_cofactor\n"
        "from dpip.errors import NonDivisibleError\n"
        "from dpip.nf import NumberField, kummer_dedekind\n"
        "K = NumberField([5, 0, 1])\n"
        "I = kummer_dedekind(3, K)[0].to_ideal()\n"
        "try:\n"
        "    prime_cofactor(I, K.one())\n"
        "except NonDivisibleError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = str(Path(dpip.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_prime_cofactor_rejects_element_outside_the_ideal(K5):
    # N(r) = 21 is divisible by N(P) = 3 and 21/3 is prime, yet r is in the
    # other prime above 3, so the norms alone cannot refuse it
    I = kummer_dedekind(3, K5)[0].to_ideal()
    r = K5.element([-4, 1])
    assert not I.contains_element(r)
    with pytest.raises(NonDivisibleError):
        prime_cofactor(I, r)


def test_prime_cofactor_computes_the_norm_once(monkeypatch, K5):
    # (1 + theta) = P2 * P3: the cofactor of r = 1 + theta over P2 is P3,
    # and N(r) screens the draw; nothing after the screen may recompute it
    I = kummer_dedekind(2, K5)[0].to_ideal()
    I.inverse()
    r = K5.element([1, 1])
    calls = []
    bareiss = nf.bareiss

    def counted(a):
        calls.append(1)
        return bareiss(a)

    monkeypatch.setattr(nf, "bareiss", counted)
    assert prime_cofactor(I, r) == kummer_dedekind(3, K5)[0]
    assert len(calls) == 1


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so none may guard correctness;
    # the sources are read from src/dpip of this checkout, wherever the
    # imported package lives, and an empty glob fails
    paths = sorted((Path(__file__).resolve().parents[1] / "src" / "dpip").glob("*.py"))
    assert {"decide.py", "nf.py", "lll.py"} <= {path.name for path in paths}
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_no_sympy_mpmath_or_process_pool_import_at_module_level():
    # they are imported inside the functions that need them, so importing the
    # package, and a decision in a cyclotomic field, loads none of them; a
    # function body is not module level, a class body or an `if` block is
    paths = sorted((Path(__file__).resolve().parents[1] / "src" / "dpip").glob("*.py"))
    assert {"nf.py", "fppoly.py", "lll.py", "switching.py"} <= {path.name for path in paths}
    found = []
    for path in paths:
        stack = list(ast.parse(path.read_text(), filename=str(path)).body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                names = []
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] in ("sympy", "mpmath", "concurrent")
            ]
            stack.extend(ast.iter_child_nodes(node))
    assert found == []


def test_prime_cofactor_refuses_elements_outside_a_factored_ideal_under_O():
    # (3 + theta) keeps its factors; 1 fails the norm screen, and 6 - 2*theta
    # (norm 56 = 14 * 2^2, in the conjugate prime above 7) reaches membership,
    # which reads the HNF of (3 + theta)
    script = (
        "from dpip.decide import prime_cofactor\n"
        "from dpip.errors import NonDivisibleError\n"
        "from dpip.nf import Ideal, NumberField\n"
        "K = NumberField([5, 0, 1])\n"
        "I = Ideal.principal(K, K.element([3, 1]))\n"
        "for r in (K.one(), K.element([6, -2])):\n"
        "    try:\n"
        "        prime_cofactor(I, r)\n"
        "    except NonDivisibleError:\n"
        "        continue\n"
        "    raise SystemExit(1)\n"
        "raise SystemExit(0 if I._cols == ((1, 5), (0, 14)) else 2)\n"
    )
    src = str(Path(dpip.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_decide_factored_ideals_builds_no_lattice(monkeypatch, K180, fixtures_dir):
    # (alpha) and (alpha)*P decide from their factors: no HNF, no inverse
    advice = load_advice(fixtures_dir / "advice_zeta180.json")
    rng = random.Random(180)
    alpha = K180.element([rng.randint(-3, 3) for _ in range(K180.degree)])
    P = next(
        F for F in kummer_dedekind(181, K180) if decide_prime_ideal(F, advice).verdict == NO
    ).to_ideal()
    inputs = [(Ideal.principal(K180, alpha), YES), (Ideal.principal(K180, alpha) * P, NO)]

    def refuse(self, vec):
        raise AssertionError("a lattice vector was inserted")

    monkeypatch.setattr(IntLattice, "add", refuse)
    cfg = default_switch_config(K180, bound_B=5, seed=480)
    for ideal, verdict in inputs:
        decision = decide_ideal(ideal, advice, cfg)
        assert decision.verdict == verdict and decision.switches_used > 0
        assert ideal.norm_int() % decision.witness_prime.p
        assert ideal._cols is None and ideal._inv is None


def test_decide_factored_ideals_run_no_bareiss(monkeypatch, K180, fixtures_dir):
    # the span check takes det W on J's side by one modular elimination,
    # and the draws switch J, so no beta = N(alpha)/alpha is computed: a
    # decision runs no Bareiss elimination and one span-check determinant
    advice = load_advice(fixtures_dir / "advice_zeta180.json")
    rng = random.Random(181)
    alpha = K180.element([rng.randint(-3, 3) for _ in range(K180.degree)])
    P = kummer_dedekind(181, K180)[1].to_ideal()
    calls = {"bareiss": 0, "quotient": 0, "span_det": 0}

    def counted(name, fn):
        def run(a):
            calls[name] += 1
            return fn(a)

        return run

    monkeypatch.setattr(intlattice, "bareiss", counted("bareiss", intlattice.bareiss))
    monkeypatch.setattr(nf, "bareiss", counted("quotient", nf.bareiss))
    monkeypatch.setattr(lll, "modular_det", counted("span_det", lll.modular_det))
    cfg = default_switch_config(K180, bound_B=5, seed=480)
    for ideal in (Ideal.principal(K180, alpha), Ideal.principal(K180, alpha) * P):
        decision = decide_ideal(ideal, advice, cfg)
        assert decision.switches_used > 0 and ideal._cols is None
        assert calls == {"bareiss": 0, "quotient": 0, "span_det": 1}
        calls["span_det"] = 0


def test_decide_then_inverse_computes_no_norm_quotient(monkeypatch, K180, fixtures_dir):
    # neither the decision nor the inverse of (alpha), which solves the
    # congruences of its one generator, computes beta = N(alpha)/alpha, the
    # adjugate column of a Bareiss elimination; membership in (alpha) reads
    # its HNF
    advice = load_advice(fixtures_dir / "advice_zeta180.json")
    rng = random.Random(180)
    alpha = K180.element([rng.randint(-3, 3) for _ in range(K180.degree)])
    calls = []
    bareiss = intlattice.bareiss

    def counted(a):
        calls.append(a)
        return bareiss(a)

    monkeypatch.setattr(intlattice, "bareiss", counted)
    monkeypatch.setattr(nf, "bareiss", counted)
    I = Ideal.principal(K180, alpha)
    decide_ideal(I, advice, default_switch_config(K180, bound_B=5, seed=480))
    inv = I.inverse()
    assert I * inv == Ideal.ring(K180)
    assert I.contains_element(alpha) and not I.contains_element(K180.one())
    assert calls == []
    monkeypatch.undo()
    assert inv == principal_inverse(alpha)


def test_ideal_norm_reads_the_pivots_once(K64, fixtures_dir):
    # N(I) screens every draw; the d pivots of an HNF ideal are read once
    J = load_ideal(fixtures_dir / "ideal_zeta64_switch.json", K64)
    n = J.norm_int()
    _, basis = lll_reduce(J)
    draws = substream(5, "pivots")
    rs = []
    while len(rs) < 40:
        r = combine(K64, basis, draw_coefficients(draws, 5, K64.degree))
        if prime_power(abs(r.norm_int()) // n) is None:
            rs.append(r)
    reads = []

    class Counted(tuple):
        def __getitem__(self, i):
            reads.append(i)
            return tuple.__getitem__(self, i)

    I = load_ideal(fixtures_dir / "ideal_zeta64_switch.json", K64)
    I._cols = tuple(Counted(c) for c in I.cols)
    for r in rs:
        assert prime_cofactor(I, r) is None
    assert I.norm_int() == n
    assert reads == list(range(K64.degree))
