import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dpip.advice import load_advice
from dpip.decide import NO, decide_prime_ideal
from dpip.nf import Ideal, NumberField, kummer_dedekind

FIXTURES = Path(__file__).parent.parent / "fixtures"


@pytest.fixture(scope="session")
def K5():
    """Q(sqrt(-5)) in its monogenic presentation x^2 + 5."""
    return NumberField([5, 0, 1])


@pytest.fixture(scope="session")
def K21():
    """Q(sqrt(-21)), discriminant -84."""
    return NumberField([21, 0, 1])


@pytest.fixture(scope="session")
def Ki():
    """Q(i)."""
    return NumberField([1, 0, 1])


@pytest.fixture(scope="session")
def K64():
    """The degree-32 cyclotomic field Q[z]/(z^32 + 1)."""
    return NumberField([1] + [0] * 31 + [1])


@pytest.fixture(scope="session")
def K180():
    """The degree-48 cyclotomic field of conductor 180."""
    coeffs = [0] * 49
    for i, c in [(48, 1), (42, 1), (30, -1), (24, -1), (18, -1), (6, 1), (0, 1)]:
        coeffs[i] = c
    return NumberField(coeffs)


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def pool180(K180):
    """(advice, ideals): the zeta180 advice and the 24 inputs of the
    degree-48 bench pool, drawn as the pool draws them: 21 (alpha), and
    every eighth one (alpha) * P for a non-principal P above 181."""
    advice = load_advice(FIXTURES / "advice_zeta180.json")
    non_principal = [P for P in kummer_dedekind(181, K180) if decide_prime_ideal(P, advice).verdict == NO]
    rng = random.Random(180)
    ideals = []
    for j in range(24):
        while True:
            alpha = [rng.randint(-3, 3) for _ in range(K180.degree)]
            if any(alpha):
                break
        ideal = Ideal.principal(K180, K180.element(alpha))
        if j % 8 == 7:
            ideal = ideal * non_principal[rng.randrange(len(non_principal))].to_ideal()
        ideals.append(ideal)
    return advice, ideals
