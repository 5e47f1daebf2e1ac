"""The principality decision engine.

A prime ideal is decided directly from the advice: primes dividing some
subfield-polynomial discriminant are answered by membership in the
exceptional set S, every other prime is principal exactly when each
subfield polynomial splits completely in its residue field. A general
ideal is first switched to a prime: draw r in I with uniform coefficients
over an LLL-reduced basis and replace I by (r)/I, which lies in the inverse
ideal class (so shares the answer), until the cofactor is prime. For I =
u*J the draw is r = u*w with w over J's reduced basis W (`lll_reduce`), and
(r)/I = (w)/J with N(r)/N(I) = N(w)/N(J), so the decision switches J by w
and never forms r or N(u)/u.

All randomness is drawn from per-run substreams derived by hashing
(seed, labels), so decisions are reproducible bit for bit and independent
trials can run concurrently.
"""

import hashlib
import random
from dataclasses import dataclass, replace
from operator import mul

from .errors import FieldMismatchError, MaxTrialsExceededError, NonDivisibleError
from .lll import lll_reduce
from .nf import (
    _PackedElement,
    _packed_basis,
    as_prime_ideal,
    prime_from_generators,
    prime_power,
)
from .residue import element_in_prime, reduce_poly_mod_prime, splits_completely

YES = "Yes"
NO = "No"

REASON_IN_S = "in-S"
REASON_NOT_IN_S = "not-in-S"
REASON_NON_SPLIT = "non-split"
REASON_ALL_SPLIT = "all-split"


@dataclass(frozen=True)
class Decision:
    """A verdict, its reason, the switching draws it took and the prime it
    was read from. The witness is prime by `prime_power`, which accepts a p
    from `nf._MR_EXACT` (about 3.3 * 10^24) up on the BPSW test: no
    counterexample is known, but it is not a proof, so such a verdict rests
    on BPSW."""

    verdict: str
    reason: str
    switches_used: int = 0
    witness_prime: object = None  # PrimeIdeal when the switching engine ran
    failed_subfield: int | None = None

    def __post_init__(self):
        ok = {
            REASON_IN_S: YES,
            REASON_ALL_SPLIT: YES,
            REASON_NOT_IN_S: NO,
            REASON_NON_SPLIT: NO,
        }
        if self.reason not in ok:
            raise ValueError(f"unknown reason {self.reason!r}")
        if ok[self.reason] != self.verdict:
            raise ValueError(f"reason {self.reason} inconsistent with {self.verdict}")


@dataclass(frozen=True)
class SwitchConfig:
    bound_B: int
    max_trials: int
    seed: int

    def __post_init__(self):
        if self.bound_B < 1:
            raise ValueError("bound_B must be at least 1")
        if self.max_trials < 1:
            raise ValueError("max_trials must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


def default_switch_config(K, bound_B=16, seed=42, max_trials=None):
    """Caller-friendly defaults: small bound, 64*d trial budget."""
    if max_trials is None:
        max_trials = 64 * K.degree
    return SwitchConfig(bound_B=bound_B, max_trials=max_trials, seed=seed)


def conjectural_bound(K):
    """The conservative coefficient bound 2^d * |disc|."""
    return 2**K.degree * abs(K.disc)


def substream(seed, *labels):
    """An independent deterministic RNG for (seed, labels)."""
    key = ":".join(str(x) for x in (seed, *labels))
    digest = hashlib.sha256(key.encode()).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


def decide_prime_ideal(prime, advice):
    """Decide a prime ideal from the advice bundle.

    Discriminant gates run first: a prime dividing some disc(f_i) is
    principal iff it belongs to S. Otherwise the verdict is Yes exactly
    when every subfield polynomial splits completely mod the prime.
    """
    if prime.K != advice.field:
        raise FieldMismatchError("prime ideal does not belong to the advice field")
    for disc in advice.disc_cache:
        if element_in_prime(disc, prime):
            if prime in advice.S:
                return Decision(YES, REASON_IN_S)
            return Decision(NO, REASON_NOT_IN_S)
    for idx, (_, poly) in enumerate(advice.subfields):
        g = reduce_poly_mod_prime(list(poly), prime)
        if not splits_completely(g, prime.p, prime.gen_poly):
            return Decision(NO, REASON_NON_SPLIT, failed_subfield=idx)
    return Decision(YES, REASON_ALL_SPLIT)


def draw_coefficients(rng, bound, count):
    """count integers uniform on [-bound, bound], not all zero.

    Each is drawn the way rng.randrange(-bound, bound + 1) draws it: k-bit
    values from getrandbits, k the bit length of 2*bound + 1, redrawn until
    one is below 2*bound + 1, then shifted by -bound. The stream is the
    same, without randrange's per-call argument checks."""
    width = 2 * bound + 1
    k = width.bit_length()
    bits = rng.getrandbits
    while True:
        coeffs = []
        for _ in range(count):
            r = bits(k)
            while r >= width:
                r = bits(k)
            coeffs.append(r - bound)
        if any(coeffs):
            return coeffs


def _combiner(K, packed):
    """c -> w = sum c_j basis_j for a basis packed by `nf._packed_basis`, as
    one sum of products. w is a `nf._PackedElement`: its norm reads these
    digits as they are, and its coordinates are unpacked only if something
    reads them."""
    cols, offset, W = packed
    return lambda coeffs: _PackedElement(K, sum(map(mul, coeffs, cols), offset), W)


class CofactorSide:
    """The cofactor side (J, W) of an ideal (`lll_reduce`), with W packed
    once per bound for the draws over it (`nf._packed_basis`). It holds J
    and plain integers, so it pickles with its packings."""

    __slots__ = ("J", "W", "_packed")

    def __init__(self, J, W):
        self.J, self.W, self._packed = J, W, {}

    def combiner(self, bound):
        """`_combiner` for draws over W with coefficients in [-bound, bound]."""
        if bound not in self._packed:
            self._packed[bound] = _packed_basis(self.W, bound)
        return _combiner(self.J.K, self._packed[bound])


def cofactor_side(ideal):
    """The CofactorSide of `lll_reduce(ideal)`, cached on the ideal, so that
    every switching loop on it at one bound shares one packed basis."""
    if ideal._side is None:
        ideal._side = CofactorSide(*lll_reduce(ideal))
    return ideal._side


def prime_cofactor(ideal, r):
    """The prime ideal C = (r)/I when that cofactor is prime, else None.

    Non-prime-power norms N(C) = |N(r)| / N(I) = p^k are rejected from the
    norms alone. Otherwise `prime_from_generators` reads C from
    Z[theta]-generators of C + (p), and no lattice is built: r alone when p
    does not divide N(I), since then I + (p) = (1) and C + (p) = (r) + (p);
    else r * gamma / den for the generators gamma / den of I^-1. A cofactor
    of norm p (k = 1) is prime by its norm, so no gcd runs here: its form
    (p, theta - a) is taken when a decision first reads it.
    Raises NonDivisibleError when r is not in I (N(I) not dividing N(r)
    proves it from the norms alone), and NonInvertibleIdealError when I
    has no inverse. Only the p | N(I) branch needs the inverse, and a
    non-invertible I never leaves it: at a prime q where I is not locally
    principal, (r) is strictly smaller than I, so q divides N(I) and
    N(C) = p^k, and p = q.
    """
    n = ideal.norm_int()
    n2, rem = divmod(abs(r.norm_int()), n)
    if rem:
        raise NonDivisibleError("sampled element is not in the ideal")
    pk = prime_power(n2)
    if pk is None:
        return None
    if not ideal.contains_element(r):
        raise NonDivisibleError("sampled element is not in the ideal")
    K = ideal.K
    p, k = pk
    if n % p:
        gens = [r.coords]
    else:
        inv = ideal.inverse()
        # exact: r in the invertible I makes r * I^-1 integral
        gens = [
            [x // inv.denom for x in v]
            for v in K.mul_vectors(r.coords, inv._generators())
        ]
    return prime_from_generators(K, p, k, gens)


def first_prime_cofactor(side, bound, rng, limit):
    """The switching loop: (draws, prime cofactor) for the first of at most
    `limit` draws w = sum c_i W_i, c uniform on [-bound, bound]^d and W the
    coordinate vectors of a basis of J, the cofactor side (J, W), whose
    cofactor (w)/J is prime, or (limit, None) when none is."""
    J = side.J
    combine = side.combiner(bound)
    d = J.K.degree
    for draw in range(1, limit + 1):
        witness = prime_cofactor(J, combine(draw_coefficients(rng, bound, d)))
        if witness is not None:
            return draw, witness
    return limit, None


def decide_ideal(ideal, advice, cfg):
    """Decide a general integral ideal, switching to a prime if needed.

    Prime inputs take the direct path with zero switches. Otherwise the
    cofactor is redrawn until prime — it lies in the inverse class, so its
    verdict is the input's verdict — and the prime path finishes. The draws
    run on the cofactor side (J, W) of `lll_reduce` (`cofactor_side`): w
    over W, with cofactor (w)/J, which for I = u*J is (u*w)/I.
    Raises MaxTrialsExceededError after cfg.max_trials fruitless draws.
    """
    if ideal.K != advice.field:
        raise FieldMismatchError("ideal does not belong to the advice field")
    if not ideal.is_integral():
        raise ValueError("decision requires an integral ideal")
    direct = as_prime_ideal(ideal)
    if direct is not None:
        base = decide_prime_ideal(direct, advice)
        return replace(base, witness_prime=direct, switches_used=0)
    rng = substream(cfg.seed, "decide")
    draws, witness = first_prime_cofactor(cofactor_side(ideal), cfg.bound_B, rng, cfg.max_trials)
    if witness is None:
        raise MaxTrialsExceededError(cfg.max_trials, cfg.bound_B)
    base = decide_prime_ideal(witness, advice)
    return replace(base, witness_prime=witness, switches_used=draws)
