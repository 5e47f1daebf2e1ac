"""Primality and perfect powers of integers, ported from sympy with its
semantics, and the package's one trial division; the tests check each
function against sympy's.

`isprime` is exact below psi13 = MR_EXACT ~ 3.3 * 10^24: there it is the
strong test on the first 13 prime bases, which no composite below psi13
passes (Sorenson and Webster, Math. Comp. 86, 2017). From psi13 up it is
the strong BPSW test (Baillie and Wagstaff, Math. Comp. 35, 1980), which
has no known counterexample but is no proof.
"""

from math import gcd, isqrt, prod

from .errors import GaveUpError

SMALL_PRIMES = tuple(p for p in range(2, 1000) if all(p % q for q in range(2, isqrt(p) + 1)))
SMALL_PRIMORIAL = prod(SMALL_PRIMES)
_SMALL_SET = frozenset(SMALL_PRIMES)
MR_EXACT = 3317044064679887385961981  # psi13
TRIAL_LIMIT = 2**16  # the trial division of `prime_factors` stops here


def prime_factors(m):
    """The primes dividing m > 0 in increasing order, by trial division by 2
    and the odd numbers below TRIAL_LIMIT. A cofactor left over is taken
    only when every candidate up to its square root was tried, which proves
    it prime; otherwise GaveUpError is raised."""
    out, p = [], 2
    while p * p <= m and p < TRIAL_LIMIT:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1 + (p > 2)
    if p * p <= m:
        raise GaveUpError(
            f"trial division below {TRIAL_LIMIT} leaves a {m.bit_length()}-bit cofactor unfactored"
        )
    return out + [m] * (m > 1)


def isprime(n):
    """Whether n is prime: no factor below 1000 proves n < 1009^2 prime,
    then the strong test on the first 13 prime bases, or BPSW from
    MR_EXACT up."""
    if n < 1000:
        return n in _SMALL_SET
    if gcd(n, SMALL_PRIMORIAL) != 1:
        return False
    if n < 1018081:
        return True
    if n < MR_EXACT:
        return strong_prp(n, SMALL_PRIMES[:13])
    return strong_prp(n, (2,)) and strong_lucas_prp(n)


def strong_prp(n, bases):
    """The strong (Miller-Rabin) test of an odd n to every base 1 < a < n."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    t = (n - 1) >> s
    for a in bases:
        x = pow(a, t, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def jacobi(a, n):
    """The Jacobi symbol (a/n) for an odd n > 0."""
    a %= n
    j = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                j = -j
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            j = -j
        a %= n
    return j if n == 1 else 0


def strong_lucas_prp(n):
    """The strong Lucas test with Selfridge's parameters, as sympy's
    `is_strong_lucas_prp`: D the first of 5, -7, 9, -11, ... with (D/n) =
    -1, P = 1 and Q = (1 - D)/4; with n + 1 = 2^s k, k odd, n passes when
    U_k = 0 or V_(2^r k) = 0 (mod n) for some r < s. A square n has no such
    D, and is caught at D = 13."""
    if n < 3 or not n & 1:
        return n == 2
    D = 5
    while (j := jacobi(D, n)) != -1:
        if (j == 0 and D % n) or (D == 13 and isqrt(n) ** 2 == n):
            return False
        D = -D - 2 if D > 0 else 2 - D
    s = ((n + 1) & (-n - 1)).bit_length() - 1
    U, V, Qk = _lucas_ladder(n, (1 - D) // 4, (n + 1) >> s)
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def _lucas_ladder(n, Q, k):
    """(U_k, V_k, Q^k) mod n for P = 1, by sympy's ladder: U_2i = U_i V_i,
    V_2i = V_i^2 - 2Q^i, and per set bit U_(i+1) = (U_i + V_i)/2 and
    V_(i+1) = U_(i+1) - 2Q U_i."""
    U, V, Qk = 1, 1, Q % n
    Q2 = 2 * Q
    for b in bin(k)[3:]:
        U = U * V % n
        V = (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if b == "1":
            U, V = U + V, Q2 * U
            if U & 1:
                U += n
            U >>= 1
            V = U - V
            Qk = Qk * Q % n
    return U % n, V % n, Qk


def iroot(n, k):
    """floor(n^(1/k)) for n >= 0, k >= 1: integer Newton from 2^ceil(bits/k),
    which is above the root; each step from above the root falls and stays
    at or above it (AM-GM), until the next one would not fall."""
    if k == 1 or n < 2:
        return n
    if k == 2:
        return isqrt(n)
    x = 1 << -(-n.bit_length() // k)
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x


def perfect_power(n):
    """(b, e) with n = b^e for the largest e >= 2, or None, for n >= 2, as
    sympy's `perfect_power`. Each prime exponent q takes roots while it
    can, so the exponents taken multiply to the largest. A prime p < 1000
    dividing n leaves only the q | v_p(n); with none, b > 1000 and q <
    bits(n) / 9.96. An odd square is 1 mod 8."""
    g = gcd(n, SMALL_PRIMORIAL)
    if g > 1:
        p = next(q for q in SMALL_PRIMES if g % q == 0)
        v, m = 0, n
        while m % p == 0:
            m //= p
            v += 1
        exps = prime_factors(v)
    else:
        exps = [q for q in range(2, n.bit_length() // 9 + 1) if isprime(q)]
    b, e = n, 1
    for q in exps:
        if q == 2 and b & 7 in (3, 5, 7):
            continue
        while (r := iroot(b, q)) ** q == b:
            b, e = r, e * q
    return (b, e) if e > 1 else None
