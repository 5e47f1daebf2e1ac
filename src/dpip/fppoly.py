"""Dense polynomial arithmetic over prime fields F_p.

Polynomials are lists/tuples of ints indexed by degree (little-endian) with
entries reduced into [0, p). The zero polynomial is the empty list. Only the
handful of operations the rest of the package needs live here. A quadratic
over F_p with p odd is factored from a square root of its discriminant mod
p, taken by Tonelli-Shanks; every other polynomial is factored by sympy's
galoistools, imported when it first runs, and only for p below
GF_FACTOR_LIMIT (about 2^1024). Irreducibility and multiplicities are read
from a factorization (`nf.kummer_dedekind`).
"""

from .errors import DpipError

# sympy's random polynomials take float(p), which overflows from here on
GF_FACTOR_LIMIT = 2**1024 - 2**970


def gf_factor(a, p):
    """sympy's factorization over F_p of a big-endian a: (lead, [(factor,
    exponent)]), imported on first use."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor

    return gf_factor(a, p, ZZ)


def trim(a):
    """Strip leading (high-degree) zeros in place and return the list: 0
    for a coefficient in F_p, [] for one in F_p[y]/(h) (`residue`)."""
    while a and not a[-1]:
        a.pop()
    return a


def from_ints(coeffs, p):
    return trim([int(c) % p for c in coeffs])


def deg(a):
    return len(a) - 1


def add(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return trim(out)


def sub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return trim(out)


def mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return trim([c % p for c in out])


def scale(a, s, p):
    s %= p
    return trim([(c * s) % p for c in a])


def monic(a, p):
    if not a:
        return []
    lead = a[-1]
    if lead == 1:
        return list(a)
    inv = pow(lead, -1, p)
    return scale(a, inv, p)


def divmod_(a, b, p):
    """Quotient and remainder of a by b (b nonzero)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    if da < db:
        return [], trim(a)
    inv = pow(b[-1], -1, p)
    q = [0] * (da - db + 1)
    for k in range(da - db, -1, -1):
        c = (a[k + db] * inv) % p
        if c:
            q[k] = c
            for j in range(db + 1):
                a[k + j] = (a[k + j] - c * b[j]) % p
    return trim(q), trim(a[:db])


def mod(a, b, p):
    return divmod_(a, b, p)[1]


def gcd(a, b, p):
    """Monic gcd."""
    a, b = list(a), list(b)
    while b:
        a, b = b, mod(a, b, p)
    return monic(a, p)


def xgcd(a, b, p):
    """Extended gcd: returns (g, u, v) with u*a + v*b = g, g monic."""
    r0, r1 = list(a), list(b)
    u0, u1 = [1], []
    v0, v1 = [], [1]
    while r1:
        q, r = divmod_(r0, r1, p)
        r0, r1 = r1, r
        u0, u1 = u1, sub(u0, mul(q, u1, p), p)
        v0, v1 = v1, sub(v0, mul(q, v1, p), p)
    if not r0:
        return [], u0, v0
    inv = pow(r0[-1], -1, p)
    return scale(r0, inv, p), scale(u0, inv, p), scale(v0, inv, p)


def factor(a, p):
    """Factor a over F_p into monic irreducibles with multiplicities.

    The coefficients are reduced mod p first, so a leading coefficient
    divisible by p drops; the reduced a must have degree >= 1. Beyond a
    quadratic at odd p, p must lie below GF_FACTOR_LIMIT (DpipError
    otherwise). Returns [(coeffs, exponent)] sorted by (degree,
    coefficients).
    """
    a = from_ints(a, p)
    if deg(a) < 1:
        raise ValueError(f"nothing to factor: degree {deg(a)} mod {p}")
    if deg(a) == 2 and p != 2:
        return _factor_quadratic(monic(a, p), p)
    if p >= GF_FACTOR_LIMIT:
        raise DpipError(f"factoring a polynomial of degree {deg(a)} mod p needs p < 2^1024 - 2^970")
    _, factors = gf_factor(a[::-1], p)
    out = []
    for fac, e in factors:
        low = tuple(int(c) % p for c in reversed(fac))
        out.append((low, int(e)))
    out.sort(key=lambda t: (len(t[0]), t[0]))
    return out


def _factor_quadratic(a, p):
    """`factor` of a monic x^2 + bx + c over F_p, p odd, by its
    discriminant D = b^2 - 4c: a double root -b/2 when D = 0, irreducible
    when Euler's criterion D^((p-1)/2) = 1 fails, and otherwise the roots
    (-b +- s)/2 for a square root s of D mod p (`sqrt_residue`)."""
    c, b, _ = a
    D = (b * b - 4 * c) % p
    half = (p + 1) // 2  # 1/2 mod p
    if D == 0:
        return [((b * half % p, 1), 2)]
    if pow(D, (p - 1) // 2, p) != 1:
        return [(tuple(a), 1)]
    s = sqrt_residue(D, p)
    if s * s % p != D:
        raise ArithmeticError(f"no square root of {D} mod {p}")
    # x - (-b -+ s)/2 = x + (b +- s)/2
    roots = sorted(((b + s) * half % p, (b - s) * half % p))
    return [((r, 1), 1) for r in roots]


def sqrt_residue(a, p):
    """A square root of a quadratic residue a mod an odd prime p, by
    Tonelli-Shanks (Cohen, GTM 138, Algorithm 1.5.1) on p - 1 = 2^e q, q
    odd: x = a^((q+1)/2) and t = a^q have x^2 = a t, and while t != 1 a
    power b of c = z^q, z a non-residue, of the order 2^k > 1 of t has
    b^2 t of lower order, so x b keeps x^2 = a t. It gives 0 for a = 0, and
    for a non-residue some x with x^2 != a, which the caller must check."""
    e = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> e
    x, t = pow(a, (q + 1) // 2, p), pow(a, q, p)
    if t != 1:
        z = 2
        while pow(z, (p - 1) // 2, p) == 1:
            z += 1
        c = pow(z, q, p)
        while t != 1:
            k, t2 = 0, t
            while t2 != 1 and k < e:
                t2 = t2 * t2 % p
                k += 1
            if k == e:  # a = 0, or no residue
                break
            b = pow(c, 1 << (e - k - 1), p)
            x, c = x * b % p, b * b % p
            t, e = t * c % p, k
    return x
