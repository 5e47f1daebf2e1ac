"""The residue field O_K/P of a prime P and the splitting test.

O_K/P = F_p[y]/(h) for P = (p, h(theta)), h = `PrimeIdeal.gen_poly`
(monic, irreducible mod p, of degree f). An element is a trimmed `fppoly`
list of degree < f, the image c(y) mod (h, p) of c(theta), and a
polynomial over the field is a little-endian list of such lists. The key
operation is the complete-splitting predicate: a monic squarefree g of
degree n splits into n distinct linear factors over F_q, q = p^f, exactly
when x^q = x (mod g). The power x^q is taken left to right over the bits
of q: each step squares, and a set bit multiplies the power r so far by
x, which shifts the coefficients; as deg(x r) <= deg g and g is monic,
one step in place, subtracting the top coefficient times g's nonzero
lower terms, reduces it. Every other reduction pops the leading term that cancels and subtracts
only the modulus's nonzero lower terms, so for x^n - b each reduced degree
costs one multiply-subtract.
"""

from . import fppoly
from .errors import SquarefreeViolationError


def _mul(a, b, p, h):
    return fppoly.mod(fppoly.mul(a, b, p), h, p)


def _inv(a, p, h):
    g, _, v = fppoly.xgcd(h, a, p)
    if len(g) != 1:
        raise ZeroDivisionError("residue is not invertible")
    return fppoly.mod(v, h, p)


def _rp_mul(a, b, p, h):
    if not a or not b:
        return []
    out = [[]] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = fppoly.add(out[i + j], _mul(ai, bj, p, h), p)
    return fppoly.trim(out)


def _rp_mod(a, m, p, h):
    """Remainder of a modulo m (m with invertible leading coefficient)."""
    a = list(a)
    dm = len(m) - 1
    lead_inv = _inv(m[-1], p, h)
    low = [(j, mj) for j, mj in enumerate(m[:-1]) if mj]
    while len(a) > dm:
        c = _mul(a.pop(), lead_inv, p, h)
        k = len(a) - dm
        for j, mj in low:
            a[k + j] = fppoly.sub(a[k + j], _mul(c, mj, p, h), p)
        fppoly.trim(a)
    return a


def _rp_gcd(a, b, p, h):
    a, b = list(a), list(b)
    while b:
        a, b = b, _rp_mod(a, b, p, h)
    return a


def residue_of(elem, prime):
    """The image of an element of O_K in O_K/P."""
    return fppoly.mod(fppoly.from_ints(elem.coords, prime.p), prime.gen_poly, prime.p)


def element_in_prime(elem, prime):
    """Membership of an element in a prime ideal, via its image."""
    return not residue_of(elem, prime)


def reduce_poly_mod_prime(coeffs, prime):
    """The images in O_K/P of the coefficients of a monic polynomial over
    O_K, which are those of a monic polynomial of the same degree."""
    out = [residue_of(c, prime) for c in coeffs]
    if not out or out[-1] != [1]:
        raise ValueError("polynomial must be monic")
    return out


def splits_completely(g, p, h):
    """Does the monic squarefree g over F_p[y]/(h) factor into deg(g)
    distinct linear parts?

    Decided by x^q = x (mod g). The squarefree precondition is enforced:
    a nontrivial gcd(g, g') means the caller's discriminant gate failed,
    which is reported rather than repaired.
    """
    if len(h) < 2 or h[-1] % p != 1:
        raise ValueError("modulus must be monic of degree >= 1")
    if len(g) < 2 or g[-1] != [1]:
        raise ValueError("splitting test needs a monic polynomial of degree >= 1")
    deriv = fppoly.trim([fppoly.scale(c, i, p) for i, c in enumerate(g)][1:])
    if len(_rp_gcd(g, deriv, p, h)) != 1:
        raise SquarefreeViolationError(
            "polynomial shares a factor with its derivative"
        )
    n = len(g) - 1
    low = [(j, c) for j, c in enumerate(g[:-1]) if c]
    x = _rp_mod([[], [1]], g, p, h)
    xq = x
    for bit in bin(p ** (len(h) - 1))[3:]:
        xq = _rp_mod(_rp_mul(xq, xq, p, h), g, p, h)
        if bit == "1" and xq:
            xq.insert(0, [])
            if len(xq) > n:  # x^n = -(g - x^n)
                top = xq.pop()
                for j, c in low:
                    xq[j] = fppoly.sub(xq[j], _mul(top, c, p, h), p)
                fppoly.trim(xq)
    return xq == x
