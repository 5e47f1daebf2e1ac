"""Arithmetic in residue fields O_K/P = F_{p^f} and the splitting test.

Residue field elements are tuples of ints (coefficients of a polynomial in
the class of theta, reduced mod the prime's gen_poly and p). The key
operation is the complete-splitting predicate: a monic squarefree g of
degree n splits into n distinct linear factors over F_q exactly when
x^q = x (mod g). The power x^q is taken left to right over the bits of q:
each step squares, and a set bit multiplies by x, which shifts the
coefficients; as deg(x h) <= deg g and g is monic, one step in place,
subtracting the top coefficient times g's nonzero lower terms, reduces it.
Every other reduction pops the leading term that cancels and subtracts
only the modulus's nonzero lower terms, so for x^n - b each reduced degree
costs one multiply-subtract.
"""

from . import fppoly
from .errors import SquarefreeViolationError


class ResidueField:
    """F_{p^f} presented as F_p[y]/(modulus), modulus monic irreducible mod p."""

    __slots__ = ("p", "f", "modulus", "q")

    def __init__(self, p, modulus):
        self.p = int(p)
        self.modulus = tuple(int(c) % self.p for c in modulus)
        if not self.modulus or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        self.f = len(self.modulus) - 1
        if self.f < 1:
            raise ValueError("modulus must have degree >= 1")
        self.q = self.p**self.f

    # elements are int tuples of length < f+1 semantics: little-endian, trimmed
    def zero(self):
        return ()

    def one(self):
        return (1,)

    def from_poly(self, coeffs):
        """Image of an integer polynomial in theta under theta -> y."""
        return tuple(fppoly.mod(fppoly.from_ints(coeffs, self.p), list(self.modulus), self.p))

    def add(self, a, b):
        return tuple(fppoly.add(list(a), list(b), self.p))

    def sub(self, a, b):
        return tuple(fppoly.sub(list(a), list(b), self.p))

    def mul(self, a, b):
        prod = fppoly.mul(list(a), list(b), self.p)
        return tuple(fppoly.mod(prod, list(self.modulus), self.p))

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero residue")
        g, _, v = fppoly.xgcd(list(self.modulus), list(a), self.p)
        if fppoly.deg(g) != 0:
            raise ZeroDivisionError("element is not invertible")
        return tuple(fppoly.mod(v, list(self.modulus), self.p))

    def scalar(self, a, n):
        return tuple(fppoly.scale(list(a), n, self.p))

    def __eq__(self, other):
        return (
            isinstance(other, ResidueField)
            and self.p == other.p
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.modulus))

    def __repr__(self):
        return f"ResidueField(p={self.p}, f={self.f})"


class ResiduePoly:
    """A polynomial over a ResidueField, little-endian, trimmed."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        cs = [tuple(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    def degree(self):
        return len(self.coeffs) - 1

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == (1,)

    def __eq__(self, other):
        return (
            isinstance(other, ResiduePoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"ResiduePoly(deg={self.degree()}, q={self.field.q})"


def _rp_mul(F, a, b):
    if not a or not b:
        return []
    out = [F.zero()] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = F.add(out[i + j], F.mul(ai, bj))
    while out and not out[-1]:
        out.pop()
    return out


def _rp_mod(F, a, m):
    """Remainder of a modulo m (m with invertible leading coefficient)."""
    a = list(a)
    dm = len(m) - 1
    lead_inv = F.inv(m[-1])
    low = [(j, mj) for j, mj in enumerate(m[:-1]) if mj]
    while len(a) > dm:
        c = F.mul(a.pop(), lead_inv)
        k = len(a) - dm
        for j, mj in low:
            a[k + j] = F.sub(a[k + j], F.mul(c, mj))
        while a and not a[-1]:
            a.pop()
    return a


def _rp_gcd(F, a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, _rp_mod(F, a, b)
    return a


def reduce_poly_mod_prime(coeffs, prime):
    """Reduce a monic polynomial over O_K modulo a prime ideal.

    Each coefficient c(theta) maps to c(y) mod (gen_poly, p); the result is
    monic of the same degree over the residue field.
    """
    F = residue_field(prime)
    out = [F.from_poly(list(c.coords)) for c in coeffs]
    if not out or out[-1] != (1,):
        raise ValueError("polynomial must be monic")
    return ResiduePoly(F, out)


def residue_field(prime):
    """The residue field of a PrimeIdeal."""
    return ResidueField(prime.p, prime.gen_poly)


def element_in_prime(elem, prime):
    """Membership of an element in a prime ideal, via its image."""
    F = residue_field(prime)
    return not F.from_poly(list(elem.coords))


def splits_completely(g):
    """Does the monic squarefree g factor into deg(g) distinct linear parts?

    Decided by x^q = x (mod g). The squarefree precondition is enforced:
    a nontrivial gcd(g, g') means the caller's discriminant gate failed,
    which is reported rather than repaired.
    """
    F = g.field
    if not g.is_monic() or g.degree() < 1:
        raise ValueError("splitting test needs a monic polynomial of degree >= 1")
    coeffs = list(g.coeffs)
    deriv = [F.scalar(c, i) for i, c in enumerate(coeffs)][1:]
    while deriv and not deriv[-1]:
        deriv.pop()
    if len(_rp_gcd(F, coeffs, deriv)) != 1:
        raise SquarefreeViolationError(
            "polynomial shares a factor with its derivative"
        )
    n = len(coeffs) - 1
    low = [(j, c) for j, c in enumerate(coeffs[:-1]) if c]
    x = _rp_mod(F, [F.zero(), F.one()], coeffs)
    h = x
    for bit in bin(F.q)[3:]:
        h = _rp_mod(F, _rp_mul(F, h, h), coeffs)
        if bit == "1" and h:
            h.insert(0, F.zero())
            if len(h) > n:  # x^n = -(g - x^n)
                top = h.pop()
                for j, c in low:
                    h[j] = F.sub(h[j], F.mul(top, c))
                while h and not h[-1]:
                    h.pop()
    return h == x
