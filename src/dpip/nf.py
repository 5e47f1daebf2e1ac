"""Exact arithmetic in a monogenic number field K = Q[x]/(f).

Everything is computed in the order Z[theta] for a monic integral defining
polynomial f. Elements are elements of Z[theta], integer coordinate vectors
over the power basis 1, theta, ..., theta^(d-1); ideals are full-rank
integer lattices, over a positive denominator for a fractional ideal, whose
canonical column Hermite form makes equal ideals bit-identical; an ideal u*J
given by its factors builds that form only when asked. No floating point is
used anywhere in this module.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, prod
from operator import mul

from . import fppoly
from .errors import (
    DefiningPolyError,
    DpipError,
    FieldMismatchError,
    GaveUpError,
    NonDivisibleError,
    NonInvertibleIdealError,
    ZeroIdealError,
)
from .intlattice import IntLattice, bareiss, echelon_remainder
from .ntheory import MR_EXACT as _MR_EXACT
from .ntheory import SMALL_PRIMORIAL, isprime, perfect_power, prime_factors, strong_lucas_prp


def prime_power(n):
    """(p, k) with n = p^k and p prime, or None.

    One gcd with the product of the primes below 1000 screens n: if it is
    some g > 1, n is a prime power only when g is one of those primes and n
    is a power of g, so no primality test runs. Otherwise one base-2
    exponentiation screens it: with n - 1 = 2^s t, x = 2^t mod n squared s
    times is the strong base-2 test, which every prime passes, and ends at
    the Fermat value 2^(n-1) mod n. A prime power q^e has 2^n = 2 (mod q),
    so q divides both 2x - 2 and n for that last x; when n fails the strong
    test, x != 1 and gcd(2x - 2, n) = 1, n is neither.

    Primality is that of `ntheory.isprime`, dpip's port of sympy's, which
    the tests check against sympy's. Below _MR_EXACT it is `isprime`
    itself, which is exact there. At and above it, `isprime` is the BPSW
    test: the strong base-2 test above, then the strong Lucas test, which
    is all that runs here. BPSW has no known counterexample but is not a
    proof, so such a p is accepted on BPSW alone."""
    if n < 2:
        return None
    g = gcd(n, SMALL_PRIMORIAL)
    if g > 1:
        if not isprime(g):
            return None
        k = 0
        while n % g == 0:
            n //= g
            k += 1
        return (g, k) if n == 1 else None
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(2, (n - 1) >> s, n)
    strong = x == 1
    for _ in range(s):
        strong = strong or x == n - 1
        x = x * x % n
    if strong:
        prime = isprime(n) if n < _MR_EXACT else strong_lucas_prp(n)
        if prime:
            return n, 1
    elif x != 1 and gcd(2 * x - 2, n) == 1:
        return None
    pp = perfect_power(n)
    if pp and isprime(pp[0]):
        return pp
    return None


# ---------------------------------------------------------------------------
# Coordinates modulo a monic integer polynomial (little-endian tuples)

def _reduce(poly, c):
    """The first d coefficients of c mod the monic poly of degree d, for a
    coefficient list c, which is reduced in place from the top."""
    d = len(poly) - 1
    f = [(j, x) for j, x in enumerate(poly[:d]) if x]
    for i in range(len(c) - 1, d - 1, -1):
        x = c[i]
        if x:
            base = i - d
            for j, fj in f:
                c[base + j] -= x * fj
    return c[:d]


# ---------------------------------------------------------------------------
# Number field

class NumberField:
    """A monogenic number field, fixed by its monic integral defining poly.

    The discriminant is the polynomial discriminant of the defining
    polynomial, i.e. the discriminant of the order Z[theta]; callers who
    care whether that order is maximal at a given prime can ask
    order_is_maximal_at.

    f must be irreducible over Q. When f equals Phi_m coefficient for
    coefficient for some m (`_cyclotomic_index`), it is by theorem
    (Washington, GTM 83, ch. 2), m is kept as `cyclotomic_order`, and the
    discriminant is read from m (`_cyclotomic_disc`), so such a field needs
    no sympy. Every other f is checked by sympy's `Poly.is_irreducible`,
    and its discriminant is the Hankel determinant of its roots' power sums
    (`poly_discriminant`).
    """

    __slots__ = (
        "poly",
        "degree",
        "disc",
        "_kd_cache",
        "_maximal_at",
        "_ring",
        "_gram",
        "_cyclo",
        "_roots",
    )

    def __init__(self, coeffs):
        poly = tuple(int(c) for c in coeffs)
        if len(poly) < 2:
            raise DefiningPolyError("degree must be at least 1")
        if poly[-1] != 1:
            raise DefiningPolyError("defining polynomial must be monic")
        for c, c_raw in zip(poly, coeffs):
            if c != c_raw:
                raise DefiningPolyError("coefficients must be integers")
        self.poly = poly
        self.degree = len(poly) - 1
        self._cyclo = _cyclotomic_index(poly)  # cyclotomic_order
        if self._cyclo:
            self.disc = _cyclotomic_disc(self._cyclo, self.degree)
        else:
            from sympy import Poly, Symbol

            self.disc = poly_discriminant(poly)
            if self.disc == 0:
                raise DefiningPolyError("defining polynomial has a repeated factor")
            if not Poly(list(reversed(poly)), Symbol("x")).is_irreducible:
                raise DefiningPolyError("defining polynomial is reducible over Q")
        self._kd_cache = {}
        self._maximal_at = {}
        self._ring = None
        self._gram = None
        self._roots = None  # the _RootTable at the foot of the cyclotomic tower

    # -- basic API -----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def __repr__(self):
        return f"NumberField({list(self.poly)})"

    def element(self, coords):
        return FieldElement(self, coords)

    def zero(self):
        return self.element([0] * self.degree)

    def one(self):
        return self.element([1] + [0] * (self.degree - 1))

    def gen(self):
        c = [0] * self.degree
        if self.degree == 1:
            c[0] = -self.poly[0]
        else:
            c[1] = 1
        return self.element(c)

    def rational(self, q):
        return self.element([q] + [0] * (self.degree - 1))

    # -- coordinate-level arithmetic ------------------------------------------

    def theta_shift(self, v):
        """Coordinates of theta * v (v a length-d coordinate list)."""
        poly, d = self.poly, self.degree
        top = v[d - 1]
        out = [0, *v[: d - 1]]
        if top:
            for i in range(d):
                if poly[i]:
                    out[i] -= top * poly[i]
        return out

    def mul_coords(self, a, b):
        """Coordinates of the product of two elements."""
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] += ai * bj
        return _reduce(self.poly, out)

    def mul_matrix_columns(self, coords):
        """Columns of the multiplication-by-x matrix: x*theta^j for j < d."""
        cols = [list(coords)]
        for _ in range(self.degree - 1):
            cols.append(self.theta_shift(cols[-1]))
        return cols

    def mul_vectors(self, coords, vecs):
        """Coordinates of x*v for every integer vector v in vecs, x given by
        integer coords: one packed mat-vec each (`_matvec`)."""
        bound = max((abs(t) for v in vecs for t in v), default=0)
        apply = _matvec(self.mul_matrix_columns(coords), bound)
        return [apply(v) for v in vecs]


class FieldElement:
    """An element of Z[theta] in power-basis coordinates.

    Coordinates are ints, and anything else raises TypeError; arithmetic
    keeps representatives fully reduced modulo the defining polynomial, and
    there is no division. The coordinates never change, so the norm is
    computed once and cached.
    A switching draw is the subclass `_PackedElement`, which holds its
    coordinates packed as the digits that the norm reads.
    """

    __slots__ = ("K", "coords", "_norm")

    def __init__(self, K, coords):
        coords = tuple(coords)
        if len(coords) != K.degree:
            raise FieldMismatchError(
                f"expected {K.degree} coordinates, got {len(coords)}"
            )
        for c in coords:
            if not isinstance(c, int):
                raise TypeError(f"bad coordinate type {type(c).__name__}")
        self.K = K
        self.coords = coords
        self._norm = None

    # -- predicates -----------------------------------------------------------

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def is_rational(self):
        return all(c == 0 for c in self.coords[1:])

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.K != self.K:
                raise FieldMismatchError("elements of different fields")
            return other
        if isinstance(other, int):
            return self.K.rational(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.K, [a + b for a, b in zip(self.coords, o.coords)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.K, [a - b for a, b in zip(self.coords, o.coords)])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __neg__(self):
        return FieldElement(self.K, [-c for c in self.coords])

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.K, self.K.mul_coords(self.coords, o.coords))

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power of an element of Z[theta]")
        result = self.K.one()
        base = self
        while e > 0:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- norm ------------------------------------------------------------------

    def _packed(self):
        """(digits, W): the coordinates as their digits (`_digits`) at the
        least width W that `_tower` reads for them."""
        W = _digit_width(sum(map(mul, self.coords, self.coords)), self.K.degree)
        return _digits(self.coords, W), W

    def norm_int(self):
        """Field norm N(self) = Res(f, g) for self = g(theta), as f is monic.

        In a field certified cyclotomic of order m by `cyclotomic_order`,
        N(g) is read from g's digits (`_packed`): it halves the degree while
        4 | m, as N(g) is the norm of g(x) g(-x) in the field of order m/2
        (`_tower`). At degree one that is the norm; otherwise it is the
        product of the element over the roots of the last field modulo
        split primes above twice its Parseval bound, read as the residue of
        least absolute value (`_RootTable`). Every other field takes the
        determinant of g's multiplication matrix by Bareiss elimination.
        """
        if self._norm is None:
            K = self.K
            m = cyclotomic_order(K)
            if m is None:
                cols = K.mul_matrix_columns(self.coords)
                self._norm = bareiss([list(row) for row in zip(*cols)])
            else:
                self._norm = _cyclotomic_resultant(K, m, *self._packed())
        return self._norm

    # -- misc -------------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_rational() and self.coords[0] == other
        return (
            isinstance(other, FieldElement)
            and self.K == other.K
            and self.coords == other.coords
        )

    def __hash__(self):
        # a rational element equals its value, so it hashes as that value
        if self.is_rational():
            return hash(self.coords[0])
        return hash((self.K.poly, self.coords))

    def __repr__(self):
        return f"FieldElement({poly_str(self.coords)})"


class _PackedElement(FieldElement):
    """An element held as its digits at width W (`_digits`), the
    form in which a switching draw is made (`decide._combiner`). W must be
    one that `_tower` reads, so the norm takes the digits as they are; the
    coordinates are unpacked when something first reads them."""

    __slots__ = ("_form", "_coords")

    def __init__(self, K, digits, W):
        self.K = K
        self._form = (digits, W)
        self._coords = None
        self._norm = None

    @property
    def coords(self):
        if self._coords is None:
            digits, W = self._form
            self._coords = tuple(_undigits(digits, W, self.K.degree))
        return self._coords

    def _packed(self):
        return self._form


def _totients(n):
    """Euler's phi(m) for 0 <= m <= n, by a sieve."""
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:  # p is prime
            for m in range(p, n + 1, p):
                phi[m] -= phi[m] // p
    return phi


def cyclotomic_order(K):
    """The m with f = Phi_m, or None: read from K, which compared f with
    Phi_m when it was built (`NumberField`).

    f = Phi_m, coefficient for coefficient, is what every cyclotomic path
    rests on: the norm's tower Phi_m(x) = Phi_(m/2)(x^2), the split primes
    of `kummer_dedekind` and the exact Gram matrix. The order of theta and
    the degree alone prove nothing: for the reducible Phi_3 Phi_4 = x^4 +
    x^3 + 2x^2 + x + 1, theta has order 12 and phi(12) = 4.
    """
    return K._cyclo or None


def _cyclotomic_index(poly):
    """The m with poly = Phi_m (little-endian), else 0. Phi_m(0) = +-1, and
    since phi(m) >= sqrt(m/2), only m <= 2d^2 with phi(m) = d qualify; at
    most one Phi_m equals poly, and it is compared coefficient for
    coefficient."""
    d = len(poly) - 1
    if abs(poly[0]) != 1:
        return 0
    phi = _totients(2 * d * d)
    return next((m for m in range(1, len(phi)) if phi[m] == d and poly == _cyclotomic_poly(m)), 0)


def _cyclotomic_poly(m):
    """Phi_m, little-endian: Phi_r(x^(m/r)) for r the product of the primes
    dividing m, and Phi_r the product of (x^(r/k) - 1)^mu(k) over the k | r,
    the factors with mu(k) = 1 multiplied out first and those with mu(k) =
    -1 then divided out exactly."""
    qs = prime_factors(m)
    r = prod(qs)
    c = [1]
    for n in range(0, len(qs) + 1, 2):
        for sub in combinations(qs, n):
            e = r // prod(sub)
            out = [-x for x in c] + [0] * e
            for i, x in enumerate(c):
                out[i + e] += x
            c = out
    for n in range(1, len(qs) + 1, 2):
        for sub in combinations(qs, n):
            e = r // prod(sub)
            # c = (x^e - 1) q, so q_i = q_(i-e) - c_i
            q = []
            for i in range(len(c) - e):
                q.append((q[i - e] if i >= e else 0) - c[i])
            c = q
    out = [0] * ((len(c) - 1) * (m // r) + 1)
    out[:: m // r] = c
    return tuple(out)


def _cyclotomic_disc(m, d):
    """disc(Phi_m) for m with phi(m) = d: (-1)^(d/2) m^d / prod over p | m
    of p^(d/(p-1)) for m >= 3 (Washington, GTM 83, Prop. 2.7), and 1 for
    Phi_1 = x - 1 and Phi_2 = x + 1."""
    if d == 1:
        return 1
    out = m**d
    for p in prime_factors(m):
        out //= p ** (d // (p - 1))
    return -out if d % 4 else out


def _pack(rows, width):
    """Column integers of an integer matrix: column j is the sum of
    rows[i][j] * 2^(8 * width * i), for entries of either sign.

    A combination of the columns then holds the same combination of row i
    in slot i (bytes i * width to (i + 1) * width, little-endian), which
    `_slots` reads back when every slot lies in [0, 2^(8 * width)).
    """
    shift = 8 * width
    cols = []
    for col in zip(*rows):
        acc = 0
        for x in reversed(col):
            acc = (acc << shift) + x
        cols.append(acc)
    return cols


def _packed_basis(cols, bound):
    """(packed, offset, W): integer columns packed for the combinations
    sum_j v_j cols[j] with max |v_j| <= bound, at the width W at which
    `_tower` reads every such combination.

    Entry i of a combination is at most R_i = bound * sum_j |cols[j][i]| in
    absolute value, so its squares sum to at most sum_i R_i^2, and W is
    `_digit_width` of that bound: every entry is below 2^(W-1) in absolute
    value. Column j holds its entry i in slot i of W bits (`_pack`), and
    offset holds 2^(W-1) in each slot, so sum_j v_j packed_j + offset is
    exactly `_digits` of the combination at width W."""
    rows = list(zip(*cols))
    sq = sum((bound * sum(map(abs, row))) ** 2 for row in rows)
    W = _digit_width(sq, len(rows))
    return _pack(rows, W // 8), _digits([0] * len(rows), W), W


def _matvec(cols, bound):
    """v -> sum_j v_j * cols[j] for integer vectors v with max |v_j| <= bound,
    as one packed product (`_packed_basis`) read back from its digits."""
    packed, offset, W = _packed_basis(cols, bound)
    n = len(cols[0])
    return lambda v: _undigits(sum(map(mul, v, packed), offset), W, n)


def _slots(acc, width, n):
    """The n slots of `width` bytes of 0 <= acc < 2^(8 * width * n), lowest
    first; anything else raises DpipError."""
    shift = 8 * width
    mask = (1 << shift) - 1
    out = []
    for _ in range(n):
        out.append(acc & mask)
        acc >>= shift
    if acc:
        raise DpipError("packed slots out of range")
    return out


class _RootTable:
    """The roots of the m-th cyclotomic polynomial f (`poly`, of degree d)
    modulo products of split primes, with their powers packed for evaluating
    a polynomial at all of them.

    Each prime l = 1 (mod m) is below 2^64, so `isprime` decides it
    exactly, and has an element z of order m; the d roots of f mod l are
    z^k for gcd(k, m) = 1, each checked to be a root (`_common_roots`, from
    which `kummer_dedekind` also reads its split primes), so f = prod (x -
    z^k) mod l and Res(f, g) = prod g(z^k) mod l.
    The primes are taken downwards from 2^64 and added when a caller needs
    a larger modulus; every modulus M is the product of the fewest leading
    primes above what its caller needs, so a large element lengthens the
    list but a later small one still works modulo its own short prefix. For
    a prefix, the CRT lifts z to one of order m mod M, whose powers z^k
    (k < m, `_powers`) are then the roots a_i of f mod M and their powers.

    Per prefix, `evaluation` packs a_i^0, ..., a_i^(d-1) and the offset
    -sum_j a_i^j mod M into d + 1 columns with row i in slot i, built once
    per prefix.
    """

    __slots__ = ("poly", "m", "exps", "primes", "roots", "_evaluation")

    def __init__(self, poly, m):
        self.poly = tuple(poly)
        self.m = m
        self.exps = tuple(k for k in range(m) if gcd(k, m) == 1)
        self.primes = []
        self.roots = []
        self._evaluation = {}

    def _prefix(self, above):
        """(count, M) for the product M > above of the fewest leading
        primes, adding primes as needed."""
        count, M = 0, 1
        while M <= above:
            if count == len(self.primes):
                self._add_prime()
            M *= self.primes[count]
            count += 1
        return count, M

    def _add_prime(self):
        """Append the next prime l = 1 (mod m) below the last, checked to
        split f into distinct roots z^k (`_common_roots`), with its z."""
        m = self.m
        q = (self.primes[-1] - 1) // m - 1 if self.primes else (2**64 - 2) // m
        while True:
            ell = q * m + 1
            q -= 1
            if isprime(ell):
                break
        roots = _common_roots(m, ell, [self.poly])
        if len(roots) != len(self.poly) - 1:
            raise DpipError(f"f does not split into distinct roots mod {ell}")
        self.primes.append(ell)
        self.roots.append(roots[0])

    def _powers(self, count, M):
        """z^e mod M for e < m, z the CRT lift of the first count roots."""
        z = 0
        for ell, root in zip(self.primes[:count], self.roots):
            cofactor = M // ell
            z += root * cofactor * pow(cofactor, -1, ell)
        powers = [1]
        for _ in range(self.m - 1):
            powers.append(powers[-1] * z % M)
        return powers

    def evaluation(self, above):
        """(M, width, columns) for the fewest leading primes with M > above:
        the d + 1 columns of `values`, packed by `_pack` in slots of `width`
        bytes, 8 * width >= bits(M) + bits(M) // d + bits(d) + 2."""
        count, M = self._prefix(above)
        if count not in self._evaluation:
            pw, d = self._powers(count, M), len(self.poly) - 1
            rows = [[pw[k * j % self.m] for j in range(d)] for k in self.exps]
            for row in rows:
                row.append(-sum(row) % M)
            bits = M.bit_length()
            width = (bits + bits // d + d.bit_length() + 9) // 8
            self._evaluation[count] = (M, width, _pack(rows, width))
        return self._evaluation[count]

    def values(self, g, bound):
        """(M, values): numbers congruent to g(a_i) mod M, for integer
        coordinates g with max |g_j| = bound.

        For deg g < m, Parseval over the m-th roots of unity w gives sum
        |g(w)|^2 = m * sum g_j^2; the d roots of f are among them, so by
        AM-GM |Res(f, g)|^2 <= (m * sum g_j^2 / d)^d <= t^d for t =
        ceil(m * sum g_j^2 / d), and |Res(f, g)| < 2^e with e = ceil(d *
        bits(t) / 2). M is also taken above 2^(e + 1) > 2 |Res(f, g)|. With
        C = bound, every coefficient of (g_0 + C, ..., g_(d-1) + C, C) is
        nonnegative, so their combination of the columns holds in slot i a
        number congruent to g(a_i) mod M, below (2d + 1) C M; and C^2 <= sum
        g_j^2 <= m * sum g_j^2 / d as m >= d, so C^d < M and C < 2^(bits(M)
        // d + 1), which keeps the slot within its width.
        """
        d = len(g)
        t = -(-self.m * sum(map(mul, g, g)) // d)
        M, width, cols = self.evaluation(1 << ((d * t.bit_length() + 1) // 2 + 1))
        acc = sum(map(mul, [x + bound for x in g] + [bound], cols))
        return M, _slots(acc, width, d)

    def resultant(self, g, bound):
        """Res(f, g) for integer coordinates g with max |g_j| = bound: the
        product of the values, read as the residue of least absolute value
        modulo M > 2 |Res(f, g)|."""
        M, vals = self.values(g, bound)
        r = 1
        for s in vals:
            r = r * s % M
        return r - M if 2 * r > M else r



def _common_roots(m, ell, gens):
    """The z^k (gcd(k, m) = 1, k < m, z = `_root_of_unity(m, ell)`, so z^1
    first) at which every coordinate vector in gens vanishes mod a prime
    ell = 1 (mod m). As z has order m they are distinct, and Phi_m = prod
    (x - z^k) mod ell (Washington, GTM 83, ch. 2): they are the roots of
    gcd(Phi_m, gens), and for gens = [Phi_m] all d of them."""
    z = _root_of_unity(m, ell)
    powers = [1]
    for _ in range(m - 1):
        powers.append(powers[-1] * z % ell)
    ks = [k for k in range(m) if gcd(k, m) == 1]
    for g in gens:
        terms = [(j, c) for j, c in enumerate(g) if c]
        ks = [k for k in ks if not sum(c * powers[k * j % m] for j, c in terms) % ell]
    return [powers[k] for k in ks]


def _root_of_unity(m, ell):
    """An element of order m in F_ell, for a prime ell = 1 (mod m): the
    product, over the primes q | m, of y^r (r the part of m prime to q, so
    y^r has the order of the power of q in m) for the first y = a^((ell -
    1)/m), a = 2, 3, ..., with y^(m/q) != 1."""
    z, todo, a = 1, prime_factors(m), 2
    while todo:
        y = pow(a, (ell - 1) // m, ell)
        for q in [q for q in todo if pow(y, m // q, ell) != 1]:
            todo.remove(q)
            r = m
            while r % q == 0:
                r //= q
            z = z * pow(y, r, ell) % ell
        a += 1
    return z


def _digit_width(sq, n):
    """The least width W, a multiple of 8, with 2W > bits(sq) + bits(n): the
    width at which `_tower` reads n coefficients whose squares sum to at most
    sq. Each such coefficient has bits(g_j^2) <= bits(sq) <= 2W - 2, so
    |g_j| < 2^(W-1)."""
    return 8 * ((sq.bit_length() + n.bit_length()) // 16 + 1)


def _digits(g, W):
    """g packed with 2^(W-1) added to each slot of W bits: sum_j (g_j +
    2^(W-1)) 2^(W j), whose slots are digits in [0, 2^W) when every |g_j| <
    2^(W-1)."""
    c, acc = 1 << (W - 1), 0
    for x in reversed(g):
        acc = (acc << W) + x + c
    return acc


def _undigits(digits, W, n):
    """The n slots of `digits` (`_digits`), for W a multiple of 8."""
    c = 1 << (W - 1)
    return [x - c for x in _slots(digits, W // 8, n)]


def _tower(poly, m, digits, W):
    """(poly', m', h) with N(g) = N'(h): g, given by its digits at width W
    (`_digits`), walked down the cyclotomic tower while 4 | m.

    For 4 | m, f = Phi_m(x) = Phi_{m/2}(x^2), so Phi_{m/2} has the even
    coefficients of f, and x -> -x is the automorphism of K = Q[x]/(f) over
    K' = Q[y]/(Phi_{m/2}), y = x^2. So N_K(g) = N_K'(w) for w(y) = g(x)
    g(-x) = g_e(y)^2 - y g_o(y)^2, where g = g_e(x^2) + x g_o(x^2).

    Each step is one Kronecker computation on the digits of g (`_digits`) at
    width W: masks on every other slot give g_e and g_o packed at width 2W,
    and two squarings give w there, in n = deg f slots. By Cauchy-Schwarz a
    coefficient of g_e^2 is at most ||g_e||^2, and of g_o^2 at most
    ||g_o||^2, so |w_k| <= ||g||^2. When Phi_{m/2} = y^(n/2) + 1, w mod
    Phi_{m/2} is the difference of w's packed halves, which are read as
    digits of width 2W again; its coefficients are those of g(x) g(-x) mod
    x^n + 1, each a sum of +-g_i g_j over a permutation, so again at most
    ||g||^2. Otherwise the n coefficients of w are unpacked and reduced.

    The widths hold every level: the digits of a list h_0 of n_0
    coefficients come at a width W_0 with 2 W_0 > bits(s) + bits(n_0) for
    some s >= sum h_j^2 (`_digit_width`), and W doubles with each fold.
    The squared norms are bounded by L_0 = s and L_(t+1) = n_(t+1) L_t^2,
    and log2 L_t = 2^t (log2 s + sum_(k <= t) log2(n_k) / 2^k) < 2^t
    (bits(s) + bits(n_0) - 1) <= 2 W_t - 1. So every coefficient of level
    t + 1, at most L_t, lies below 2^(W_(t+1) - 1), and its slot of W_(t+1)
    = 2 W_t bits is a digit. The foot is reached at m' with 4 not dividing
    m'; at degree one (m' = 1, 2) h is [N(g)].
    """
    while m % 4 == 0:
        n = len(poly) - 1
        half = n // 2
        if digits is None:
            W = _digit_width(sum(map(mul, h, h)), n)
            digits = _digits(h, W)
        U = ((1 << W * n) - 1) // ((1 << 2 * W) - 1)  # 1 in each slot of 2W bits
        low, mask = U << (W - 1), (U << W) - U
        ge = (digits & mask) - low
        go = ((digits >> W) & mask) - low
        poly, m, W = poly[::2], m // 2, 2 * W
        w = ge * ge - (go * go << W) + (U << (W - 1))
        if poly[0] == 1 and not any(poly[1:half]):
            # y^half + 1: the lower half keeps its offsets, the digits of w mod poly
            digits = (w & ((1 << W * half) - 1)) - (w >> W * half)
        else:
            # offset the upper slots too, then reduce the n coefficients of w
            h = _reduce(poly, _undigits(w + (U << (W * half + W - 1)), W, n))
            digits = None
    if digits is not None:
        h = _undigits(digits, W, len(poly) - 1)
    return poly, m, h


def _base_table(K, poly, m):
    """K's root table, for the cyclotomic field at the foot of its tower."""
    if K._roots is None:
        K._roots = _RootTable(poly, m)
    return K._roots


def _cyclotomic_resultant(K, m, digits, W):
    """Res(f, g) for the m-th cyclotomic f of K and g given by its digits at
    a width W that `_tower` reads: the norm of the foot h of g's tower,
    which is h itself at degree one and otherwise comes from K's root table
    for that foot (`_RootTable.resultant`)."""
    poly, m, h = _tower(K.poly, m, digits, W)
    if len(h) == 1:
        return h[0]
    bound = max(map(abs, h))
    if not bound:
        return 0
    return _base_table(K, poly, m).resultant(h, bound)


def int_back_substitution(rows, rhs):
    """The integer x with sum_j rows[i][j] * x[j] == rhs[i] for every i.

    rows is upper triangular with a nonzero diagonal; entries past column
    len(rhs) - 1 are ignored. When x is integral every division is exact;
    when it is not, raises DpipError.
    """
    d = len(rhs)
    x = [0] * d
    for i in range(d - 1, -1, -1):
        row = rows[i]
        s = rhs[i] - sum(map(mul, row[i + 1 : d], x[i + 1 :]))
        x[i], rem = divmod(s, row[i])
        if rem:
            raise DpipError("triangular system has no integral solution")
    return x


# Python >= 3.11 refuses int <-> str conversions beyond 4,300 digits by
# default; larger numbers go through 4,000-digit chunks, and the process-wide
# limit is left alone.
_CHUNK_DIGITS = 4000
_CHUNK = 10**_CHUNK_DIGITS


def decimal_str(x):
    """Decimal string of an int of any size."""
    if -_CHUNK < x < _CHUNK:
        return str(x)
    if x < 0:
        return "-" + decimal_str(-x)
    chunks = []
    while x:
        x, r = divmod(x, _CHUNK)
        chunks.append(r)
    head = str(chunks.pop())
    return head + "".join(f"{r:0{_CHUNK_DIGITS}d}" for r in reversed(chunks))


def parse_decimal(text):
    """The int written in text, of any length: an optional sign, then ASCII
    digits, nothing else (no spaces or underscores); ValueError otherwise."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid decimal integer string {text[:20]!r}")
    if len(text) <= _CHUNK_DIGITS:
        return int(text)
    sign = -1 if text[0] == "-" else 1
    out = 0
    for i in range(0, len(digits), _CHUNK_DIGITS):
        chunk = digits[i : i + _CHUNK_DIGITS]
        out = out * 10 ** len(chunk) + int(chunk)
    return sign * out


def poly_str(coords, var="θ"):
    """Human-readable polynomial in var from little-endian coordinates."""
    terms = []
    for i, c in enumerate(coords):
        if c == 0:
            continue
        if i == 0:
            terms.append(decimal_str(c))
        else:
            v = var if i == 1 else f"{var}^{i}"
            if c == 1:
                terms.append(v)
            elif c == -1:
                terms.append(f"-{v}")
            else:
                terms.append(f"{decimal_str(c)}{v}")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


# ---------------------------------------------------------------------------
# Ideals

class Ideal:
    """A fractional ideal of Z[theta]: a numerator lattice over `denom`.

    `cols[j]` is the j-th vector of the lattice's canonical HNF (pivot at
    index j, positive, entries below other pivots reduced), `denom` a
    positive integer with content coprime to the lattice. Integral ideals
    have denom == 1. Instances are immutable; derived data is cached. The
    entries of `cols` are taken as given, so they must be ints; input from
    outside is converted by `from_hnf_matrix`.

    An integral u*J (u a nonzero element, J an integral ideal or
    None for O_K), built from one generator or as a product by one, keeps
    `_factors` = (u, J) and the Z-basis `_basis` = u x basis(J). LLL reduces
    J's basis under the Gram matrix of `_basis`, and the decision switches J
    (`lll_reduce`), so it needs neither the HNF of u*J nor N(u)/u. Its
    determinant is |N(u)| * det(J), and the HNF is built from `_basis` when
    `cols` is first read: by membership, equality, hashing, I/O or a
    general product. Every other ideal is built as an HNF lattice.
    `_side` caches its `decide.CofactorSide`, the reduced cofactor side.
    """

    __slots__ = (
        "K", "_cols", "denom", "_gens", "_basis", "_factors", "_det", "_inv", "_side",
    )

    def __init__(self, K, cols, denom=1, gens=None):
        self.K = K
        self._cols = None if cols is None else tuple(map(tuple, cols))
        self.denom = int(denom)
        self._gens = gens
        self._basis = self._factors = self._det = self._inv = self._side = None
        if self.denom < 1:
            raise ValueError("denominator must be positive")

    @staticmethod
    def _times(u, J, gens):
        """u*J, with its HNF left unbuilt (see the class docstring)."""
        K = u.K
        out = Ideal(K, None, 1, gens=gens)
        out._factors = (u, J)
        vecs = K.mul_vectors(u.coords, J._basis or J.cols) if J else K.mul_matrix_columns(u.coords)
        out._basis = tuple(map(tuple, vecs))
        return out

    @property
    def cols(self):
        if self._cols is None:
            # the determinant times Z^d lies in any full-rank integer lattice
            lat = IntLattice(self.K.degree, modulus=self.det())
            lat.extend(self._basis)
            self._cols = lat.basis_columns()
        return self._cols

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def ring(K):
        """The unit ideal O_K (cached per field)."""
        if K._ring is None:
            d = K.degree
            cols = tuple(
                tuple(1 if i == j else 0 for i in range(d)) for j in range(d)
            )
            K._ring = Ideal(K, cols, 1, gens=(K.one(),))
        return K._ring

    @staticmethod
    def from_generators(K, gens):
        """The O_K-module generated by elements (or ints): u*O_K with its
        HNF left unbuilt for a single nonzero u, else its HNF lattice."""
        elems = []
        for g in gens:
            if isinstance(g, int):
                g = K.rational(g)
            if g.K != K:
                raise FieldMismatchError("generator from a different field")
            if not g.is_zero():
                elems.append(g)
        if not elems:
            raise ZeroIdealError("all generators are zero")
        if len(elems) == 1:
            return Ideal._times(elems[0], None, (elems[0],))
        # a rational generator q lies in the ideal, hence so does q*Z^d, and
        # no norm is needed; otherwise N(g) = g * (g^-1 N(g)) lies in it
        modulus = 0
        for g in elems:
            if g.is_rational():
                modulus = gcd(modulus, g.coords[0])
        if not modulus:
            for g in elems:
                modulus = gcd(modulus, g.norm_int())
        lat = IntLattice(K.degree, modulus=modulus)
        for g in elems:
            lat.extend(K.mul_matrix_columns(g.coords))
        return Ideal(K, lat.basis_columns(), 1, gens=tuple(elems))

    @staticmethod
    def principal(K, g):
        return Ideal.from_generators(K, [g])

    @staticmethod
    def from_hnf_matrix(K, rows, denom=1):
        """Rebuild from a row-major HNF matrix, validating every invariant."""
        d = K.degree
        rows = [list(map(int, r)) for r in rows]
        if len(rows) != d or any(len(r) != d for r in rows):
            raise ValueError("HNF matrix has wrong shape")
        cols = [[rows[i][j] for i in range(d)] for j in range(d)]
        for j in range(d):
            if cols[j][j] <= 0:
                raise ValueError("HNF diagonal entries must be positive")
            for i in range(j):
                if cols[j][i] != 0:
                    raise ValueError("HNF matrix is not lower triangular")
            for i in range(j + 1, d):
                if not 0 <= cols[j][i] < cols[i][i]:
                    raise ValueError("HNF entries are not reduced")
        ideal = Ideal(K, cols, denom)
        if gcd(ideal.denom, *(x for c in cols for x in c)) != 1:
            raise ValueError("HNF content is not coprime to the denominator")
        if not ideal.contains_vectors(K.theta_shift(c) for c in cols):
            raise ValueError("lattice is not closed under multiplication by theta")
        return ideal

    # -- representation ------------------------------------------------------------

    def hnf_matrix(self):
        d = self.K.degree
        return tuple(
            tuple(self.cols[j][i] for j in range(d)) for i in range(d)
        )

    def det(self):
        if self._det is None:
            if self._factors:
                u, J = self._factors
                self._det = abs(u.norm_int()) * (1 if J is None else J.det())
            else:
                self._det = prod(c[j] for j, c in enumerate(self.cols))
        return self._det

    def norm(self):
        return Fraction(self.det(), self.denom**self.K.degree)

    def norm_int(self):
        n, rem = divmod(self.det(), self.denom**self.K.degree)
        if rem:
            raise ValueError("fractional ideal")
        return n

    def is_integral(self):
        return self.denom == 1

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and self.K == other.K
            and self.denom == other.denom
            and self.cols == other.cols
        )

    def __hash__(self):
        return hash((self.K.poly, self.cols, self.denom))

    def __repr__(self):
        return f"Ideal(norm={self.norm()}, denom={self.denom})"

    # -- membership ------------------------------------------------------------------

    def contains_vector(self, vec):
        return self.contains_vectors([vec])

    def contains_vectors(self, vecs):
        """Whether every integer vector lies in the numerator lattice: its
        remainder against the HNF (`cols`, built for u*J on first read) is
        zero. `lll_reduce` checks its basis against J and the decision
        draws on J's side, so neither asks u*J."""
        cols = self.cols
        return all(not any(echelon_remainder(cols, v)) for v in vecs)

    def contains_element(self, elem):
        if elem.K != self.K:
            raise FieldMismatchError("element from a different field")
        return self.contains_vector([c * self.denom for c in elem.coords])

    # -- arithmetic ---------------------------------------------------------------------

    def __mul__(self, other):
        """I * J, spanned by (generators of I) x (a Z-basis of J).

        When both are integral and one has a single recorded generator u,
        the product is u*J with its HNF left unbuilt. Otherwise the shorter
        generator list is multiplied by the other operand's recorded basis,
        or its columns. With l a positive integer in each numerator lattice
        (`_lattice_integer`), m = l(I) * l(J) lies in the product, hence so
        does m*Z[theta], and insertion runs mod m.
        """
        if not isinstance(other, Ideal):
            return NotImplemented
        if other.K != self.K:
            raise FieldMismatchError("ideals of different fields")
        K = self.K
        small, big = self, other
        if len(other._generators()) < len(self._generators()):
            small, big = other, self
        gens = None
        # capped at d, so repeated squaring cannot multiply the record out
        if self._gens and other._gens and len(self._gens) * len(other._gens) <= K.degree:
            gens = tuple(g * h for g in self._gens for h in other._gens)
        if small._gens and len(small._gens) == 1 and self.denom == other.denom == 1:
            return Ideal._times(small._gens[0], big, gens)
        lat = IntLattice(K.degree, modulus=self._lattice_integer() * other._lattice_integer())
        for u in small._generators():
            lat.extend(K.mul_vectors(u, big._basis or big.cols))
        return _normalized(K, lat.basis_columns(), self.denom * other.denom, gens=gens)

    def _lattice_integer(self):
        """A positive integer in the numerator lattice: for u*J, |N(u)| times
        that of J, read from the factors (N(u) = u * N(u)/u and N(u)/u is
        integral); else the least one."""
        if self._factors is None:
            return self._least_integer()
        u, J = self._factors
        return abs(u.norm_int()) * (J._lattice_integer() if J else 1)

    def _least_integer(self):
        """The least m > 0 with m*e_0 in the numerator lattice.

        With H[i][j] = cols[j][i] lower triangular, y = det * H^-1 e_0 is the
        integral first adjugate column; m*e_0 = H (m*y/det) is in the lattice
        exactly when det / gcd(det, y) divides m. Both index orders reversed,
        H is upper triangular and y reversed is found by back-substitution.
        """
        cols = self.cols
        d, det = len(cols), self.det()
        upper = list(zip(*(c[::-1] for c in reversed(cols))))
        return det // gcd(det, *int_back_substitution(upper, [0] * (d - 1) + [det]))

    def _generators(self):
        """Coordinates of O_K-module generators of the numerator lattice: the
        recorded ones when there are fewer than d, else `_basis` or `cols`."""
        if self._gens and len(self._gens) < self.K.degree:
            return [g.coords for g in self._gens]
        return self._basis or self.cols

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        out = Ideal.ring(self.K)
        base = self
        while e > 0:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def inverse(self):
        """The fractional inverse, with I * I^-1 = O_K verified.

        For n = det(I), n*I^-1 is cut out by one congruence per O_K-module
        generator of the numerator lattice (`_saturate_kernel` on
        `_generators`: one generator for (u)). A lattice with one generator
        u is invertible, its inverse (1/u). For any other, where Z[theta] is
        maximal at every prime dividing both N(I) and disc(f)
        (`_maximal_above`; always when that gcd is 1, and at every prime
        when f = Phi_m), the norm check proves the inverse; otherwise, or
        when the gcd keeps a factor that trial division leaves, the product
        is checked.
        Raises NonInvertibleIdealError when I has no inverse.
        """
        if self._inv is not None:
            return self._inv
        K = self.K
        n = self.det()
        if n == 0:
            raise ZeroIdealError("zero ideal has no inverse")
        gens = self._generators()
        verified = len(gens) == 1 or _maximal_above(K, gcd(n, K.disc))
        lat = _saturate_kernel(K, gens, n)
        if lat.det() * n != n**K.degree:
            raise NonInvertibleIdealError("lattice is not invertible over this order")
        inv = _normalized(K, lat.basis_columns(), n)
        if self.denom != 1:
            inv = _normalized(
                K, [[self.denom * x for x in c] for c in inv.cols], inv.denom
            )
        if (self.norm() * inv.norm()) != 1:
            raise NonInvertibleIdealError("inverse norm check failed")
        if not verified and self * inv != Ideal.ring(K):
            raise NonInvertibleIdealError("ideal is not invertible in this order")
        self._inv = inv
        inv._inv = self
        return inv

    def divide(self, other):
        """Exact quotient self / other = self * other^-1.

        other must be invertible (NonInvertibleIdealError otherwise; every
        nonzero ideal is when Z[theta] is the maximal order) and must contain
        self, which for an invertible divisor is exactly the integrality of
        the quotient (NonDivisibleError otherwise).
        """
        if other.K != self.K:
            raise FieldMismatchError("ideals of different fields")
        q = self * other.inverse()
        if not q.is_integral():
            raise NonDivisibleError("divisor does not contain the dividend")
        if q.norm() * other.norm() != self.norm():
            raise NonDivisibleError("division is not exact in this order")
        return q


def _maximal_above(K, g):
    """Is Z[theta] maximal at every prime dividing g > 0
    (`order_is_maximal_at`)? False when `prime_factors` gives up, which
    leaves the caller to check."""
    try:
        primes = prime_factors(g)
    except GaveUpError:
        return False
    return all(order_is_maximal_at(p, K) for p in primes)


def _normalized(K, cols, denom, gens=None):
    """Reduce a (cols, denom) pair by the common content, which invalidates
    the recorded generators."""
    g = denom
    for c in cols:
        for x in c:
            g = gcd(g, x)
            if g == 1:
                break
        if g == 1:
            break
    if g > 1:
        cols = [[x // g for x in c] for c in cols]
        denom //= g
        gens = None
    return Ideal(K, cols, denom, gens=gens)


def _saturate_kernel(K, vecs, n):
    """Lattice {y : y * b in n*O_K for every b in vecs}, i.e. n*I^-1.

    vecs are the coordinates of O_K-module generators of the integral
    ideal I (its HNF columns are one such set). The congruences
    M_b y = 0 (mod n) are collected as functionals, in reversed coordinate
    order; the solution lattice is n times the dual of the lattice they
    span together with n*Z^d.
    """
    d = K.degree
    r = IntLattice(d, modulus=n)
    for c in vecs:
        mcols = K.mul_matrix_columns(list(c))
        for i in range(d):
            r.add([mcols[j][i] for j in range(d - 1, -1, -1)])
    return _scaled_dual(r, n)


def _scaled_dual(r, n):
    """n * (dual of R) for a full-rank lattice R containing n*Z^d, given as
    the lattice r of R with its coordinates reversed.

    Read back in order, r's HNF is an upper triangular basis of R, so n
    times its dual basis is lower triangular: column k is z reversed, for
    the solution z of U z = n*e_{d-1-k} (U[i][j] = cols[i][j]), which is
    zero past index d-1-k. That echelon basis only needs canonicalizing.
    """
    d = r.dim
    cols = r.basis_columns()
    rows = []
    for k in range(d):
        z = int_back_substitution(cols, [0] * (d - 1 - k) + [n])
        rows.append([0] * k + z[::-1])
    return IntLattice.from_echelon(rows, n)


# ---------------------------------------------------------------------------
# Prime ideals and factorization of rational primes

class PrimeIdeal:
    """A prime of Z[theta] in two-element form (p, g(theta)).

    gen_poly is the monic irreducible factor of the defining polynomial
    mod p that cuts out this prime, with coefficients canonically in [0, p);
    a given polynomial is divided by its leading coefficient mod p, and its
    degree, at least 1, is the residue degree. The ramification index is
    read from the equal prime of `kummer_dedekind`, an error if none is.

    A prime of norm p from `prime_from_generators` is prime by its norm
    alone, so it keeps its generators instead of its form: gen_poly =
    gcd(f, generators) mod p is taken on the first read of it, or of
    ram_index, ==, hash, to_ideal or label. For f = Phi_m and p = 1 (mod m)
    that gcd is x - a for the one root a of f mod p at which every
    generator vanishes (`_common_roots`).
    """

    __slots__ = ("K", "p", "res_degree", "_gen_poly", "_ram_index", "_gens", "_ideal")

    def __init__(self, K, p, gen_poly):
        self.K = K
        self.p = int(p)
        self._gen_poly = tuple(fppoly.monic(fppoly.from_ints(gen_poly, self.p), self.p))
        self.res_degree = len(self._gen_poly) - 1
        self._ram_index = self._gens = self._ideal = None
        if self.res_degree < 1:
            raise ValueError("gen_poly must have degree at least 1 mod p")

    @classmethod
    def _of_norm_p(cls, K, p, gens):
        """The prime of norm p that `gens` generate modulo p, its form unread."""
        P = cls.__new__(cls)
        P.K, P.p, P.res_degree = K, p, 1
        P._gen_poly = P._ram_index = P._ideal = None
        P._gens = gens
        return P

    @property
    def gen_poly(self):
        if self._gens is not None:
            K, p, m = self.K, self.p, cyclotomic_order(self.K)
            if m and p % m == 1:
                roots = _common_roots(m, p, self._gens)
                G, degree = ((-roots[0] % p, 1) if roots else ()), len(roots)
            else:
                G = tuple(_generated_gcd(fppoly.from_ints(K.poly, p), p, self._gens))
                degree = len(G) - 1
            if degree != 1:
                raise DpipError(
                    f"generators of a norm-{p} prime cut out a factor of degree {degree}"
                )
            self._gen_poly = G
            self._gens = None
        return self._gen_poly

    @property
    def ram_index(self):
        if self._ram_index is None:
            listed = [P for P in kummer_dedekind(self.p, self.K) if P == self]
            if not listed:
                raise DpipError(f"{self.label()} is no prime above {self.p}")
            self._ram_index = listed[0]._ram_index
        return self._ram_index

    def norm(self):
        return self.p**self.res_degree

    def to_ideal(self):
        """The ideal (p, g(theta)), with its canonical HNF in closed form.

        It is {a : g divides a(x) mod p} (Cohen, GTM 138, 4.8.13), of index
        p^f for f = deg g. For g = x (p | f(0)) that is a_0 = 0 mod p: the
        columns p e_0 and e_j for j >= 1. Otherwise x is invertible mod (g,
        p), and for j < d - f it holds x^j + x^(d-f) r_j, r_j = -x^(j-d+f)
        mod (g, p) of degree < f: column j is e_j with r_j in the last f
        slots, column j >= d - f is p e_j (every column, when f = d). The
        pivots give index p^f, so the columns span the ideal, and with
        every entry below a pivot in [0, p) they are its canonical HNF.
        """
        if self._ideal is not None:
            return self._ideal
        K, p, g = self.K, self.p, self.gen_poly
        d, f = K.degree, self.res_degree
        cols = [[0] * d for _ in range(d)]
        if g == (0, 1):
            cols[0][0] = p
            for j in range(1, d):
                cols[j][j] = 1
        else:
            # x^-1 = -(g - g_0) / (g_0 x) mod (g, p), and r x^-1 = r' + r_0 x^-1
            # for r = r_0 + x r', so r_j follows from r_(j+1), and r_(d-f) = -1
            inv = [-c * pow(g[0], -1, p) % p for c in g[1:]]
            r = [p - 1] + [0] * (f - 1)
            for j in range(d - f - 1, -1, -1):
                r = [(a + r[0] * b) % p for a, b in zip(r[1:] + [0], inv)]
                cols[j][j] = 1
                cols[j][d - f :] = r
            for j in range(d - f, d):
                cols[j][j] = p
        gens = (K.rational(p),)
        if f < d:
            gens += (K.element(list(g) + [0] * (d - f - 1)),)
        self._ideal = Ideal(K, cols, 1, gens=gens)
        return self._ideal

    def __eq__(self, other):
        return (
            isinstance(other, PrimeIdeal)
            and self.K == other.K
            and self.p == other.p
            and self.gen_poly == other.gen_poly
        )

    def __hash__(self):
        return hash((self.K.poly, self.p, self.gen_poly))

    def __repr__(self):
        return f"PrimeIdeal(p={self.p}, g={poly_str(self.gen_poly, 'x')}, f={self.res_degree})"

    def label(self, var="θ"):
        return f"({decimal_str(self.p)}, {poly_str(self.gen_poly, var)})"


def kummer_dedekind(p, K):
    """Factor p*O_K by factoring the defining polynomial mod p (Cohen,
    GTM 138, 4.8.13). In a field with f = Phi_m (`cyclotomic_order`), a
    prime p = 1 (mod m) splits into the x - z^k for z of order m mod p
    (`_common_roots`); every other prime goes to `fppoly.factor`, which takes
    a quadratic at odd p from a square root of its discriminant mod p, and
    anything else with sympy's factoring.

    Returns the list of PrimeIdeal factors, sorted by (residue degree,
    gen_poly); each one's ram_index is the exponent of its factor, which
    every other PrimeIdeal reads from here. The product with multiplicities
    recomposes (p); the exponent-weighted degrees sum to d.
    """
    p = int(p)
    if p in K._kd_cache:
        return K._kd_cache[p]
    if p < 2 or not isprime(p):
        raise ValueError(f"{p} is not prime")
    m = cyclotomic_order(K)
    if m and p % m == 1:
        factors = [((c, 1), 1) for c in sorted(-z % p for z in _common_roots(m, p, [K.poly]))]
    else:
        factors = fppoly.factor(list(K.poly), p)
    if sum(e * (len(coeffs) - 1) for coeffs, e in factors) != K.degree:
        raise DpipError("Kummer-Dedekind degree bookkeeping failed")
    out = [PrimeIdeal(K, p, coeffs) for coeffs, _ in factors]
    for P, (_, e) in zip(out, factors):
        P._ram_index = e
    K._kd_cache[p] = out
    return out


def as_prime_ideal(ideal):
    """The PrimeIdeal equal to this integral ideal, or None.

    Norm 1 and non-prime-power norms are rejected from the norm alone; an
    ideal of norm p^k is then read by `prime_from_generators` from its
    Z[theta]-module generators.
    """
    if ideal.denom != 1:
        raise ValueError("prime test requires an integral ideal")
    pk = prime_power(ideal.det())
    if pk is None:
        return None
    return prime_from_generators(ideal.K, *pk, ideal._generators())


def prime_from_generators(K, p, k, gens):
    """The prime (p, G(theta)) equal to the ideal J of norm p^k, or None;
    the integer coordinate vectors `gens` generate J + (p) over Z[theta].

    Z[theta]/(p) = F_p[x]/(f), so J + (p) = (p, G(theta)) for G = gcd(f,
    g for g in gens) mod p, an ideal of index p^deg G containing J. Hence
    J = (p, G(theta)) exactly when deg G = k, and as a prime of norm p^k
    contains p, J is prime exactly when also G is an irreducible factor of
    f mod p, that is the gen_poly of a prime of `kummer_dedekind` (Cohen,
    GTM 138, 4.8.13). No maximality at p is needed.

    For k = 1 no gcd runs: Z[theta]/J has p elements, so it is F_p and J is
    prime by its norm, and G (of degree 1, since p is in J) is taken when
    the prime's form is first read (`PrimeIdeal`).
    """
    if k == 1:
        return PrimeIdeal._of_norm_p(K, p, gens)
    G = tuple(_generated_gcd(fppoly.from_ints(K.poly, p), p, gens, k))
    if len(G) - 1 != k:
        return None
    return next((P for P in kummer_dedekind(p, K) if P.gen_poly == G), None)


def _generated_gcd(f, p, gens, least=0):
    """gcd(f, g for g in gens) mod p, stopping once its degree is below
    `least`."""
    G = f
    for g in gens:
        G = fppoly.gcd(G, fppoly.from_ints(g, p), p)
        if fppoly.deg(G) < least:
            break
    return G


def order_is_maximal_at(p, K):
    """Is Z[theta] maximal at p? (cached on K) Always when f = Phi_m, as
    Z[zeta_m] is the ring of integers of Q(zeta_m) (Washington, GTM 83,
    Thm. 2.6); otherwise by Dedekind's criterion."""
    p = int(p)
    if p not in K._maximal_at:
        if not isprime(p):
            raise ValueError(f"{p} is not prime")
        K._maximal_at[p] = bool(K._cyclo) or _dedekind_criterion(p, K)
    return K._maximal_at[p]


def _dedekind_criterion(p, K):
    gbar = [1]
    hbar = [1]
    for P in kummer_dedekind(p, K):
        gbar = fppoly.mul(gbar, list(P.gen_poly), p)
        for _ in range(P.ram_index - 1):
            hbar = fppoly.mul(hbar, list(P.gen_poly), p)
    repeated = fppoly.gcd(gbar, hbar, p)
    if fppoly.deg(repeated) == 0:
        return True
    # g*h is only needed mod p^2: (g*h - f) / p is read mod p
    lift = fppoly.mul(gbar, hbar, p * p)
    diff = lift + [0] * max(0, len(K.poly) - len(lift))
    for i, c in enumerate(K.poly):
        diff[i] -= c
    fbig = [c // p for c in diff]
    if any(c * p != d for c, d in zip(fbig, diff)):
        raise DpipError("Dedekind lift failed")
    fbar = fppoly.from_ints(fbig, p)
    g = fppoly.gcd(fbar, repeated, p)
    return fppoly.deg(g) == 0


# ---------------------------------------------------------------------------
# Polynomials over O_K: discriminant as a Hankel determinant of power sums

def power_sums(coeffs, count):
    """s_0, ..., s_{count-1}: the sums of the k-th powers of the roots of a
    monic polynomial, coefficients (ints or FieldElements) from x^0 up.

    Newton's identities, with no division: s_0 = n and s_k = -(k c_{n-k} +
    sum_{i=1}^{min(k-1, n)} c_{n-i} s_{k-i}), the first term only for k <= n.
    Products with a zero factor are skipped (`== zero` tests ints and
    FieldElements alike): x^q - beta has one nonzero power sum in q.
    """
    n = len(coeffs) - 1
    zero = coeffs[n] * 0
    s = [coeffs[n] * n]
    for k in range(1, count):
        terms = [
            coeffs[n - i] * s[k - i]
            for i in range(1, min(k - 1, n) + 1)
            if not (coeffs[n - i] == zero or s[k - i] == zero)
        ]
        if k <= n and not coeffs[n - k] == zero:
            terms.append(coeffs[n - k] * k)
        s.append(-sum(terms, zero))
    return s


def poly_discriminant(coeffs):
    """Discriminant of a monic polynomial with int or FieldElement
    coefficients, of the type of its coefficients.

    With V the Vandermonde matrix of the roots, disc = det(V)^2 = det(V V^T),
    and V V^T is the Hankel matrix (s_{i+j}) of the roots' power sums, which
    lie in the coefficients' ring, Z or O_K (`power_sums`); its determinant
    is taken with no division (`division_free_det`).
    """
    coeffs = list(coeffs)
    if len(coeffs) < 2:
        raise ValueError("discriminant needs degree >= 1")
    if coeffs[-1] != 1:
        raise ValueError("polynomial must be monic")
    n = len(coeffs) - 1
    s = power_sums(coeffs, 2 * n - 1)
    return division_free_det([s[i : i + n] for i in range(n)], coeffs[-1] * 0)


def division_free_det(a, zero):
    """Determinant of a square matrix over a commutative ring, with no
    division (Bird, Inform. Process. Lett. 111, 2011, 1072-1074).

    From X = A, n - 1 times X <- mu(X) A, where mu(X) keeps the strict upper
    triangle of X, has minus the sum of X's diagonal entries below row i at
    (i, i) and is zero below the diagonal; then det A = (-1)^(n-1) X[0][0],
    so the last product needs only that entry. Products with a zero factor
    are skipped, as the Hankel matrix of a binomial is mostly zeros.
    """
    n = len(a)
    acols = [[row[j] for row in a] for j in range(n)]
    x = a
    for step in range(n - 1, 0, -1):
        mu, t = [None] * n, zero
        for i in range(n - 1, -1, -1):
            row = [t, *x[i][i + 1 :]]
            mu[i] = [(i + k, v) for k, v in enumerate(row) if not v == zero]
            t = t - x[i][i]
        size = n if step > 1 else 1
        x = [
            [sum((v * col[k] for k, v in mu[i] if not col[k] == zero), zero) for col in acols[:size]]
            for i in range(size)
        ]
    return x[0][0] if n % 2 else -x[0][0]
