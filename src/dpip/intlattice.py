"""Integer lattices in Z^d maintained in column-style Hermite form modulo
a positive integer m (Cohen, GTM 138, ch. 2).

A basis vector with pivot at index j has zeros before j and a positive
entry at j; the canonical form additionally reduces every entry below a
pivot modulo that row's own pivot. Canonical Hermite form is unique per
lattice, which is what makes ideal representations comparable bit for bit.

The lattice is seeded with m*e_j for every j (callers must guarantee m*Z^d
lies inside the target lattice, e.g. m a multiple of the ideal norm), so it
has full rank throughout and entries are reduced mod m, which keeps
coefficient growth bounded during insertion.
"""

from math import isqrt
from operator import mul

from .errors import DpipError
from .ntheory import isprime


def xgcd(a, b):
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def bareiss(a):
    """Fraction-free Gaussian elimination, in place, on the rows of a.

    a has n rows of length m >= n. The leading n x n block becomes upper
    triangular and every later column follows the same row operations, so
    an augmented right-hand side is carried along. A row moved up to fill a
    zero pivot is negated, which keeps the determinant of the block
    unchanged. Returns that determinant, left in a[n-1][n-1], or 0 when
    the block is singular.
    """
    n = len(a)
    if n == 0:
        return 1
    m = len(a[0])
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = [-v for v in a[r]], a[k]
                    break
            else:
                return 0
        akk = a[k][k]
        top = a[k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row = a[i]
            for j in range(k + 1, m):
                row[j] = (akk * row[j] - aik * top[j]) // prev
            row[k] = 0
        prev = akk
    return a[n - 1][n - 1]


def modular_det(rows):
    """Exact determinant of a square integer matrix (given as rows).

    |det| is at most the Hadamard bound H, the product of the rows'
    Euclidean lengths, here each rounded up to an integer, so det is the
    residue of least absolute value modulo the first prime q > 2H. The
    result does not rest on q being prime: `det_mod` is exact over any Z/q
    or raises, and a prime q only makes every nonzero pivot invertible.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    bound = 1
    for row in rows:
        s = sum(map(mul, row, row))
        r = isqrt(s)
        bound *= r + (r * r < s)
    q = 2 * bound + 1
    while not isprime(q):
        q += 2
    d = det_mod(rows, q)
    return d - q if 2 * d > q else d


def det_mod(rows, q):
    """det mod q of a square integer matrix, by elimination on sparse rows.

    Each column is cleared below a pivot row holding it with the fewest
    nonzeros, by multiples of that row over the pivot. With invertible pivots
    the elimination is exact over Z/q for any q; a pivot with no inverse,
    which a prime q cannot give, raises DpipError.
    """
    a = [{j: x % q for j, x in enumerate(row) if x % q} for row in rows]
    n = len(a)
    det = 1
    for k in range(n):
        live = [i for i in range(k, n) if k in a[i]]
        if not live:
            return 0
        i = min(live, key=lambda i: len(a[i]))
        top = a[i]
        others = [a[r] for r in live if r != i]
        if i != k:
            a[k], a[i] = top, a[k]
            det = -det
        pivot = top.pop(k)
        try:
            inv = pow(pivot, -1, q)
        except ValueError:
            raise DpipError(f"pivot {pivot} is not invertible modulo {q}") from None
        det = det * pivot % q
        for row in others:
            c = row.pop(k) * inv % q
            for j, x in top.items():
                y = (row.get(j, 0) - c * x) % q
                if y:
                    row[j] = y
                else:
                    row.pop(j, None)
    return det % q


def echelon_remainder(rows, vec):
    """Remainder of vec after reduction against an echelon basis: rows[j] is
    zero before index j with a positive pivot at j.

    The result is zero exactly when vec lies in the lattice the rows span;
    otherwise the nonzero entries sit at rows whose pivot does not divide
    them.
    """
    v = [int(x) for x in vec]
    d = len(v)
    for j, r in enumerate(rows):
        x = v[j]
        if x:
            q = x // r[j]
            if q:
                for i in range(j, d):
                    v[i] -= q * r[i]
    return v


class IntLattice:
    __slots__ = ("dim", "modulus", "rows")

    def __init__(self, dim, modulus):
        if dim < 1:
            raise ValueError("dimension must be positive")
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        self.dim = dim
        self.modulus = modulus
        self.rows = [[modulus if i == j else 0 for i in range(dim)] for j in range(dim)]

    @classmethod
    def from_echelon(cls, rows, modulus):
        """The lattice with the echelon basis `rows` (rows[j] zero before
        index j, with a positive pivot at j); it must contain modulus*Z^d."""
        if any(r[j] <= 0 for j, r in enumerate(rows)):
            raise ValueError("echelon pivots must be positive")
        lat = cls(len(rows), modulus)
        lat.rows = [list(r) for r in rows]
        return lat

    def add(self, vec):
        """Insert a vector, keeping the echelon (pivot-per-row) structure."""
        d = self.dim
        if len(vec) != d:
            raise ValueError("dimension mismatch")
        m = self.modulus
        v = [int(x) % m for x in vec]
        rows = self.rows
        for j in range(d):
            x = v[j]
            if x == 0:
                continue
            r = rows[j]
            a = r[j]
            if x % a == 0:
                q = x // a
                for i in range(j, d):
                    v[i] -= q * r[i]
            else:
                g, s, t = xgcd(a, x)
                qa, qx = a // g, x // g
                for i in range(j, d):
                    ri, vi = r[i], v[i]
                    r[i] = s * ri + t * vi
                    v[i] = qa * vi - qx * ri
            for i in range(j + 1, d):
                r[i] %= m
                v[i] %= m
        # v reduced to zero: already in the lattice

    def extend(self, vectors):
        for v in vectors:
            self.add(v)

    def det(self):
        """Product of the pivots."""
        out = 1
        for j in range(self.dim):
            out *= self.rows[j][j]
        return out

    def basis_columns(self):
        """The canonical basis vectors, the unique HNF (column j has its
        pivot at index j), after reducing the entries below the pivots.

        Rows are reduced from the last one up, each against the rows below
        it, which are canonical by then. An entry is first taken mod m (m*e_i
        lies in the lattice, and the pivots stay), so every quotient is
        below m and the entries stay small. A canonical basis is left as it
        is.
        """
        d = self.dim
        m = self.modulus
        rows = self.rows
        for j in range(d - 2, -1, -1):
            v = rows[j]
            for i in range(j + 1, d):
                ri = rows[i]
                x = v[i] % m
                q = x // ri[i]
                v[i] = x - q * ri[i]
                if q:
                    for k in range(i + 1, d):
                        v[k] -= q * ri[k]
        return tuple(tuple(r) for r in rows)
