"""Independent oracles used to cross-check the production code.

Everything here is deliberately written from scratch against the
mathematical definitions (naive lattice closure, rational-arithmetic LLL,
exhaustive searches) so the tests do not share code paths with the
implementations they are checking.
"""

from fractions import Fraction
from functools import cache
from itertools import product
from math import gcd

from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dup_discriminant, dup_resultant
from sympy.polys.galoistools import gf_factor, gf_irreducible_p

from dpip.decide import _combiner
from dpip.intlattice import IntLattice, bareiss
from dpip.lll import DELTA, lll_reduce
from dpip.nf import Ideal, _cyclotomic_poly, _packed_basis, _totients, int_back_substitution


@cache
def sympy_factor(coeffs, p):
    """Factorization of the integer polynomial `coeffs` (a tuple, low degree
    first) over F_p by sympy's `gf_factor` alone, in `fppoly.factor`'s form:
    monic factors low degree first, sorted by (degree, coefficients).
    Cached, as it is the slow reference of several tests."""
    _, factors = gf_factor([c % p for c in reversed(coeffs)], p, ZZ)
    out = [(tuple(int(c) for c in reversed(f)), int(e)) for f, e in factors]
    return sorted(out, key=lambda t: (len(t[0]), t[0]))


def irreducible_mod_p(coeffs, p):
    """Irreducibility over F_p of a monic integer polynomial (low degree
    first) of degree >= 1, by sympy's `gf_irreducible_p` alone: the
    reference that picks irreducible moduli for residue-field tests."""
    return gf_irreducible_p([c % p for c in reversed(coeffs)], p, ZZ)


def prime_ideal_by_insertion(P):
    """The HNF columns of P = (p, g(theta)) by lattice insertion: p Z^d and
    the multiples g(theta) theta^j, j < d, inserted into an IntLattice mod
    p. The reference for the closed form of `PrimeIdeal.to_ideal`."""
    K, p = P.K, P.p
    lat = IntLattice(K.degree, modulus=p)
    if P.res_degree < K.degree:
        g = list(P.gen_poly) + [0] * (K.degree - P.res_degree - 1)
        lat.extend(K.mul_matrix_columns(g))
    return lat.basis_columns()


def naive_lattice_basis(vectors):
    """Row-style integer lattice basis by plain gcd elimination.

    Returns a list of echelon basis rows (pivot = first nonzero index) from
    which determinant and membership can be derived. Intentionally naive.
    """
    vecs = [list(map(int, v)) for v in vectors if any(v)]
    dim = len(vectors[0])
    basis = {}

    def insert(v):
        for j in range(dim):
            if v[j] == 0:
                continue
            if j not in basis:
                if v[j] < 0:
                    v = [-x for x in v]
                basis[j] = v
                return
            w = basis[j]
            while v[j]:
                q = w[j] // v[j]
                w2 = [a - q * b for a, b in zip(w, v)]
                basis[j], v = v, w2
                w = basis[j]
                if v[j] and abs(v[j]) > abs(w[j]):
                    basis[j], v = v, basis[j]
                    w = basis[j]
            # v[j] == 0: keep reducing the remainder
        # fully reduced

    for v in vecs:
        insert(list(v))
    # one more pass so earlier rows see later pivots
    changed = True
    while changed:
        changed = False
        rows = sorted(basis.items())
        for j, v in rows:
            for j2, w in rows:
                if j2 <= j:
                    continue
                q = v[j2] // w[j2] if w[j2] else 0
                if q:
                    basis[j] = [a - q * b for a, b in zip(v, w)]
                    v = basis[j]
                    changed = True
    return [basis[j] for j in sorted(basis)]


def plain_combination(basis, coeffs):
    """sum_j coeffs_j * basis_j, coordinate by coordinate."""
    out = [0] * len(basis[0])
    for c, b in zip(coeffs, basis):
        for i, x in enumerate(b):
            out[i] += c * x
    return out


def combine(K, basis, coeffs):
    """sum_j coeffs_j * basis_j as the packed element a switching draw
    makes (`decide._combiner`), packed for this draw's largest |c_j|."""
    return _combiner(K, _packed_basis(basis, max(map(abs, coeffs))))(coeffs)


def sympy_resultant(f, g):
    """Res(f, g) for integer polynomials (little-endian) with deg f > deg g,
    by sympy's subresultant PRS (`dup_resultant`, which takes the longer
    polynomial first)."""
    g = [int(c) for c in reversed(g)]
    while g and not g[0]:
        g.pop(0)
    if not g:
        return 0
    return int(dup_resultant([int(c) for c in reversed(f)], g, ZZ))


def sympy_discriminant(f):
    """disc(f) of an integer polynomial (little-endian), by sympy's
    `dup_discriminant`."""
    return int(dup_discriminant([int(c) for c in reversed(f)], ZZ))


def resultant_norm(a):
    """N(a) = Res(f, g) for a = g(theta), by the subresultant PRS: the
    reference for every other norm path."""
    return sympy_resultant(a.K.poly, a.coords)


def norm_quotient(u):
    """(beta, n) with u * beta == n == N(u) for a nonzero u, beta in
    Z[theta]: n * M_u^-1 e_0 is the first column of the adjugate of u's
    multiplication matrix M_u, so it is integral. Bareiss elimination on
    [M_u | e_0], then back-substitution."""
    K, d = u.K, u.K.degree
    a = [[*row, int(i == 0)] for i, row in enumerate(zip(*K.mul_matrix_columns(u.coords)))]
    n = bareiss(a)
    return K.element(int_back_substitution(a, [n * row[d] for row in a])), n


def principal_inverse(a, den=1):
    """The ideal (den/a) for a nonzero element a and an int den >= 1: (den *
    beta) / |n| for (beta, n) = norm_quotient(a), as a * beta = n. Its
    numerator is spanned by the den * beta * theta^j and den * |n| Z^d
    (which lies in (den * beta), as beta divides n), inserted into a
    lattice mod den * |n|, then reduced by the content it shares with |n|."""
    K = a.K
    beta, n = norm_quotient(a)
    n = abs(n)
    lat = IntLattice(K.degree, modulus=den * n)
    lat.extend(K.mul_matrix_columns([den * c for c in beta.coords]))
    cols = lat.basis_columns()
    g = gcd(n, *(x for c in cols for x in c))
    return Ideal(K, [[x // g for x in c] for c in cols], n // g)


def in_product(u, J, vecs):
    """Whether every integer vector lies in u*J (J None for O_K): v is in
    u*J exactly when n divides beta * v and v/u = beta * v / n lies in J, for
    (beta, n) = norm_quotient(u), with beta * v by plain multiplication."""
    K = u.K
    beta, n = norm_quotient(u)
    quots = []
    for v in vecs:
        w = K.mul_coords(beta.coords, list(v))
        if any(x % n for x in w):
            return False
        quots.append([x // n for x in w])
    return J is None or J.contains_vectors(quots)


def naive_det(rows):
    """Fraction Gaussian elimination determinant."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for r in range(k + 1, n):
            f = a[r][k] * inv
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return det


def bareiss_det(rows):
    """Exact determinant of a square integer matrix by fraction-free
    Bareiss elimination: the reference for `intlattice.modular_det`."""
    return bareiss([list(map(int, row)) for row in rows])


def gram_of(vectors, gram):
    """u^T gram v over every pair of vectors, from gram v once per vector and
    skipping zero coordinates."""
    gv = [[sum(g * x for g, x in zip(row, v) if x) for row in gram] for v in vectors]
    return [[sum(x * y for x, y in zip(u, w) if x) for w in gv] for u in vectors]


def is_lll_reduced(vectors, gram, delta=DELTA):
    """Exact check of size reduction and the Lovasz condition, in integers.

    With d[k] the leading k x k minor of the vectors' Gram matrix and
    lam[i][j] = mu_ij d[j+1] (Cohen, GTM 138, 2.6.7), |mu_ij| <= 1/2 is
    2 |lam[i][j]| <= d[j+1], |b*_k|^2 = d[k+1] / d[k] > 0 is d[k+1] > 0,
    and |b*_k|^2 >= (delta - mu_{k,k-1}^2) |b*_{k-1}|^2 is
    den (d[k+1] d[k-1] + lam[k][k-1]^2) >= num d[k]^2.
    """
    n = len(vectors)
    dnum, dden = delta
    ips = gram_of(vectors, gram)
    lam = [[0] * n for _ in range(n)]
    d = [1] * (n + 1)
    for i in range(n):
        for j in range(i + 1):
            u = ips[i][j]
            for t in range(j):
                u = (d[t + 1] * u - lam[i][t] * lam[j][t]) // d[t]
            if j == i:
                if u <= 0:
                    return False
                d[i + 1] = u
            elif 2 * abs(u) > d[j + 1]:
                return False
            else:
                lam[i][j] = u
    return all(
        dden * (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2) >= dnum * d[k] ** 2 for k in range(1, n)
    )


def lll_reference(basis, gram, delta=DELTA):
    """Textbook LLL over Fractions with inner product u^T gram v, at delta
    given as a num/den pair."""
    delta = Fraction(*delta)

    def ip(u, v):
        return Fraction(
            sum(ui * sum(g * vj for g, vj in zip(grow, v)) for ui, grow in zip(u, gram))
        )

    basis = [list(v) for v in basis]
    n = len(basis)

    def gs():
        mu = [[Fraction(0)] * n for _ in range(n)]
        norms = [Fraction(0)] * n
        for i in range(n):
            for j in range(i):
                acc = ip(basis[i], basis[j])
                for t in range(j):
                    acc -= mu[i][t] * mu[j][t] * norms[t]
                mu[i][j] = acc / norms[j]
            acc = ip(basis[i], basis[i])
            for t in range(i):
                acc -= mu[i][t] ** 2 * norms[t]
            norms[i] = acc
        return mu, norms

    k = 1
    while k < n:
        mu, norms = gs()
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[j])]
                mu, norms = gs()
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            basis[k], basis[k - 1] = basis[k - 1], basis[k]
            k = max(k - 1, 1)
    return basis


def residue_elements(p, f):
    """All p^f elements of a residue field F_p[y]/(h), h of degree f, as
    trimmed little-endian lists (test-sized fields only)."""
    for coeffs in product(range(p), repeat=f):
        yield fq_trim(list(coeffs))


# Schoolbook arithmetic in F_q = F_p[y]/(h), h monic, and in F_q[x]: the
# reference for `dpip.residue`, which it shares no code with. Elements and
# polynomials are trimmed little-endian lists, as there.


def fq_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def fq_reduce(a, p, h):
    """a(y) mod (h, p) for an integer list a."""
    a = [c % p for c in a]
    f = len(h) - 1
    for k in range(len(a) - 1, f - 1, -1):
        c = a.pop()
        for j in range(f):
            a[k - f + j] = (a[k - f + j] - c * h[j]) % p
    return fq_trim(a)


def fq_add(a, b, p):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return fq_trim([(x + y) % p for x, y in zip(a, b)])


def fq_sub(a, b, p):
    return fq_add(a, [-c % p for c in b], p)


def fq_mul(a, b, p, h):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return fq_reduce(out, p, h)


def fq_pow(a, e, p, h):
    out = [1]
    while e:
        if e & 1:
            out = fq_mul(out, a, p, h)
        a, e = fq_mul(a, a, p, h), e >> 1
    return out


def fqx_mul(a, b, p, h):
    out = [[] for _ in range(len(a) + len(b))]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = fq_add(out[i + j], fq_mul(x, y, p, h), p)
    return fq_trim(out)


def fqx_mod(a, m, p, h):
    """a mod a monic m over F_q."""
    if m[-1] != [1]:
        raise ValueError("fqx_mod needs a monic modulus")
    a, n = list(a), len(m) - 1
    while len(a) > n:
        c = a.pop()
        k = len(a) - n
        for j in range(n):
            a[k + j] = fq_sub(a[k + j], fq_mul(c, m[j], p, h), p)
    return fq_trim(a)


def residue_evaluate(g, x, p, h):
    """g(x) for a polynomial g over F_p[y]/(h) at an element x, by Horner."""
    acc = []
    for c in reversed(g):
        acc = fq_add(fq_mul(acc, x, p, h), c, p)
    return acc


def splits_reference(g, p, h):
    """x^q == x mod g for a monic g over F_q = F_p[y]/(h), q = p^f, with
    x^q taken as f successive p-th powers, each by right-to-left
    square-and-multiply with a full product per set bit: the reference for
    `residue.splits_completely`, which also checks that g is squarefree."""

    def pow_mod(base, e):
        result = [[1]]
        while e > 0:
            if e & 1:
                result = fqx_mod(fqx_mul(result, base, p, h), g, p, h)
            base = fqx_mod(fqx_mul(base, base, p, h), g, p, h)
            e >>= 1
        return result

    x = fqx_mod([[], [1]], g, p, h)
    xq = x
    for _ in range(len(h) - 1):
        xq = pow_mod(xq, p)
    return xq == x


def represents(m, target, bound=None):
    """Exhaustive search for target = a^2 + m*b^2 (imaginary quadratic norm)."""
    from math import isqrt

    if target < 0:
        return False
    bmax = isqrt(target // m) if m else 0
    for b in range(bmax + 1):
        rest = target - m * b * b
        if rest < 0:
            continue
        a = isqrt(rest)
        if a * a == rest:
            return True
    return False


def principal_by_representation(K, ideal):
    """Principality oracle for Z[sqrt(-m)] by exhaustive norm representation.

    An integral ideal of norm n in Z[sqrt(-m)] is principal iff some
    element a + b*sqrt(-m) of norm exactly n generates it.
    """
    from math import isqrt

    m = K.poly[0]
    n = ideal.norm_int()
    bmax = isqrt(n // m) if m else 0
    for b in range(bmax + 1):
        rest = n - m * b * b
        if rest < 0:
            continue
        a = isqrt(rest)
        if a * a != rest:
            continue
        for sa in ({a, -a} if a else {0}):
            for sb in ({b, -b} if b else {0}):
                cand = K.element([sa, sb])
                if cand.is_zero():
                    continue
                if Ideal.principal(K, cand) == ideal:
                    return True
    return False


@cache
def _totient_preimage(d):
    """The m <= 2d^2 with phi(m) = d."""
    phi = _totients(2 * d * d)
    return frozenset(m for m in range(1, len(phi)) if phi[m] == d)


def theta_order_rule(poly):
    """The m with poly = Phi_m, else 0, by the order of theta: a unit
    (|f(0)| = 1) theta of some order m with phi(m) = d, found by repeated
    multiplication by theta mod f up to the largest such m <= 2d^2, and f
    equal to Phi_m (coefficients little-endian)."""
    d = len(poly) - 1
    if abs(poly[0]) != 1:
        return 0
    candidates = _totient_preimage(d)
    if not candidates:
        return 0
    one = [1] + [0] * (d - 1)
    v = one
    for m in range(1, max(candidates) + 1):
        # theta * v: shift up, then theta^d = -(f_0 + ... + f_(d-1) theta^(d-1))
        top = v[-1]
        v = [x - top * c for x, c in zip([0, *v[:-1]], poly)]
        if v == one:
            return m if m in candidates and tuple(poly) == _cyclotomic_poly(m) else 0
    return 0


def lll_basis(ideal):
    """The reduced basis of the ideal itself, as field elements: u x W for
    u*J and W for any other ideal, from the cofactor side (J, W) of
    lll_reduce. It is the basis a reduction of u x B_J returns."""
    K = ideal.K
    _, W = lll_reduce(ideal)
    if ideal._factors is not None:
        W = K.mul_vectors(ideal._factors[0].coords, W)
    return [K.element(v) for v in W]
