"""LLL reduction of ideal lattices under the canonical embedding.

The inner product is <x, y> = sum over complex embeddings sigma of
sigma(x) * conj(sigma(y)), evaluated through an integer Gram matrix on
power-basis coordinates that is computed once per field and cached on it:

* Cyclotomic fields get the exact Gram matrix. cyclotomic_order certifies
  f = Phi_m, so every root lies on the unit circle
  and the (j, k) entry is the power sum s_|j-k| of the roots, computed over
  Z by Newton's identities (`nf.power_sums`, which also gives discriminants
  over O_K). No floating point is involved.
* Every other field falls back to mpmath roots at fixed precision. If each
  entry lies within 2^-40 of an integer it is rounded (a tolerance test,
  not a proof); otherwise the form is scaled by 2^32 and rounded.

An inexact Gram matrix only shifts the reduction weights: the reduction runs
exactly on whatever integral form it is given, the basis transformation is
unimodular by construction, and lll_reduce checks exactly that the output
spans the input ideal before returning.

Every swap and size reduction is read from the Gram matrix alone, so the
reduction may be given any vectors together with the Gram matrix of other
vectors they map to linearly. An ideal u*J is reduced that way on its
cofactor side: the vectors are J's basis B_J (the identity for O_K), the
Gram matrix is that of u x B_J, and the transform W of B_J is checked
against J and returned with it. The switching step draws on J's side, so
neither u*J's Hermite form nor u x W is formed. In a cyclotomic field that
Gram matrix comes from u's weight form: |sigma(theta)| = 1 makes <u
theta^i, u theta^j> depend on i - j only, so d inner products give a
Toeplitz matrix T, and B_J^T T B_J follows (start_gram). Every other ideal
pays b_i^T G b_j per pair.

The reduction is float-guided where the Gram matrix fits in doubles
(integral_lll; L^2, Nguyen and Stehle, SIAM J. Comput. 39, 2009): mu and B
are taken from the Gram matrix as doubles, swaps and size reductions update
them as in Cohen's Algorithm 2.6.3 (GTM 138), and each transform is applied
exactly to the integer vectors. The cyclotomic symmetry makes exact ties
common (|mu| = 1/2 exactly, most often at (k, l) = (30, 0) for (alpha) in
Q(zeta_180)), and a double lands on either side of a tie. So both tests,
and the rounding of mu to q, keep a margin of FLOAT_MARGIN = 2^-30 (about
10^-9, against errors of at most about 10^-12 in mu on the tested inputs):
a tie goes the way of the exact algorithm's strict inequalities, and on
every input the tests try the basis is bit-identical to the exact one's.
A value that is no tie but lies within the margin of one would be decided
the other way; that changes which reduced basis comes out, not whether it
is a basis.

"Fits in doubles" is a matter of range, not of precision. Every entry of
the Gram matrix must lie below 2^FLOAT_GRAM_BITS = 2^511, half the
double's exponent range less one bit: no B_i ever exceeds the largest
diagonal entry (a swap only lowers max B_i), so the product B_{k-1} B_k a
swap forms stays below 2^1022 and finite. Precision is the pivot floor's
business: the float path also declines when a float pivot B_i is at most
2^-FLOAT_PIVOT_BITS times its diagonal entry (too small to tell from 0: the
zero pivot of a singular Gram matrix rounds to a tiny value of either
sign, and the ill-conditioned Gram of an HNF-given ideal at d = 48 fails
it as well), and gives up after FLOAT_STEPS * n^2 steps. In each of these
cases the all-integer LLL (exact_lll; Cohen 2.6, exact arithmetic on the
lambda/d Gram-Schmidt tables, which gram_schmidt takes from the Gram
matrix) runs instead, from the start. No verdict rests on a float either
way: the floats only choose unimodular transforms, and lll_reduce proves
exactly that the output spans the input.

The float Gram-Schmidt takes O(d^2) steps on a symmetric Toeplitz Gram
matrix, the one of u x O_K in a cyclotomic field (Schur's algorithm,
_float_schur), and Cholesky's O(d^3) recurrence in fixed point on any
other (_float_gram_schmidt).

DELTA is 3/4, the parameter of Lenstra, Lenstra and Lovasz (1982); the
algorithm accepts any 1/4 < delta < 1. Since the span check makes the
output exact at every such delta, delta only sets how short the reduced
basis, and so the switching draws over it, come out. A larger delta buys
slightly shorter vectors for many more swaps.
"""

import sys
from math import floor
from operator import mul

from .errors import DpipError, ZeroIdealError
from .intlattice import modular_det
from .nf import Ideal, cyclotomic_order, power_sums

_PREC_BITS = 192
_SCALE_BITS = 32
DELTA = (3, 4)
FLOAT_GRAM_BITS = sys.float_info.max_exp // 2 - 1
FLOAT_MARGIN = 2.0**-30
FLOAT_STEPS = 100
FLOAT_PIVOT_BITS = 40
_CHOLESKY_BITS = 96


def minkowski_gram(K):
    """Integer Gram matrix of the canonical-embedding form (cached on K).

    Exact from power sums when K is certified cyclotomic, numerical
    otherwise.
    """
    if K._gram is None:
        if cyclotomic_order(K) is not None:
            K._gram = _cyclotomic_gram(K)
        else:
            K._gram = _numerical_gram(K)
    return K._gram


def _cyclotomic_gram(K):
    """Exact Gram matrix for a field whose roots all lie on the unit circle.

    There conj(sigma(theta)) = sigma(theta)^-1, so the (j, k) entry is the
    power sum s_{j-k} (`power_sums`, over Z), and s_{-k} = s_k because s_k
    is a real integer.
    """
    d = K.degree
    s = power_sums(K.poly, d)
    return tuple(tuple(s[abs(j - k)] for k in range(d)) for j in range(d))


def _numerical_gram(K):
    """Gram matrix from mpmath roots, rounded to integers.

    Entries within 2^-40 of an integer are rounded; otherwise the whole
    form is scaled by 2^32 and rounded. Either way the reduction runs on an
    exact integral form; only its weights are approximate.
    """
    import mpmath

    d = K.degree
    with mpmath.workprec(_PREC_BITS + 8 * d):
        coeffs = [mpmath.mpf(c) for c in reversed(K.poly)]
        roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=_PREC_BITS)
        powers = []
        for r in roots:
            row = [mpmath.mpc(1)]
            for _ in range(d - 1):
                row.append(row[-1] * r)
            powers.append(row)
        gram = [[mpmath.mpf(0)] * d for _ in range(d)]
        for j in range(d):
            for k in range(j, d):
                acc = mpmath.mpf(0)
                for i in range(d):
                    acc += (powers[i][j] * mpmath.conj(powers[i][k])).real
                gram[j][k] = gram[k][j] = acc
        tol = mpmath.mpf(2) ** -40
        integral = all(abs(x - mpmath.nint(x)) < tol for row in gram for x in row)
        if integral:
            q = [[int(mpmath.nint(x)) for x in row] for row in gram]
        else:
            s = mpmath.mpf(2) ** _SCALE_BITS
            q = [[int(mpmath.nint(x * s)) for x in row] for row in gram]
    return tuple(tuple(row) for row in q)


def form_gram(vectors, form):
    """Gram matrix <b_i, b_j> = b_i^T G b_j of vectors under a symmetric form
    G: G b_i for each vector, then a dot product per pair, both summed over
    the nonzero entries of the vectors only."""
    nonzero = [[(k, x) for k, x in enumerate(b) if x] for b in vectors]
    gb = [[sum(x * row[k] for k, x in nz) for row in form] for nz in nonzero]
    n = len(vectors)
    ips = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            ips[i][j] = ips[j][i] = sum(x * gb[j][k] for k, x in nonzero[i])
    return ips


def start_gram(ideal):
    """Gram matrix lll_reduce reduces under: that of u x B_J for u*J, with
    B_J the recorded basis of J, its columns, or the identity for J = O_K
    (the vectors reduced are B_J); that of `cols` for any other ideal.

    For u*J in a certified cyclotomic field, |sigma(theta)| = 1 gives
    <u theta^i, u theta^j> = t_|i-j| with t_k = (G u)^T (u theta^k): a
    Toeplitz T from d dot products against the columns of u*O_K, which is
    the Gram matrix of u x O_K; u x B_J then has B_J^T T B_J, where the HNF
    of a degree-one prime has two nonzeros per column. In every other field
    u x B_J, the recorded `_basis`, goes under G.
    """
    K = ideal.K
    form = minkowski_gram(K)
    if ideal._factors is None or cyclotomic_order(K) is None:
        return form_gram(ideal._basis or ideal.cols, form)
    u, J = ideal._factors
    gu = [sum(map(mul, u.coords, row)) for row in form]
    t = [sum(map(mul, gu, c)) for c in K.mul_matrix_columns(u.coords)]
    toeplitz = [[t[abs(i - j)] for j in range(K.degree)] for i in range(K.degree)]
    return toeplitz if J is None else form_gram(J._basis or J.cols, toeplitz)


def gram_schmidt(ips):
    """The lambda/d tables of Cohen's all-integer LLL (GTM 138, 2.6.7) from a
    Gram matrix: d[j] is the leading j x j minor and, for i > j, lam[i][j] the
    minor on rows 0..j-1, i and columns 0..j. A nonpositive d raises
    DpipError."""
    n = len(ips)
    lam = [[0] * n for _ in range(n)]
    big_d = [1] * (n + 1)
    for i in range(n):
        for j in range(i + 1):
            u = ips[i][j]
            for t in range(j):
                u = (big_d[t + 1] * u - lam[i][t] * lam[j][t]) // big_d[t]
            if j < i:
                lam[i][j] = u
            else:
                if u <= 0:
                    raise DpipError("form is not positive definite on the basis")
                big_d[i + 1] = u
    return lam, big_d


def _toeplitz_row(ips):
    """The first row t of ips when ips[i][j] = t[|i - j|] throughout, else
    None; stops at the first mismatch."""
    if not ips or [row[0] for row in ips] != list(ips[0]):
        return None
    if any(ips[i][1:] != ips[i - 1][:-1] for i in range(1, len(ips))):
        return None
    return ips[0]


def integral_lll(vectors, ips):
    """LLL on coordinate vectors, given their Gram matrix ips[i][j] =
    <b_i, b_j> under an integral positive definite form; the one reduction
    lll_reduce calls.

    _float_lll runs first: exact_lll's steps read from mu and B in doubles,
    each transform applied exactly to the vectors, with every test held
    FLOAT_MARGIN away from a tie, so that |mu| = 1/2 exactly is left alone
    and B_k + mu^2 B_{k-1} = DELTA B_{k-1} exactly is not swapped, as in
    exact_lll's strict tests. exact_lll runs instead, from the start, when
    an entry of ips reaches 2^FLOAT_GRAM_BITS in absolute value (where a
    product of two B_i could overflow a double), when a float pivot B_i is
    at most 2^-FLOAT_PIVOT_BITS ips[i][i], or when the float loop has taken
    FLOAT_STEPS * n^2 steps. exact_lll raises DpipError on a form that is
    not positive definite.

    Either way the result is a new list of vectors spanning the same
    lattice, since every transform is exact and unimodular; floats only
    choose them, and lll_reduce checks the span exactly, so no verdict
    rests on a float.
    """
    b = _float_lll(vectors, ips)
    return exact_lll(vectors, ips) if b is None else b


def _float_gram_schmidt(ips):
    """The Gram-Schmidt coefficients mu[i][j] (j < i) and squared norms B of
    a Gram matrix as doubles, or None when some B_i is at most
    2^-FLOAT_PIVOT_BITS times its diagonal entry.

    A symmetric Toeplitz matrix takes _float_schur. Any other takes
    Cholesky's recurrence in integers scaled by 2^_CHOLESKY_BITS, rounded
    to doubles at the end. The Gram matrix of a prime's HNF basis under u's
    weight form is ill-conditioned: in doubles the recurrence left mu off
    by up to 1.5e-10 on (alpha)*P at Phi180, near FLOAT_MARGIN, while at 96
    bits every tested value came out as the correctly rounded double.
    Integer arithmetic also gives the same values on every interpreter.
    """
    row = _toeplitz_row(ips)
    if row is not None:
        return _float_schur(row)
    n, s = len(ips), _CHOLESKY_BITS
    mu, bb = [], []
    for gi in ips:
        mi, r = [], []  # r[j] = mu[i][j] * B_j, all scaled by 2^s
        for mj, bj, g in zip(mu, bb, gi):
            x = (g << s) - (sum(map(mul, mj, r)) >> s)
            r.append(x)
            mi.append((x << s) // bj)
        g = gi[len(mu)] << s
        x = g - (sum(map(mul, mi, r)) >> s)
        if x <= g >> FLOAT_PIVOT_BITS:
            return None
        mu.append(mi)
        bb.append(x)
    one = 1 << s
    mu = [[x / one for x in mi] + [0.0] * (n - i) for i, mi in enumerate(mu)]
    return mu, [x / one for x in bb]


def _float_schur(t):
    """_float_gram_schmidt of the symmetric Toeplitz matrix T[r][c] =
    t[|r - c|] in O(d^2) steps, by Schur's algorithm on two vectors a and
    b, both starting as t. At column j, B_j = a(j), mu[i][j] = a(i) / B_j
    for i > j, and with c = b(j+1) / B_j the next column's vectors are

        a'(i) = a(i-1) - c b(i),    b'(i) = c a(i-1) - b(i)    (i > j).

    a(i) is <b_i, b*_j>, and b is Schur's second generator, which T's
    invariance under a shift of both indices keeps in step with a. Every
    step is one IEEE operation, so the values are the same on every
    interpreter."""
    n = len(t)
    mu = [[0.0] * n for _ in range(n)]
    bb = [0.0] * n
    a = [float(x) for x in t]
    b = list(a)
    floor_b = a[0] / (1 << FLOAT_PIVOT_BITS)
    for j in range(n):
        bj = a[j]
        if not bj > floor_b:
            return None
        bb[j] = bj
        if j + 1 == n:
            break
        for i in range(j + 1, n):
            mu[i][j] = a[i] / bj
        c = b[j + 1] / bj
        pairs = list(zip(a[j : n - 1], b[j + 1 :]))
        a[j + 1 :] = [x - c * y for x, y in pairs]
        b[j + 1 :] = [c * x - y for x, y in pairs]
    return mu, bb


def _float_lll(vectors, ips):
    """exact_lll's steps on double-precision mu and B (Cohen, GTM 138,
    2.6.3), each transform applied exactly to the vectors, or None when
    integral_lll must run exact_lll instead.

    A size reduction runs only when |mu| > 1/2 + FLOAT_MARGIN, and rounds
    with q = floor(mu + 1/2 + FLOAT_MARGIN), so a half-integer mu rounds up
    as in exact_lll; a swap runs only when B_k + mu^2 B_{k-1} <
    (DELTA - FLOAT_MARGIN) B_{k-1}.
    """
    n = len(vectors)
    bound = 1 << FLOAT_GRAM_BITS
    if max(map(max, ips)) >= bound or min(map(min, ips)) <= -bound:
        return None
    gso = _float_gram_schmidt(ips)
    if gso is None:
        return None
    mu, bb = gso
    b = [list(v) for v in vectors]
    half = 0.5 + FLOAT_MARGIN
    delta = DELTA[0] / DELTA[1] - FLOAT_MARGIN

    def redi(k, l):
        mk, ml = mu[k], mu[l]
        q = floor(mk[l] + half)
        b[k] = [x - q * y for x, y in zip(b[k], b[l])]
        for j in range(l):
            mk[j] -= q * ml[j]
        mk[l] -= q

    def swapi(k):
        b[k], b[k - 1] = b[k - 1], b[k]
        mk, mk1 = mu[k], mu[k - 1]
        mk[: k - 1], mk1[: k - 1] = mk1[: k - 1], mk[: k - 1]
        m, bk1 = mk[k - 1], bb[k - 1]
        new_b = bb[k] + m * m * bk1
        mk[k - 1] = new_mu = m * bk1 / new_b
        bb[k] = bk1 * bb[k] / new_b
        bb[k - 1] = new_b
        for mi in mu[k + 1 :]:
            t = mi[k]
            mi[k] = u = mi[k - 1] - m * t
            mi[k - 1] = t + new_mu * u

    k, steps = 1, FLOAT_STEPS * n * n
    while k < n:
        steps -= 1
        if steps < 0:
            return None
        mk = mu[k]
        if abs(mk[k - 1]) > half:
            redi(k, k - 1)
        m = mk[k - 1]
        if bb[k] + m * m * bb[k - 1] < delta * bb[k - 1]:
            swapi(k)
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                if abs(mk[l]) > half:
                    redi(k, l)
            k += 1
    return b


def exact_lll(vectors, ips):
    """All-integer LLL on coordinate vectors, given their Gram matrix
    ips[i][j] = <b_i, b_j> under an integral positive definite form.

    Returns a new list of vectors spanning the same lattice, size-reduced
    and satisfying the Lovasz condition at DELTA (a num/den pair). The
    lambda/d tables start from gram_schmidt. A form that is not positive
    definite raises DpipError.
    """
    n = len(vectors)
    b = [list(v) for v in vectors]
    dnum, dden = DELTA
    lam, big_d = gram_schmidt(ips)

    def redi(k, l):
        dl = big_d[l + 1]
        lk = lam[k]
        q = (2 * lk[l] + dl) // (2 * dl)
        b[k] = [x - q * y for x, y in zip(b[k], b[l])]
        ll = lam[l]
        for j in range(l):
            lk[j] -= q * ll[j]
        lk[l] -= q * dl

    def swapi(k):
        b[k], b[k - 1] = b[k - 1], b[k]
        lk, lk1 = lam[k], lam[k - 1]
        lk[: k - 1], lk1[: k - 1] = lk1[: k - 1], lk[: k - 1]
        lam_ = lk[k - 1]
        dk, dk1 = big_d[k], big_d[k + 1]
        new_d = (big_d[k - 1] * dk1 + lam_ * lam_) // dk
        for li in lam[k + 1 :]:
            t = li[k]
            u = (dk1 * li[k - 1] - lam_ * t) // dk
            li[k] = u
            li[k - 1] = (new_d * t + lam_ * u) // dk1
        big_d[k] = new_d

    k = 1
    while k < n:
        lk = lam[k]
        if 2 * abs(lk[k - 1]) > big_d[k]:
            redi(k, k - 1)
        lam_ = lk[k - 1]
        if dden * (big_d[k + 1] * big_d[k - 1] + lam_ * lam_) < dnum * big_d[k] ** 2:
            swapi(k)
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                if 2 * abs(lk[l]) > big_d[l + 1]:
                    redi(k, l)
            k += 1
    return b


def lll_reduce(ideal):
    """(J, W): an LLL-reduced basis W of the cofactor side J of an integral
    ideal, W as coordinate vectors. J is O_K for (u), J for u*J, and the
    ideal itself for an HNF lattice. The reduction always runs at DELTA,
    so it has one result; `decide.cofactor_side` caches it on the ideal.

    u*J is reduced on its cofactor side: the reduction runs on B_J (the
    identity for O_K, else J's recorded basis or its columns) under the Gram
    matrix of u x B_J (`start_gram`). Every swap and size reduction is read
    from that Gram matrix, so u x W is the basis a reduction of u x B_J
    would return, reduced under the canonical-embedding form; a
    draw w over W stands for u*w over u x W, with cofactor (u*w)/(u*J) =
    (w)/J. W spans J exactly when it lies in J and |det W| = det J; a
    failed check raises DpipError. det W is exact: W's rows bound it by
    Hadamard's inequality, |det W| <= H, and one elimination modulo a prime
    q > 2H gives it as the residue of least absolute value
    (`intlattice.modular_det`); a pivot with no inverse mod q raises rather
    than give a value, so no verdict rests on q's primality test.
    """
    if ideal.denom != 1:
        raise ValueError("LLL reduction expects an integral ideal")
    if ideal.det() == 0:
        raise ZeroIdealError("zero ideal")
    J = ideal if ideal._factors is None else ideal._factors[1] or Ideal.ring(ideal.K)
    w = integral_lll(J._basis or J.cols, start_gram(ideal))
    # lattice equality: every vector lies in J and the determinants agree,
    # which pins the same Hermite form; O_K (det 1) holds every integer vector
    if J.det() != 1 and not J.contains_vectors(w):
        raise DpipError("LLL output left the input ideal")
    if abs(modular_det(w)) != J.det():
        raise DpipError("LLL output does not span the input ideal")
    return J, tuple(map(tuple, w))
