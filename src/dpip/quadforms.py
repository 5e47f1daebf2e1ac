"""Imaginary quadratic ground truth: forms, class groups, genus advice.

Binary quadratic forms of a fundamental discriminant D < 0 give an
independent principality oracle: an ideal maps to its norm form, the form
reduces to the principal form exactly when the ideal is principal. When
every class has order at most 2 the maximal unramified abelian extension
is the genus field, a compositum of quadratic extensions obtained from the
prime discriminants dividing D; that is the one advice generator this
package can build for itself (anything else is ingested from files).
"""

from dataclasses import dataclass
from math import isqrt, prod

from .advice import build_advice
from .errors import (
    ClassGroupNotElementary2Error,
    DpipError,
    FieldMismatchError,
    GaveUpError,
    NotFundamentalError,
)
from .nf import NumberField
from .ntheory import prime_factors


@dataclass(frozen=True)
class QuadForm:
    a: int
    b: int
    c: int

    def disc(self):
        return self.b * self.b - 4 * self.a * self.c

    def is_reduced(self):
        a, b, c = self.a, self.b, self.c
        if a <= 0:
            return False
        if not (abs(b) <= a <= c):
            return False
        if (abs(b) == a or a == c) and b < 0:
            return False
        return True

    def is_ambiguous(self):
        """Order <= 2 in the class group: b = 0, a = b, or a = c."""
        return self.b == 0 or self.a == self.b or self.a == self.c

    def normalized(self):
        a, b, c = self.a, self.b, self.c
        r = (a - b) // (2 * a)
        return QuadForm(a, b + 2 * r * a, a * r * r + b * r + c)

    def reduced(self):
        form = self.normalized()
        a, b, c = form.a, form.b, form.c
        while a > c or (a == c and b < 0):
            s = (c + b) // (2 * c)
            a, b, c = c, -b + 2 * s * c, c * s * s - b * s + a
        out = QuadForm(a, b, c)
        if not out.is_reduced():
            raise DpipError(f"form reduction ended at {out}, which is not reduced")
        return out

    def __repr__(self):
        return f"({self.a}, {self.b}, {self.c})"


def principal_form(disc):
    k = disc % 2
    return QuadForm(1, k, (k * k - disc) // 4)


@dataclass(frozen=True)
class FormClassGroup:
    disc: int
    forms: tuple
    h: int
    elementary2: bool


MAX_ABS_DISC = 10**8  # enumeration is O(|D|): 0.8 s at 10^8 on a 2-core x86-64 Xeon


def _squarefree_part(disc):
    """|d| for D = d or 4d, refusing a D that is not negative, not 0 or 1
    mod 4, or 4d with d = 1 mod 4."""
    if disc >= 0:
        raise NotFundamentalError("discriminant must be negative")
    m = disc % 4
    if m not in (0, 1):
        raise NotFundamentalError("discriminant must be 0 or 1 mod 4")
    if m == 1:
        return -disc
    if (disc // 4) % 4 in (2, 3):
        return -(disc // 4)
    raise NotFundamentalError(f"{disc} is not a fundamental discriminant")


def _check_fundamental(disc):
    n = _squarefree_part(disc)
    if any(n % (p * p) == 0 for p in prime_factors(n)):
        raise NotFundamentalError(f"{disc} is not a fundamental discriminant")


def enumerate_forms(disc):
    """All reduced forms of a fundamental discriminant, ordered by (a, b).

    Gives up on |D| > MAX_ABS_DISC before any factoring or enumeration.
    """
    _squarefree_part(disc)  # the sign and mod-4 refusals come first
    if -disc > MAX_ABS_DISC:
        raise GaveUpError(f"|D| = {-disc} is above the bound {MAX_ABS_DISC} of form enumeration")
    _check_fundamental(disc)
    forms = []
    for a in range(1, isqrt(abs(disc) // 3) + 1):
        for b in range(disc % 2, a + 1, 2):
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            forms.append(QuadForm(a, b, c))
            if 0 < b < a < c:
                forms.append(QuadForm(a, -b, c))
    forms.sort(key=lambda f: (f.a, f.b))
    if not all(f.is_reduced() for f in forms):
        raise DpipError(f"form enumeration for {disc} produced a non-reduced form")
    return FormClassGroup(
        disc=disc,
        forms=tuple(forms),
        h=len(forms),
        elementary2=all(f.is_ambiguous() for f in forms),
    )


def field_for_disc(disc):
    """The monogenic quadratic field whose defining-poly discriminant is disc."""
    _check_fundamental(disc)
    if disc % 4 == 0:
        return NumberField([-(disc // 4), 0, 1])
    return NumberField([(1 - disc) // 4, -1, 1])


def ideal_form(ideal, disc):
    """The norm form of an integral ideal, integral of discriminant disc.
    The field must be imaginary quadratic, which is checked first."""
    K = ideal.K
    if K.degree != 2 or K.disc >= 0:
        raise FieldMismatchError("the form oracle needs an imaginary quadratic field")
    if K.disc != disc:
        raise FieldMismatchError(
            f"ideal lives in a field of discriminant {K.disc}, not {disc}"
        )
    if ideal.denom != 1:
        raise ValueError("norm form needs an integral ideal")
    # f = x^2 + Bx + C: N(u + v*theta) = u^2 - B u v + C v^2,
    # Tr(x * conj(y)) = 2 u1 u2 - B (u1 v2 + u2 v1) + 2 C v1 v2.
    bco, cco = K.poly[1], K.poly[0]
    (u1, v1), (u2, v2) = ideal.cols
    n = ideal.det()
    a_raw = u1 * u1 - bco * u1 * v1 + cco * v1 * v1
    b_raw = 2 * u1 * u2 - bco * (u1 * v2 + u2 * v1) + 2 * cco * v1 * v2
    c_raw = u2 * u2 - bco * u2 * v2 + cco * v2 * v2
    if a_raw % n or b_raw % n or c_raw % n:
        raise DpipError("norm form is not divisible by the ideal norm")
    form = QuadForm(a_raw // n, b_raw // n, c_raw // n)
    if form.disc() != disc:
        raise DpipError("norm form has the wrong discriminant")
    return form


def is_principal_quad(ideal, disc):
    """Form-reduction principality oracle for imaginary quadratic fields."""
    return ideal_form(ideal, disc).reduced() == principal_form(disc).reduced()


def prime_discriminants(disc):
    """Factor a fundamental discriminant into prime discriminants.

    Odd primes contribute (-1)^((p-1)/2) * p; whatever remains is the
    2-part, one of 1, -4, +-8.
    """
    _check_fundamental(disc)
    out = []
    rem = disc
    for p in prime_factors(abs(disc)):
        if p == 2:
            continue
        star = p if p % 4 == 1 else -p
        out.append(star)
        rem //= star
    if rem != 1:
        if rem not in (-4, 8, -8):
            raise NotFundamentalError(f"unexpected 2-part {rem} of {disc}")
        out.append(rem)
    if prod(out) != disc:
        raise DpipError(f"prime discriminants of {disc} multiply to {prod(out)}")
    return out


def _squarefree_kernel(prime_disc):
    return {-4: -1, 8: 2, -8: -2}.get(prime_disc, prime_disc)


def genus_advice(disc):
    """Advice for a field whose class group is an elementary 2-group.

    Emits x^2 - m for the squarefree kernels m of all prime discriminants
    but the largest in absolute value (the omitted one is recovered from
    the product, which is a square times disc); S is computed with the
    form oracle on the ramified primes dividing the emitted discriminants.
    """
    group = enumerate_forms(disc)
    if not group.elementary2:
        raise ClassGroupNotElementary2Error(
            f"class group of {disc} has a class of order > 2 (h = {group.h})"
        )
    K = field_for_disc(disc)
    pds = prime_discriminants(disc)
    pds.remove(max(pds, key=abs))
    kernels = sorted((_squarefree_kernel(d) for d in pds), key=abs)
    polys = [
        [K.rational(-m), K.zero(), K.one()]  # x^2 - m
        for m in kernels
    ]
    return build_advice(
        K, polys, principal_test=lambda P: is_principal_quad(P.to_ideal(), disc)
    )
