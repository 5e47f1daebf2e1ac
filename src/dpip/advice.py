"""Advice bundles: subfield polynomials plus the exceptional prime set.

A bundle packages, for one number field, monic polynomials f_1..f_t over
O_K whose root fields are the small unramified relative extensions that
together cut out the class group, and the set S of principal primes
dividing some disc(f_i) (those primes cannot be classified by the
splitting test and are answered from S directly). A bundle checks itself
when it is built: its discriminants are computed then, and a file whose
stored discriminants differ from them is refused.
"""

import dataclasses
from math import lcm

from .errors import AdviceError
from .nf import (
    FieldElement,
    NumberField,
    PrimeIdeal,
    cyclotomic_order,
    kummer_dedekind,
    poly_discriminant,
    prime_power,
)
from .ntheory import isprime, prime_factors
from .residue import element_in_prime, residue_of
from .serialize import (
    decode_int,
    encode_int,
    field_from_dict,
    field_to_dict,
    read_json,
)


@dataclasses.dataclass(frozen=True)
class AdviceBundle:
    """Raises AdviceError when built from invalid advice (`_discriminants`,
    then the S checks); disc_cache is derived, never passed."""

    field: NumberField
    subfields: tuple  # ((q_i, poly_i), ...) with poly_i a tuple of FieldElement
    S: tuple  # PrimeIdeal entries
    disc_cache: tuple = dataclasses.field(init=False)  # FieldElement, one per subfield

    def __post_init__(self):
        discs = _discriminants(self.field, self.subfields)
        object.__setattr__(self, "disc_cache", discs)
        for P in self.S:
            _validate_prime(self.field, P)
            if not any(element_in_prime(disc, P) for disc in discs):
                raise AdviceError(
                    f"exceptional prime {P.label()} divides no subfield discriminant"
                )

    def __repr__(self):
        qs = [q for q, _ in self.subfields]
        return f"AdviceBundle(degrees={qs}, |S|={len(self.S)})"


def build_advice(K, polys, principal_test=None):
    """Assemble a bundle from subfield polynomials.

    `polys` are sequences of FieldElement coefficients (low to high, monic).
    When `principal_test` is given, S is computed by enumerating the prime
    ideals dividing each polynomial discriminant and keeping the principal
    ones; otherwise S is empty. A known S is passed to `AdviceBundle`.
    """
    subfields = tuple((len(p) - 1, tuple(p)) for p in polys)
    bundle = AdviceBundle(field=K, subfields=subfields, S=())
    if principal_test is None:
        return bundle
    found = []
    for disc in bundle.disc_cache:
        for P in _primes_dividing(K, disc):
            if P not in found and principal_test(P):
                found.append(P)
    return dataclasses.replace(bundle, S=tuple(found))


def _primes_dividing(K, disc_elem):
    """Prime ideals containing a nonzero element, above the primes of its
    norm (`prime_factors`, which may give up)."""
    out = []
    for p in prime_factors(abs(disc_elem.norm_int())):
        for P in kummer_dedekind(p, K):
            if element_in_prime(disc_elem, P):
                out.append(P)
    return out


def _discriminants(K, subfields):
    """Check each (degree, polynomial) pair and return the discriminants,
    none of them 0: every prime ideal contains 0, so a repeated root would
    send every prime to S or to No."""
    discs = []
    for idx, (q, poly) in enumerate(subfields):
        if len(poly) - 1 != q:
            raise AdviceError(f"subfield {idx}: declared degree {q} != polynomial degree")
        if q < 2:
            raise AdviceError(f"subfield {idx}: degree must be at least 2")
        if prime_power(q) is None:
            raise AdviceError(f"subfield {idx}: degree {q} is not a prime power")
        for c in poly:
            if not isinstance(c, FieldElement) or c.K != K:
                raise AdviceError(f"subfield {idx}: coefficient outside the field")
        if poly[-1] != K.one():
            raise AdviceError(f"subfield {idx}: polynomial must be monic")
        disc = poly_discriminant(list(poly))
        if disc.is_zero():
            raise AdviceError(f"subfield {idx}: polynomial has vanishing discriminant")
        if q == 2:
            # x^2 + bx + c is irreducible exactly when disc = b^2 - 4c is no
            # square; for x^2 - beta, disc = 4 beta is one exactly when beta is
            _check_kummer(K, idx, 2, disc)
        elif q == prime_power(q)[0] and all(c.is_zero() for c in poly[1:-1]):
            _check_kummer(K, idx, q, -poly[0])
        discs.append(disc)
    return tuple(discs)


_KUMMER_TRIES = 100  # primes p the irreducibility search of a subfield tries


def _check_kummer(K, idx, q, beta):
    """Refuse subfield idx, x^q - beta with q prime or a quadratic of
    discriminant beta, unless a degree-one prime (p, theta - a) with p not
    dividing disc(f), q | p - 1 and b = beta(a) != 0 mod p has
    b^((p - 1)/q) != 1 mod p. Such a prime proves beta no q-th power in K:
    were beta = gamma^q, gamma would be integral, and as p does not divide
    disc(f), Z[theta] is maximal at p, so gamma(a)^q = b mod p and
    b^((p - 1)/q) = gamma(a)^(p - 1) = 1. Then x^q - beta, q prime, is
    irreducible over K (Lang, Algebra, VI, Thm. 9.1), and so is a quadratic
    whose discriminant is no square. The search tries the first
    _KUMMER_TRIES primes p = 1 (mod q), and for f = Phi_m only p = 1
    (mod m), whose primes are read from the roots of unity mod p."""
    step = lcm(q, cyclotomic_order(K) or 1)
    p, tries = 1, 0
    while tries < _KUMMER_TRIES:
        p += step
        if not isprime(p) or K.disc % p == 0:
            continue
        tries += 1
        for P in kummer_dedekind(p, K):
            b = residue_of(beta, P)
            if P.res_degree == 1 and b and pow(b[0], (p - 1) // q, p) != 1:
                return
    raise AdviceError(
        f"subfield {idx}: polynomial is not shown irreducible (beta may lie in K^{q})"
    )


def _validate_prime(K, P):
    if P.K != K:
        raise AdviceError("exceptional prime belongs to a different field")
    if not isprime(P.p):
        raise AdviceError(f"{P.p} is not prime")
    if P not in kummer_dedekind(P.p, K):
        raise AdviceError(f"{P.label()} is no prime above {P.p}")


# ---------------------------------------------------------------------------
# File format

def advice_to_dict(bundle):
    return {
        "field": field_to_dict(bundle.field),
        "subfields": [
            {
                "q": q,
                "poly": [[encode_int(x) for x in c.coords] for c in poly],
            }
            for q, poly in bundle.subfields
        ],
        "S": [
            {"p": encode_int(P.p), "gen_poly": [encode_int(c) for c in P.gen_poly]}
            for P in bundle.S
        ],
        "disc_cache": [
            [encode_int(x) for x in c.coords] for c in bundle.disc_cache
        ],
    }


def advice_from_dict(data):
    try:
        K = field_from_dict(data["field"])
        subfields = []
        for entry in data["subfields"]:
            q = decode_int(entry["q"])
            poly = tuple(
                K.element([decode_int(x) for x in coords]) for coords in entry["poly"]
            )
            subfields.append((q, poly))
        S = []
        for entry in data.get("S", []):
            gen = [decode_int(c) for c in entry["gen_poly"]]
            S.append(PrimeIdeal(K, decode_int(entry["p"]), gen))
        cached = None
        if "disc_cache" in data:
            cached = tuple(
                K.element([decode_int(x) for x in coords])
                for coords in data["disc_cache"]
            )
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise AdviceError(f"malformed advice file: {exc}") from exc
    bundle = AdviceBundle(field=K, subfields=tuple(subfields), S=tuple(S))
    if cached is not None and cached != bundle.disc_cache:
        raise AdviceError("disc_cache does not match the recomputed discriminants")
    return bundle


def load_advice(path):
    return advice_from_dict(read_json(path))
