"""Principality decisions for ideals of monogenic number fields.

The library decides whether an ideal is principal given precomputed advice
describing the maximal unramified abelian extension as a compositum of
small relative extensions: prime ideals are classified by complete
splitting of the advice polynomials in their residue fields, general
ideals are first switched to a prime in the inverse class by randomized
sampling over an LLL-reduced basis.
"""

from .advice import AdviceBundle, build_advice, load_advice, store_advice
from .decide import (
    Decision,
    SwitchConfig,
    conjectural_bound,
    decide_ideal,
    decide_prime_ideal,
    default_switch_config,
)
from .errors import (
    AdviceError,
    ClassGroupNotElementary2Error,
    DefiningPolyError,
    DpipError,
    FieldMismatchError,
    MaxTrialsExceededError,
    NonDivisibleError,
    NonInvertibleIdealError,
    NotFundamentalError,
    SquarefreeViolationError,
    ZeroIdealError,
)
from .lll import lll_reduce
from .nf import (
    FieldElement,
    Ideal,
    NumberField,
    PrimeIdeal,
    as_prime_ideal,
    kummer_dedekind,
    order_is_maximal_at,
    poly_discriminant,
)
from .quadforms import (
    FormClassGroup,
    QuadForm,
    enumerate_forms,
    field_for_disc,
    genus_advice,
    is_principal_quad,
)
from .residue import (
    ResidueField,
    ResiduePoly,
    element_in_prime,
    reduce_poly_mod_prime,
    splits_completely,
)
from .switching import (
    DensityEstimate,
    SwitchStats,
    landau_ratio,
    prime_switch_density,
    switch_stats,
)

__version__ = "0.1.0"

__all__ = [
    "AdviceBundle",
    "AdviceError",
    "ClassGroupNotElementary2Error",
    "Decision",
    "DefiningPolyError",
    "DensityEstimate",
    "DpipError",
    "FieldElement",
    "FieldMismatchError",
    "FormClassGroup",
    "Ideal",
    "MaxTrialsExceededError",
    "NonDivisibleError",
    "NonInvertibleIdealError",
    "NotFundamentalError",
    "NumberField",
    "PrimeIdeal",
    "QuadForm",
    "ResidueField",
    "ResiduePoly",
    "SquarefreeViolationError",
    "SwitchConfig",
    "SwitchStats",
    "ZeroIdealError",
    "as_prime_ideal",
    "build_advice",
    "conjectural_bound",
    "decide_ideal",
    "decide_prime_ideal",
    "default_switch_config",
    "element_in_prime",
    "enumerate_forms",
    "field_for_disc",
    "genus_advice",
    "is_principal_quad",
    "kummer_dedekind",
    "landau_ratio",
    "lll_reduce",
    "load_advice",
    "order_is_maximal_at",
    "poly_discriminant",
    "prime_switch_density",
    "reduce_poly_mod_prime",
    "splits_completely",
    "store_advice",
    "switch_stats",
]
