"""Principality decisions for ideals of monogenic number fields.

The library decides whether an ideal is principal given precomputed advice
describing the maximal unramified abelian extension as a compositum of
small relative extensions: prime ideals are classified by complete
splitting of the advice polynomials in their residue fields, general
ideals are first switched to a prime in the inverse class by randomized
sampling over an LLL-reduced basis.

The API lives in the submodules (`dpip.nf`, `dpip.decide`, ...).
"""

__version__ = "0.1.0"
