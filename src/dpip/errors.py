"""Exception types shared across the package."""


class DpipError(Exception):
    """Base class for all package-specific errors."""


class DefiningPolyError(DpipError):
    """The defining polynomial is unusable (non-monic, reducible, ...)."""


class FieldMismatchError(DpipError):
    """Operands belong to different number fields."""


class ZeroIdealError(DpipError):
    """An operation received the zero ideal (or all-zero generators)."""


class NonDivisibleError(DpipError):
    """Ideal division requested where the divisor does not divide."""


class NonInvertibleIdealError(DpipError):
    """The lattice is not invertible as a module over this order."""


class SquarefreeViolationError(DpipError):
    """A residue polynomial expected to be squarefree was not.

    Signals corrupted advice: the discriminant gate upstream should have
    filtered this prime out.
    """


class AdviceError(DpipError):
    """An advice bundle violates its schema or invariants."""


class GaveUpError(DpipError):
    """A bounded step reached its bound without an answer."""


class MaxTrialsExceededError(GaveUpError):
    """The switching loop gave up before finding a prime cofactor."""

    def __init__(self, trials, bound):
        self.trials = trials
        self.bound = bound
        super().__init__(
            f"no prime cofactor after {trials} switches with bound {bound}"
        )


class NotFundamentalError(DpipError):
    """A quadratic discriminant was positive or not fundamental."""


class ClassGroupNotElementary2Error(DpipError):
    """Genus advice requested for a class group with an element of order > 2."""
