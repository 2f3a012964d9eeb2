"""Exception types shared across the package."""


class QesError(Exception):
    """Base class for all solver errors."""


class InvalidParameter(QesError, ValueError):
    """A problem parameter violates a family constraint (message names it)."""


class InvalidCase(InvalidParameter):
    """Unsupported (family, case) combination."""


class InvalidExponent(InvalidParameter):
    """The required leading exponent of the wavefunction is not positive."""


class NonRealCoefficients(QesError):
    """Root power sums have imaginary parts above tolerance."""


class DenominatorBlowup(QesError):
    """A root sits too close to a zero of P(t) or to another root."""


class NoSolutionFound(QesError):
    """No enumerated candidate of the root system passed the acceptance
    filters."""


class ConstraintInfeasible(QesError):
    """A derived quantity violates an invariant, e.g. (l + 1/2)^2 < 0."""


class NodeSingularity(QesError):
    """Evaluation requested at a node of the polynomial factor."""


class NotIntegrable(QesError):
    """The squared wavefunction does not decay at one end of (0, inf)."""


class UnsupportedKind(QesError, ValueError):
    """Closed-form normalization not available for this integral kind."""


class MissingCoupling(QesError):
    """A potential coupling is neither free nor derived."""


class GridInsufficient(QesError):
    """Finite-difference grid does not contain the wavefunction support."""


class DocumentError(QesError, ValueError):
    """A solution document failed to parse or validate."""
