"""Exception hierarchy shared across the engine."""


class ChabautyError(Exception):
    """Base class for all errors raised by this package."""


# p-adic arithmetic

class ZeroInput(ChabautyError):
    """Operand is indistinguishable from zero at the working precision."""


class NotAUnit(ChabautyError):
    """Operand has positive valuation where a unit is required."""


class NonSeparableReduction(ChabautyError):
    """A minimal polynomial has repeated roots modulo p; pick another prime."""


class PrecisionLoss(ChabautyError):
    """A result cannot be certified at the working precision."""


class PrecisionExceeded(ChabautyError):
    """An internal computation ran out of guard digits."""


# power series

class IndistinguishableFromZero(ChabautyError):
    """All series coefficients vanish to precision; no root bound possible."""


# linear algebra

class NotSymmetric(ChabautyError):
    """Pseudoinverse input must be symmetric."""


# curves and discs

class UnsupportedFamily(ChabautyError):
    """Curve family tag not recognised."""


class BadReduction(ChabautyError):
    """The curve does not have good reduction at the requested prime."""


class PoleOnDisc(ChabautyError):
    """The differential has a pole inside the disc being expanded."""


class DifferentDiscs(ChabautyError):
    """Tiny integral endpoints must lie in a single residue disc."""


class EndpointRestriction(ChabautyError):
    """Integration endpoint lies in a disc the integrator cannot reach."""


# arithmetic model

class MissingIncidence(ChabautyError):
    """Required incidence vector absent from the ingested model data."""


class NeedsOverride(ChabautyError):
    """Intersection number not computable from coordinates; supply an override."""


class NotTransversal(ChabautyError):
    """Model is not D-transversal over a prime of S."""


# problem files

class ProblemFileError(ChabautyError):
    """Problem file fails schema or consistency validation."""
