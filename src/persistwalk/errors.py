"""Exception types shared across the package.

Every error raised by the library derives from :class:`PersistWalkError`,
so callers (and the CLI) can catch one base class and still report the
specific failure mode by name.
"""


class PersistWalkError(Exception):
    """Base class for all persistwalk errors."""


# --- increment distributions -------------------------------------------------

class DistributionError(PersistWalkError):
    """Base class for invalid increment-distribution input."""


class NonZeroMean(DistributionError):
    """The atoms do not have exactly zero mean."""


class BadProbabilities(DistributionError):
    """Probabilities out of (0, 1], not summing to 1, or not exact rationals."""


class OneSidedSupport(DistributionError):
    """No strictly positive (or no strictly negative) atom."""


class InfeasibleBalance(DistributionError):
    """No probability assignment achieves zero mean with the requested atoms."""


# --- stable laws / closed forms ----------------------------------------------

class OutOfRange(PersistWalkError):
    """A skewness, probability or size parameter is outside its legal interval."""


class OutOfDomain(PersistWalkError):
    """(x, b) outside the domain x in [0, 1), b > 0, or an x = p/q too
    fine for exact int64 arithmetic (q·(p + q) ≥ 2^63)."""


class Unattainable(PersistWalkError):
    """No asymmetry b > 0 realizes the requested exponent at this x."""


class NonPositiveArgument(PersistWalkError):
    """A density/CDF argument that must be > 0 is not."""


# --- estimation ---------------------------------------------------------------

class InsufficientTail(PersistWalkError):
    """Too few long half-excursions to fit the duration-tail constant."""


class InsufficientData(PersistWalkError):
    """Not enough usable grid points / successes for a stable fit."""


class HorizonOverflow(PersistWalkError):
    """A single excursion exceeded the configured step cap."""


# --- oracle -------------------------------------------------------------------

class CapExceeded(PersistWalkError):
    """Requested exact-enumeration horizon exceeds the configured cap."""


# --- CLI ----------------------------------------------------------------------

class ConfigParse(PersistWalkError):
    """Malformed configuration input (JSON, rational string, dist spec)."""


class UnknownExperiment(PersistWalkError):
    """reproduce() was asked for an experiment id that does not exist."""
