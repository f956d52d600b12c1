"""Exception hierarchy shared by all rtq modules."""


class RtqError(Exception):
    """Base class for all rtq errors."""


class BadParam(RtqError):
    """A raw model or config parameter is out of its admissible range."""


class Unstable(RtqError):
    """The offered load is at or above 1; no stationary regime exists."""


class AssumptionViolation(RtqError):
    """Service-time tails violate the heavy/lighter-tail ordering."""


class QuadratureFailure(RtqError):
    """A numerical integral did not reach the requested tolerance."""


class NoConvergence(RtqError):
    """A fixed-point iteration hit its iteration cap."""


class InversionError(RtqError):
    """Coefficient extraction produced an inconsistent probability vector."""


class RecursionDepthExceeded(RtqError):
    """A branching-process draw exceeded the node-count guard."""


class OverflowGuard(RtqError):
    """A number outgrows its type: sampled (queue, orbit) rows span too wide
    a range for int64 row codes, a sampler Poisson mean is not finite or is
    above numpy's largest, about 9.2e18, or a tail-catalog constant
    overflows a float."""


class InsufficientData(RtqError):
    """A conditional statistic is based on too little observation time."""


class WindowTooNoisy(RtqError):
    """A tail-fit window does not support a stable power-law fit."""


class NotApplicable(RtqError):
    """The requested asymptotic result does not apply to these parameters."""
