"""Exception taxonomy shared across the package.

Two families:

* :class:`ConfigurationError` -- the configuration is physically
  invalid and is rejected before any numerics run (CLI exit code 2).
* :class:`NumericalError` -- a computation started but could not be
  completed to its stated tolerance (CLI exit code 3).
"""


class ChiralightError(Exception):
    """Base class for every package-specific error."""


class ConfigurationError(ChiralightError):
    """Invalid physical configuration, detected before computation.

    ``validate`` raises the aggregate with the full list of violations
    attached as ``.violations`` (each itself a ConfigurationError).
    """

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = list(violations) if violations else []


class NumericalError(ChiralightError):
    """A numerical routine failed to reach its stated tolerance."""


# --- configuration errors ------------------------------------------------

class NonPositiveDecay(ConfigurationError):
    """A decay rate is zero, negative or non-finite."""


class BadPropagationSign(ConfigurationError):
    """A propagation sign alpha_i is not exactly +1 or -1."""


class NegativeDopplerWidth(ConfigurationError):
    """The Doppler width is negative or non-finite."""


class NonPositiveCoupling(ConfigurationError):
    """A coupling/scale constant violates its positivity domain."""


class BadPulseSpec(ConfigurationError):
    """A pulse width or spectral offset is non-finite or outside its
    domain."""


class NonPositiveTolerance(ConfigurationError):
    """A root-finder tolerance is zero, negative or non-finite."""


# --- numerical errors ----------------------------------------------------

class SingularSystem(NumericalError):
    """The steady-state coefficient matrix is (numerically) singular."""


class DegenerateMagnetic(NumericalError):
    """The magnetization feedback denominator 1 - kappa_m*beta_BB vanishes."""


class CouplingOverflow(NumericalError):
    """A coupling or detuning product exceeds the double-precision
    range (kappa_x^2, the Doppler nodes at a huge thermal width, or
    the steady-state matrix at huge detunings or fields)."""


class QuadratureNotConverged(NumericalError):
    """Velocity-average refinement exhausted its node budget before
    reaching the requested tolerance."""


class BranchJump(NumericalError):
    """Square-root branch tracking of the refractive index detected a
    discontinuity between adjacent grid points."""


class GridTooCoarse(NumericalError):
    """The finite-difference error estimate exceeds 1% of the
    derivative value."""


class WindowTooNarrow(NumericalError):
    """A sampled spectrum/trace is truncated above tolerance at the
    window edge."""


class AliasingDetected(NumericalError):
    """Wrap-around energy at the edges of the time window exceeds
    tolerance."""


class FlatTrace(NumericalError):
    """A pulse trace has no unique peak to locate."""


class NoCrossoverInRange(NumericalError):
    """The cold/hot group-index difference does not change sign over
    the supplied control-field range."""


class NoRootInBracket(NumericalError):
    """A 1-D calibration root-find found no sign change in its bracket."""


class RootSearchFailed(NumericalError):
    """A bracketed root search met a NaN function value or did not
    converge within its iteration limit."""
