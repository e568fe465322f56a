"""Exception types raised across the package."""


class SplError(Exception):
    """Base class for all package-specific errors."""


class StructuralFailure(SplError):
    """The perturbed inner subspace cannot be certified: an eigensolver or
    SVD broke down, the gap closed, or the subspace is not a graph.  The
    CLI exits 3 on these and 4 on every other error."""


# --- dense linear algebra ---------------------------------------------------

class NonHermitianInput(SplError):
    """Matrix fails the Hermitian symmetry tolerance."""


class ConvergenceFailure(StructuralFailure):
    """Backend eigensolver or SVD failed to converge."""


class DimensionMismatch(SplError):
    """Operands have incompatible shapes."""


# --- spectral disposition ---------------------------------------------------

class DispositionViolation(SplError):
    """The requested gap/spectrum arrangement is invalid."""


class EmptyInnerComponent(DispositionViolation):
    """No eigenvalue inside the declared gap."""


class GapEndpointMissing(DispositionViolation):
    """A gap endpoint is not a spectral point."""


class NotAGap(DispositionViolation):
    """An outer-component eigenvalue lies strictly inside the gap."""


class InfeasibleParams(SplError):
    """Random-instance parameters cannot be realised."""


# --- perturbed splits and angular operators ---------------------------------

class EigenFailure(StructuralFailure):
    """Eigensolve of the perturbed operator failed."""


class RankMismatch(StructuralFailure):
    """Perturbed inner subspace has the wrong dimension."""


class NotAGraph(StructuralFailure):
    """Perturbed subspace is not a graph over the unperturbed one."""


# --- bound formulas ----------------------------------------------------------

class DomainViolation(SplError):
    """Arguments leave the domain on which a bound is defined."""


class RegimeViolation(DomainViolation):
    """Perturbation norm exceeds the regime a formula requires."""


class SingularDenominator(SplError):
    """A bound formula's denominator is not positive."""


# --- harness / CLI -----------------------------------------------------------

class ParseError(SplError):
    """Input file does not match any accepted schema."""


class ConfigError(SplError):
    """Campaign or search configuration is invalid."""
