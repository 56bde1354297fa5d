"""Exception types raised across the package.

Every precondition failure maps to one of these, so callers (and the
command line front end) can distinguish bad input from a failed
numerical contract.
"""


class DimensionError(ValueError):
    """Shapes are inconsistent: not square, empty, or mismatched operands."""


class HermitianityError(ValueError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NonFiniteError(ValueError):
    """A matrix has a NaN or infinite entry."""


class NotPsdError(ValueError):
    """A matrix required to be positive semidefinite classifies as indefinite."""


class ZeroMatrixError(ValueError):
    """An operation needs at least one nonzero eigenvalue and found none."""


class ZeroPivotError(ValueError):
    """A pivot entry required to be positive is zero or negative."""


class NotProjectionError(ValueError):
    """A matrix required to be an orthogonal projection fails the check."""


class FormsDisagreeError(ValueError):
    """Two forms of one quantity, equal in exact arithmetic, differ beyond tolerance."""


class BudgetExceededError(RuntimeError):
    """A subset enumeration or a DOA steering block would exceed the configured budget."""


class ConvergenceError(RuntimeError):
    """The eigensolver did not reach its convergence threshold."""


class MatrixFormatError(ValueError):
    """A matrix file is malformed; message carries line/column location."""


class ScenarioFormatError(ValueError):
    """A scenario document is malformed or fails validation."""
