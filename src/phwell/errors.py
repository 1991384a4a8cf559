"""Exception types shared across the package."""


class PhwellError(Exception):
    """Base class for all errors raised by phwell."""


class ValidationError(PhwellError):
    """A system description violates the structural hypotheses."""

    def __init__(self, message, path=None):
        super().__init__(message)
        self.path = path


class ShapeError(ValidationError):
    """A matrix has the wrong dimensions for the declared (N, d)."""


class StructureError(ValidationError):
    """A coefficient matrix violates its required symmetry or realness."""


class SingularPN(ValidationError):
    """The leading coefficient P_N is numerically singular."""


class SingularP1(ValidationError):
    """P_1 has an eigenvalue at (or numerically at) zero on the half line."""


class HNotCoercive(ValidationError):
    """The Hamiltonian density is not uniformly positive definite."""


class SingularQ(ValidationError):
    """The block matrix Q built from P_1..P_N is numerically singular.

    Q is anti-triangular with +-P_N blocks on its anti-diagonal, so it is
    invertible exactly when P_N is, yet it can be far worse conditioned."""


class NotHermitian(PhwellError):
    """A matrix expected to be Hermitian is not, beyond tolerance."""


class ParseError(PhwellError):
    """A configuration file cannot be read as JSON numbers and objects.

    Syntax only: a structural fault of a readable document is the
    ValidationError that validate_system raises.
    """

    def __init__(self, message, path=None):
        super().__init__(message)
        self.path = path


class BoundaryClosureSingular(PhwellError):
    """The ghost-state linear system of the simulator is singular."""


class CFLViolation(PhwellError):
    """Requested CFL number outside the stable range (0, 0.9]."""


class GridTooCoarse(PhwellError):
    """A resolvent solve left a residual above the requested threshold."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
