"""Exception hierarchy shared by all conspar modules.

The CLI maps these onto process exit codes: input/config problems exit 2,
numerical failures exit 3, cross-validation failures exit 4.
"""


class ConsparError(Exception):
    """Base class for all conspar errors."""


class InputError(ConsparError):
    """Caller supplied invalid data, parameters, or configuration."""


class ParameterError(InputError):
    """A scalar parameter is outside its admissible range."""


class DomainBoundsError(InputError):
    """Evaluation point outside the field's domain."""


class ExpressionError(InputError):
    """Syntax error in a coefficient expression; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvaluationError(ConsparError):
    """An expression or field produced a non-finite value; carries x."""

    def __init__(self, message: str, x: float):
        super().__init__(f"{message} (at x = {x})")
        self.x = x


class CouplingError(InputError):
    """Boundary coupling rows are rank deficient or otherwise unusable."""


class AssemblyError(InputError):
    """Discrete operator assembly failed (nonpositive p or weight, ...)."""


class CompatibilityError(InputError):
    """Prescribed moments do not match the initial data."""


class RegularityTierError(InputError):
    """Operation needs a continuous drift coefficient; a tabulated-linear
    one was supplied."""


class TransformError(InputError):
    """Change of variables hit a nonpositive divisor."""


class ArgumentError(InputError):
    """Arguments are structurally invalid (empty lists, mismatched data)."""


class DenseSizeError(InputError):
    """An eigensolve's array (a dense n x n matrix or an n x ncv Lanczos
    basis) would exceed its fixed memory budget."""


class NumericalError(ConsparError):
    """A numerical procedure failed to converge or blew up."""


class EigensolveError(NumericalError):
    pass


class QuadratureError(NumericalError):
    pass


class TimeStepError(NumericalError):
    pass


class InternalError(ConsparError):
    """Invariant violation that should be impossible for valid inputs."""


class ConfigError(InputError):
    """Invalid run configuration; carries every problem found."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class ValidationFailure(ConsparError):
    """A cross-validation check (PDE vs oracle, internal check) failed."""
