"""Exception types shared across the workbench."""


class WorkbenchError(Exception):
    """Base class for all errors raised by this package."""


class SeriesMismatchError(WorkbenchError):
    """Two free series with different alphabet or truncation degree were mixed."""


class ConstantTermError(WorkbenchError):
    """A series had the wrong constant term for exp or log."""


class SpecMismatchError(WorkbenchError):
    """Operands belong to different Lie algebra specs."""


class DegreeOverflowError(WorkbenchError):
    """An operation needed functional values beyond the stored degree."""


class SubmultiplicativityError(WorkbenchError):
    """The weighted seminorm is not submultiplicative, so norm recursions do not apply."""


class HermitianError(WorkbenchError):
    """A matrix expected to be hermitian is not."""


class PositivityError(WorkbenchError):
    """A functional failed a positivity requirement; carries a witness when known."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class RepresentationError(WorkbenchError):
    """Matrix generators do not satisfy the required commutation or adjoint laws."""


class ConfigError(WorkbenchError):
    """A workbench configuration file is malformed or inconsistent."""


class UnknownSuiteError(WorkbenchError):
    """A suite name does not match any registered verification pipeline."""


class SuiteError(WorkbenchError):
    """A suite's runner stopped on an exception; names the suite and the exception."""
