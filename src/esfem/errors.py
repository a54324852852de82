"""Exception types shared across the package."""


class EsfemError(Exception):
    """Base class for all errors raised by this package."""


class NonConvergence(EsfemError):
    """An iterative solver did not reach its tolerance."""


class NonFiniteValue(EsfemError):
    """NaN or Inf encountered in a numerical kernel."""


class UnsupportedSurface(EsfemError):
    """Operation is not defined for this surface kind."""


class UnknownProfile(EsfemError):
    """Forcing profile id is not in the catalog."""


class DegenerateMesh(EsfemError):
    """Mesh construction parameters would produce a degenerate mesh."""


class PointNotOnMesh(EsfemError):
    """Point could not be located inside any mesh element."""


class DimensionMismatch(EsfemError):
    """Operand dimensions are incompatible."""


class SingularElement(EsfemError):
    """Element Jacobian degenerated during assembly."""


class InvalidExponent(EsfemError):
    """Norm exponent outside the supported range."""


class MeshMismatch(EsfemError):
    """Two meshes expected to share structure do not."""


class InsufficientSamples(EsfemError):
    """Not enough samples for the requested fit."""


class HTooLarge(EsfemError):
    """Mesh size violates h < 1/(4*C) needed by the dyadic decomposition."""


class BudgetExceeded(EsfemError):
    """Configured work cap (e.g. fine reference solves) exceeded."""


class RichardsonFailure(EsfemError):
    """Halving the time step changed a reported norm by more than allowed;
    report is the study's report, with every row."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class ConfigError(EsfemError):
    """Invalid or incomplete configuration."""


class IOFailure(EsfemError):
    """Reading or writing an artifact failed."""
