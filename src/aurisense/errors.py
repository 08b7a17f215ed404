"""Exception hierarchy shared across the package."""


class AurisenseError(Exception):
    """Base class for all errors raised by this package; ``line`` is the
    1-based line of the input file at fault, when the fault is in one line."""

    def __init__(self, message="", line=None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class MeshFormatError(AurisenseError):
    """Mesh file failed to parse."""


class UnsupportedTopologyError(AurisenseError):
    """Mesh contains non-triangle faces."""


class EmptyMeshError(AurisenseError):
    """Mesh has no vertices or no faces."""


class PlacementError(AurisenseError):
    """An auricular point could not be projected onto the surface."""


class ZeroAreaError(AurisenseError):
    """Electrode cylinder clips no area from the mesh."""


class UnreachableTargetError(AurisenseError):
    """Target sensing area exceeds what the local patch can provide."""


class DomainError(AurisenseError):
    """Input values outside the mathematical domain of an operation."""


class ParameterError(AurisenseError):
    """A configuration or call parameter is out of range."""


class UndefinedSilhouetteError(AurisenseError):
    """Silhouette requested for fewer than two clusters."""


class UndefinedCorrelationError(AurisenseError):
    """Correlation requested on a zero-variance input."""


class LabelError(AurisenseError):
    """Row labels do not satisfy the required pairing/format."""


class DatasetFormatError(AurisenseError):
    """Dataset or values CSV failed to parse."""
