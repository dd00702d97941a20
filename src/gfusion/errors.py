"""Exception hierarchy shared by all gfusion modules."""


class GFusionError(Exception):
    """Base class for every error raised by this package."""


class NonFiniteInput(GFusionError):
    """A matrix or vector contains NaN or infinite entries."""


class DimensionMismatch(GFusionError):
    """Shapes of the supplied objects are incompatible."""


class FieldMismatch(GFusionError):
    """Real and complex data were mixed within one computation."""


class NotAFrameError(GFusionError):
    """An operation that requires a g-fusion frame received a degenerate system."""


class BadBasis(GFusionError):
    """A user-supplied block basis is not orthonormal."""


class PreconditionFailed(GFusionError):
    """An input fails a documented precondition of the operation."""


class SystemMismatch(PreconditionFailed):
    """Two systems that must share structure (dim, subspaces, weights, ...) do not."""


class SystemFileError(GFusionError):
    """A system file could not be parsed; the message carries the field path."""
