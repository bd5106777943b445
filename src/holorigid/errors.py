"""Exception hierarchy shared across the package."""


class HoloError(Exception):
    """Base class for all errors raised by this package."""


class StructureError(HoloError):
    """Mismatched dimensions, caps, or base points between jet operands."""


class BaseMismatchError(HoloError):
    """Composition attempted between jets whose base points do not line up."""


class InsufficientDegreeError(HoloError):
    """A jet was truncated below the degree the operation needs."""


class TermOverflowError(HoloError):
    """Symbolic polynomial composition exceeded the term-count safety cap."""


class OrbitError(HoloError):
    """A point failed the periodicity residual check."""


class RangeError(HoloError):
    """Recoverable: the sampled parameter range contained no usable point."""


class ConstructionError(HoloError):
    """A numerical construction missed its residual tolerances."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class PreconditionError(HoloError):
    """Input rejected because a documented precondition does not hold."""


class SchemaError(HoloError):
    """A JSON document violated the documented schema; message names the field."""
