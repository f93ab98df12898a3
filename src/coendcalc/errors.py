"""Exception types shared across the package."""


class CoendcalcError(Exception):
    """Base class for all errors raised by this package."""


class FieldMismatchError(CoendcalcError, ValueError):
    """Two containers over different fields were combined."""


class ShapeError(CoendcalcError, ValueError):
    """A matrix or vector has the wrong dimensions for the operation."""


class WellDefinednessError(CoendcalcError, ValueError):
    """A map defined on generators does not vanish on the relation space.

    The offending generator (or generator pair) is kept in ``witness``.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InternalConsistencyError(CoendcalcError, RuntimeError):
    """An invariant that should hold by construction was violated."""


class InputFormatError(CoendcalcError, ValueError):
    """An input document is malformed (bad scalar, shape, or schema)."""
