"""Exceptions shared across the package."""


class HermsigError(Exception):
    """Base class for all library errors."""


class FieldMismatchError(HermsigError):
    """Operands belong to different number fields."""


class AlgebraMismatchError(HermsigError):
    """Operands belong to different algebras."""


class InvariantError(HermsigError):
    """An internal exactness invariant was violated; indicates a bug or
    an instance outside the validated catalogue."""


class UnsupportedError(HermsigError):
    """Instance outside the supported catalogue or field tower."""


class NilOrderingError(HermsigError):
    """The question has no answer at nil orderings, where every signature
    is zero."""


class ReducibleModulusError(HermsigError, ZeroDivisionError):
    """A nonzero element is a zero divisor, so the minimal polynomial has
    a proper factor and Q[x]/(m) is not a field; the message names the
    factor."""
