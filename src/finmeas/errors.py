"""Error taxonomy shared by all modules.

Every domain error carries a stable machine-readable ``code``, its class
name, so batch callers can dispatch on it without parsing messages.
"""


class FinmeasError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "FinmeasError"

    def __init_subclass__(cls):
        cls.code = cls.__name__


class EmptyCarrier(FinmeasError):
    pass


class GeneratorNotPiSystem(FinmeasError):
    pass


class CapacityExceeded(FinmeasError):
    pass


class SpaceMismatch(FinmeasError):
    pass


class AbsoluteContinuityViolated(FinmeasError):
    def __init__(self, message, witness_atom=None):
        super().__init__(message)
        self.witness_atom = witness_atom


class NegativeFunctional(FinmeasError):
    pass


class UnsupportedFunctional(FinmeasError):
    pass


class InvalidExponent(FinmeasError):
    pass


class NegativeFunction(FinmeasError):
    pass


class NotAtomMap(FinmeasError):
    pass


class HorizonTooLarge(FinmeasError):
    pass


class NotProductSpace(FinmeasError):
    pass


class InvalidGamma(FinmeasError):
    pass


class NotACongruence(FinmeasError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class MassMismatch(FinmeasError):
    pass


class NotBisimilar(FinmeasError):
    pass


class FloatRange(FinmeasError):
    pass
