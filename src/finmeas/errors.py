"""Error taxonomy shared by all modules.

Every domain error carries a stable machine-readable ``code`` so batch
callers can dispatch on it without parsing messages.
"""


class FinmeasError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "FinmeasError"


class EmptyCarrier(FinmeasError):
    code = "EmptyCarrier"


class GeneratorNotPiSystem(FinmeasError):
    code = "GeneratorNotPiSystem"


class CapacityExceeded(FinmeasError):
    code = "CapacityExceeded"


class SpaceMismatch(FinmeasError):
    code = "SpaceMismatch"


class AbsoluteContinuityViolated(FinmeasError):
    code = "AbsoluteContinuityViolated"

    def __init__(self, message, witness_atom=None):
        super().__init__(message)
        self.witness_atom = witness_atom


class NegativeFunctional(FinmeasError):
    code = "NegativeFunctional"


class UnsupportedFunctional(FinmeasError):
    code = "UnsupportedFunctional"


class InvalidExponent(FinmeasError):
    code = "InvalidExponent"


class NegativeFunction(FinmeasError):
    code = "NegativeFunction"


class NotAtomMap(FinmeasError):
    code = "NotAtomMap"


class HorizonTooLarge(FinmeasError):
    code = "HorizonTooLarge"


class NotProductSpace(FinmeasError):
    code = "NotProductSpace"


class InvalidGamma(FinmeasError):
    code = "InvalidGamma"


class NotACongruence(FinmeasError):
    code = "NotACongruence"

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class MassMismatch(FinmeasError):
    code = "MassMismatch"


class NotBisimilar(FinmeasError):
    code = "NotBisimilar"


class FloatRange(FinmeasError):
    code = "FloatRange"
