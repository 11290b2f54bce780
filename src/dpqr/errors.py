"""Exception and warning types shared across the package."""


class ValidationError(ValueError):
    """Base class for input-validation failures."""


class NegativeMass(ValidationError):
    """A probability vector has an entry below the negativity tolerance."""


class NotNormalized(ValidationError):
    """A probability vector does not sum to one within tolerance."""


class IndexOutOfRange(ValidationError):
    """A dataset index falls outside the universe."""


class AnchorHasZero(ValidationError):
    """KL divergence requested against an anchor with a zero where mass sits."""


class DimensionMismatch(ValidationError):
    """Vector/workload dimensions disagree."""


class InvalidAlpha(ValidationError):
    """Regularization strength outside its allowed range."""


class InvalidOrder(ValidationError):
    """Renyi order must exceed one."""


class InvalidParams(ValidationError):
    """Calibration parameters outside their allowed range."""


class InvalidSpec(ValidationError):
    """A generator kind string could not be understood."""


class DegenerateSchedule(ValueError):
    """A calibration formula produced a non-finite or non-positive value."""


class ParseError(ValidationError):
    """A file failed strict validation; message carries the location."""


class HypothesisViolated(UserWarning):
    """A composition formula was evaluated outside its hypothesis."""
