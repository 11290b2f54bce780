"""Exception and warning types: one per outcome a caller handles differently.

The command line exits 2 on ValidationError and 3 on DegenerateSchedule.  A
subclass comes together with the caller that catches it.
"""


class ValidationError(ValueError):
    """An input was rejected; the message names the check."""


class DegenerateSchedule(ValueError):
    """A calibration formula produced a non-finite or non-positive value."""


class HypothesisViolated(UserWarning):
    """A composition formula was evaluated outside its hypothesis."""
