"""Exception taxonomy shared by every reachcalc module.

No iteration has an error of its own: each W iteration stops on its step.
"""


class ReachcalcError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ReachcalcError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class InvalidDistribution(ReachcalcError, ValueError):
    """Probabilities are not all in (0, 1] or do not sum to 1."""


class InvalidProgram(ReachcalcError, ValueError):
    """A bit string is not a valid program for the toy machine."""


class ResourceExceeded(ReachcalcError, RuntimeError):
    """A step, output, or enumeration cap was breached."""


class EmptySetError(ReachcalcError, ValueError):
    """An operation that needs a nonempty solution set received an empty one."""


class InvalidPolicy(ReachcalcError, ValueError):
    """Unknown search policy."""


class DegenerateSetWarning(RuntimeWarning):
    """A one-element solution set has zero entropy variation.

    Reachability is then reported as the limiting value (0 on the lower
    branch, 1 on the principal branch) instead of raising.
    """
