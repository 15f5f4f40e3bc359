"""Exception types, kept distinct so the CLI can map them to exit codes."""

from __future__ import annotations


class QuatlatError(Exception):
    """Base class for all package errors."""


class UsageError(QuatlatError, ValueError):
    """Bad argument, malformed config, or violated precondition."""


class DegenerateLatticeError(UsageError):
    """A lattice argument is not full rank."""


class ContainmentError(UsageError):
    """A lattice is not contained where the operation requires it."""


class TheoremViolation(QuatlatError, AssertionError):
    """A certified mathematical invariant failed; indicates a real bug."""


class SearchExhausted(QuatlatError, RuntimeError):
    """A bounded search ran out of candidates without finding a witness."""


class InfeasibleError(SearchExhausted):
    """A coprime-combination subproblem found too few admissible values.

    ``subset`` names the 1-based index set of the variables being extended
    when the scan came up short.
    """

    def __init__(self, subset: tuple[int, ...], message: str):
        super().__init__(message)
        self.subset = subset


class ConstructionFailed(InfeasibleError):
    """The coprime construction came up short for c > 1 and several variables.

    Unlike a plain InfeasibleError, this does not mean the bounded space is
    empty: a valid solution set may still exist within the bound.
    """
