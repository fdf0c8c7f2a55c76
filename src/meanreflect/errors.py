"""Exception types shared across the solvers."""

from __future__ import annotations

__all__ = [
    "MeanReflectError",
    "DegenerateConstraintsError",
    "InfeasibleTerminalError",
    "NonConvergenceError",
    "NumericalFailureError",
]


class MeanReflectError(Exception):
    """Base class for solver failures (as opposed to caller mistakes)."""


class DegenerateConstraintsError(MeanReflectError):
    """The admissible band between the two constraints fell below ``BAND_MIN_DEFAULT`` (1e-9)."""


class InfeasibleTerminalError(MeanReflectError):
    """Terminal data violates the two-sided mean constraint at the horizon."""


class NonConvergenceError(MeanReflectError):
    """Fixed-point iteration hit its cap; carries the iteration trace."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class NumericalFailureError(MeanReflectError):
    """A numerical subroutine (root bracketing, regression solve) broke down."""
