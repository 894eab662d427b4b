"""Exception types shared across the package."""

from __future__ import annotations


class DriftError(Exception):
    """Base class for everything this package raises on purpose."""


class DomainError(DriftError, ValueError):
    """An input value lies outside the mathematical domain of an operation."""


class GeometryError(DriftError, ValueError):
    """Device geometry cannot be represented on the requested grid."""


class ConfigError(DriftError, ValueError):
    """A deck or device description failed validation.

    Carries the full list of findings so a user sees every problem at once.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("\n".join(self.problems))


class SolverError(DriftError, RuntimeError):
    """A solver failed: a singular factor, a missed residual contract, or
    an iteration that ran out."""


class NonConvergenceError(SolverError):
    """An iterative solver ran out of iterations."""

    def __init__(self, message: str, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(f"{message} (after {iterations} iterations, residual {residual:.3e})")


class StepRejected(DriftError, RuntimeError):
    """A time step produced an inadmissible state and must be retried smaller."""
