"""Exception types shared across the package."""

from __future__ import annotations


class ConfigError(ValueError):
    """Configuration validation failure with a dotted field path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


class ConvergenceError(RuntimeError):
    """Raised when a quadrature did not reach the requested tolerance.

    Carries the best available result so that curve-level workflows can
    degrade gracefully instead of losing the point entirely.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class RegimeSeparationError(ValueError):
    """Raised when the cutoff and transition frequencies are too close for
    the three time regimes to be distinguishable."""


class GridCoverageError(ValueError):
    """Raised when a rate curve does not span the time range required by an
    analysis (e.g. the Zeno/anti-Zeno classifier)."""


class FitWindowError(ValueError):
    """Raised when a fit window contains too few usable curve points."""


class UnconvergedPointError(RuntimeError):
    """Raised when an analysis would rely on curve points that are flagged
    as not converged."""
