"""Empirical onset detection and curve-level analyses.

A rate curve is a sampled t -> rate/golden-rule-rate ratio with per-point
error estimates, regime labels, and convergence flags. The onset detector
uses a suffix criterion: the earliest grid time from which the whole
remaining curve stays within epsilon of one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FitWindowError, GridCoverageError, UnconvergedPointError
from .kernel import check_time

__all__ = [
    "RateCurve",
    "SurvivalPoint",
    "DecayClassification",
    "empirical_onset",
    "survival_probability",
    "zeno_classifier",
    "tail_slope_fit",
]

PERTURBATIVE_OK = "perturbative-ok"
OUTSIDE_PERTURBATIVE = "outside-perturbative-validity"

# rate * t beyond which the first-order survival probability stops being
# trustworthy
_PERTURBATIVE_LIMIT = 0.1

# a curve ratio must exceed 1 by this much before the classifier calls the
# transient enhancement real (suppresses the ~1.4% boundary overshoot at
# detuning == kappa)
_ANTI_ZENO_THRESHOLD = 1e-2


@dataclass(frozen=True, eq=False)
class RateCurve:
    """Sampled decay-rate ratio curve with metadata.

    times must be finite, positive and strictly increasing; ratios are
    rate/golden-rule-rate, finite and nonnegative, as are the error
    estimates. flagged marks points whose quadrature did not converge.
    model_metadata carries a description of the model, including
    ``t_scale`` (1/kappa or 1/omega0), used by coverage checks.
    """

    times: np.ndarray
    ratios: np.ndarray
    error_estimates: np.ndarray
    regime_labels: tuple
    model_metadata: dict = field(default_factory=dict)
    flagged: np.ndarray = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        ratios = np.asarray(self.ratios, dtype=float)
        errors = np.asarray(self.error_estimates, dtype=float)
        flagged = self.flagged
        if flagged is None:
            flagged = np.zeros(times.shape, dtype=bool)
        flagged = np.asarray(flagged, dtype=bool)
        if not (times.size and times.size == ratios.size == errors.size == flagged.size):
            raise ValueError("curve arrays must be nonempty and of equal length")
        if len(self.regime_labels) != times.size:
            raise ValueError("one regime label per point required")
        # written so that NaN fails too
        if not (np.all(np.diff(times, prepend=0.0) > 0.0) and times[-1] < math.inf):
            raise ValueError("times must be finite, positive and strictly increasing")
        if not np.all((ratios >= 0.0) & (ratios < math.inf)):
            raise ValueError("ratios must be finite and nonnegative")
        if not np.all((errors >= 0.0) & (errors < math.inf)):
            raise ValueError("error estimates must be finite and nonnegative")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "ratios", ratios)
        object.__setattr__(self, "error_estimates", errors)
        object.__setattr__(self, "regime_labels", tuple(self.regime_labels))
        object.__setattr__(self, "flagged", flagged)

    def __len__(self):
        return self.times.size


@dataclass(frozen=True)
class SurvivalPoint:
    """First-order survival probability with its validity flag."""

    value: float
    flag: str


class DecayClassification(enum.Enum):
    ZENO_ONLY = "zeno-only"
    ANTI_ZENO = "anti-zeno"


def empirical_onset(curve, epsilon):
    """Earliest grid time from which |ratio - 1| <= epsilon holds onward.

    This is a suffix criterion, not a first crossing: a later excursion
    outside the band pushes the onset past it. Returns None when no suffix
    qualifies. Raises UnconvergedPointError if the qualifying suffix
    contains flagged points.
    """
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    dev = np.abs(curve.ratios - 1.0)
    outside = dev > epsilon
    if outside[-1]:
        return None
    bad = np.nonzero(outside)[0]
    start = int(bad[-1]) + 1 if bad.size else 0
    onset = float(curve.times[start])
    flagged = int(np.count_nonzero(curve.flagged[start:]))
    if flagged:
        raise UnconvergedPointError(
            f"{flagged} of the {curve.times.size - start} points of the qualifying "
            f"suffix from t = {onset!r} are flagged as not converged"
        )
    return onset


def survival_probability(t, rate):
    """First-order survival probability 1 - rate*t at a curve point.

    The raw value is returned even when negative; the flag records whether
    rate*t is small enough for first-order perturbation theory.
    """
    check_time(t)
    if not (rate >= 0.0 and math.isfinite(rate)):
        raise ValueError(f"rate must be finite and >= 0, got {rate}")
    decay = rate * t
    flag = PERTURBATIVE_OK if decay <= _PERTURBATIVE_LIMIT else OUTSIDE_PERTURBATIVE
    return SurvivalPoint(value=1.0 - decay, flag=flag)


def zeno_classifier(curve):
    """Classify a curve as Zeno-only or anti-Zeno.

    Anti-Zeno means the rate transiently exceeds the golden-rule value by
    more than _ANTI_ZENO_THRESHOLD. Requires the curve to span at least
    [1e-2, 1e2] times the model's onset scale.
    """
    t_scale = curve.model_metadata.get("t_scale")
    if t_scale is None:
        raise GridCoverageError("curve metadata lacks 't_scale'")
    lo, hi = 1e-2 * t_scale, 1e2 * t_scale
    slack = 1.0 + 1e-9
    if curve.times[0] > lo * slack or curve.times[-1] < hi / slack:
        raise GridCoverageError(
            f"curve spans [{curve.times[0]:g}, {curve.times[-1]:g}] but "
            f"[{lo:g}, {hi:g}] is required"
        )
    if np.max(curve.ratios) > 1.0 + _ANTI_ZENO_THRESHOLD:
        return DecayClassification.ANTI_ZENO
    return DecayClassification.ZENO_ONLY


def tail_slope_fit(curve, window):
    """Least-squares slope of log|ratio - 1| against log t over a window.

    A 1/t relaxation toward the golden-rule value fits to slope -1.
    Requires at least 10 usable points (|ratio - 1| > 0) in the window.
    """
    lo, hi = window
    if not 0.0 < lo < hi:
        raise ValueError(f"invalid window: {window}")
    sel = (curve.times >= lo) & (curve.times <= hi)
    dev = np.abs(curve.ratios - 1.0)
    sel &= dev > 0.0
    if np.count_nonzero(sel) < 10:
        raise FitWindowError(
            f"{np.count_nonzero(sel)} usable points in window, need >= 10"
        )
    slope = np.polyfit(np.log(curve.times[sel]), np.log(dev[sel]), 1)[0]
    return float(slope)
