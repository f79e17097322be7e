"""Closed-form regime approximations and onset-time formulas.

Broadband rates split into a resonant part and an off-resonant tail part,
each with its own expression per time regime; the tail exists only for
spectral exponents eta >= 1 and is what delays the golden-rule onset.
Narrowband rates have closed forms valid for any detuning.

The broadband expressions are written in terms of the approximate
golden-rule rate (cutoff factor dropped), exactly as the closed forms are
derived; conversion to exact-rate ratios happens at the reporting boundary.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import RegimeSeparationError
from .kernel import check_time
from .reservoir import (
    BroadbandReservoir,
    EmitterSpec,
    NarrowbandReservoir,
    cutoff_constant,
    golden_rule_rate_approx,
)

__all__ = [
    "Regime",
    "BroadbandRateParts",
    "classify_regime",
    "broadband_resonant_part",
    "broadband_tail_part",
    "broadband_rate_analytic",
    "onset_time_broadband",
    "narrowband_rate_resonant",
    "narrowband_rate_detuned",
    "onset_time_narrowband",
]

# eta within this distance of 1 selects the logarithmic tail expressions;
# protects against representation noise from config parsing while keeping
# the log branch measure-zero.
_ETA_ONE_TOL = 1e-9

# Direct evaluation of the narrowband ratios loses precision once the
# leading term drops below ~1e-3 of the cancelling O(1) terms; below the
# switch the series branch takes over (see _series_ratio_detuned).
_SERIES_SWITCH = 5e-3

# Regime thresholds, one decade of margin on each strong inequality: the
# cutoff regime holds while omega_x * t < CUTOFF_MAX, the resonant regime
# once omega0 * t > RESONANT_MIN, and both need omega_x / omega0 of at
# least MIN_SEPARATION.
CUTOFF_MAX = 0.1
RESONANT_MIN = 10.0
MIN_SEPARATION = 100.0


class Regime(enum.Enum):
    """Time regime of the broadband decay dynamics."""

    CUTOFF = "cutoff"
    INTERMEDIATE = "intermediate"
    RESONANT = "resonant"


@dataclass(frozen=True)
class BroadbandRateParts:
    """Resonant and tail contributions to the broadband decay rate."""

    resonant_part: float
    tail_part: float
    regime: Regime

    def __post_init__(self):
        # written so that NaN fails too
        if not all(0.0 <= p < math.inf for p in (self.resonant_part, self.tail_part)):
            raise ValueError("rate parts must be finite and nonnegative")

    @property
    def total(self):
        return self.resonant_part + self.tail_part


def classify_regime(reservoir, emitter, t):
    """Assign the time regime for a broadband reservoir.

    Deterministic at the boundaries: t with omega_x*t == CUTOFF_MAX or
    omega0*t == RESONANT_MIN classifies as intermediate.
    """
    if not isinstance(reservoir, BroadbandReservoir):
        raise TypeError("regimes are defined for broadband reservoirs only")
    check_time(t)
    w0, wx = emitter.omega0, reservoir.omega_x
    if wx < MIN_SEPARATION * w0:
        raise RegimeSeparationError(
            f"omega_x/omega0 = {wx / w0:g} < {MIN_SEPARATION:g}; "
            "the cutoff and resonant regimes are not separable"
        )
    if wx * t < CUTOFF_MAX:
        return Regime.CUTOFF
    if w0 * t > RESONANT_MIN:
        return Regime.RESONANT
    return Regime.INTERMEDIATE


def _is_eta_one(eta):
    return abs(eta - 1.0) < _ETA_ONE_TOL


def _cutoff_power(reservoir, emitter, p):
    # (omega_x/omega0)**p, p = eta -/+ 1: past the floats from eta ~ 130 at 250*omega0
    try:
        return (reservoir.omega_x / emitter.omega0) ** p
    except OverflowError:
        msg = f"eta={reservoir.eta} takes (omega_x/omega0)**{p:g} past the largest float"
        raise ValueError(msg) from None


def broadband_resonant_part(reservoir, emitter, t, regime):
    """Resonant contribution to the broadband rate in the given regime.

    The regime is passed explicitly so the expressions can be probed
    outside their domain for diagnostics.
    """
    check_time(t)
    if regime is Regime.RESONANT:
        return golden_rule_rate_approx(reservoir, emitter)
    eta, w0, wx = reservoir.eta, emitter.omega0, reservoir.omega_x
    g0 = golden_rule_rate_approx(reservoir, emitter)
    frac = eta - math.floor(eta)
    p = frac + 1.0
    if regime is Regime.CUTOFF:
        c = cutoff_constant(reservoir.cutoff)
        return (c / (2.0 * math.pi * p)) * (wx / w0) ** p * (w0 * t) * g0
    if regime is Regime.INTERMEDIATE:
        return (
            (1.0 / (2.0 * math.pi * p))
            * (1.0 + math.pi / (w0 * t)) ** p
            * (w0 * t)
            * g0
        )
    raise TypeError(f"unknown regime: {regime!r}")


def broadband_tail_part(reservoir, emitter, t, regime):
    """Off-resonant tail contribution; zero for eta < 1.

    In the intermediate and resonant regimes the expression is the same:
    a 1/t law whose prefactor diverges as eta -> 1+, replaced at eta = 1
    by a logarithmic prefactor.
    """
    check_time(t)
    eta, w0, wx = reservoir.eta, emitter.omega0, reservoir.omega_x
    if eta < 1.0 and not _is_eta_one(eta):
        return 0.0
    g0 = golden_rule_rate_approx(reservoir, emitter)
    c = cutoff_constant(reservoir.cutoff)
    if regime is Regime.CUTOFF:
        power = _cutoff_power(reservoir, emitter, eta + 1.0)
        return (c / (2.0 * math.pi * (eta + 1.0))) * power * (w0 * t) * g0
    if regime in (Regime.INTERMEDIATE, Regime.RESONANT):
        if _is_eta_one(eta):
            return (c / math.pi) * math.log(wx / w0) / (w0 * t) * g0
        return (
            (c / (math.pi * (eta - 1.0)))
            * _cutoff_power(reservoir, emitter, eta - 1.0)
            / (w0 * t)
            * g0
        )
    raise TypeError(f"unknown regime: {regime!r}")


def broadband_rate_analytic(reservoir, emitter, t):
    """Classify the regime and return both rate contributions."""
    regime = classify_regime(reservoir, emitter, t)
    return BroadbandRateParts(
        resonant_part=broadband_resonant_part(reservoir, emitter, t, regime),
        tail_part=broadband_tail_part(reservoir, emitter, t, regime),
        regime=regime,
    )


def onset_time_broadband(reservoir, emitter):
    """Time beyond which the golden-rule rate holds, per spectral exponent.

    1/omega0 for eta < 1; for eta >= 1 the off-resonant tail delays the
    onset by the factor (omega_x/omega0)**(eta-1) (logarithmic at eta = 1).
    """
    if not isinstance(reservoir, BroadbandReservoir):
        raise TypeError("onset formulas are defined for broadband reservoirs only")
    eta, w0, wx = reservoir.eta, emitter.omega0, reservoir.omega_x
    if not wx > w0:
        raise ValueError("onset formulas require omega_x > omega0")
    if _is_eta_one(eta):
        c = cutoff_constant(reservoir.cutoff)
        return (c / math.pi) * math.log(wx / w0) / w0
    if eta < 1.0:
        return 1.0 / w0
    c = cutoff_constant(reservoir.cutoff)
    power = _cutoff_power(reservoir, emitter, eta - 1.0)
    return (c / (math.pi * (eta - 1.0))) * power / w0


def narrowband_rate_resonant(reservoir, t):
    """Rate ratio of a resonant narrowband emitter: 1 - (1 - e^-kt)/(kt).

    Strictly increasing from 0 to 1; the detuned expression at zero detuning.
    """
    return narrowband_rate_detuned(reservoir, EmitterSpec(reservoir.omega_c), t)


def _series_ratio_detuned(x, r):
    # Small-time expansion of the detuned ratio; coefficients are exact
    # rational functions of r = delta/kappa (even in r).
    a2 = r * r
    c1 = 0.5 * (1.0 + a2)
    c2 = -(1.0 + a2) / 6.0
    c3 = (1.0 - a2 * a2) / 24.0
    c4 = (1.0 + a2) * (3.0 * a2 - 1.0) / 120.0
    c5 = (a2**3 - 5.0 * a2**2 - 5.0 * a2 + 1.0) / 720.0
    c6 = -(a2**3) / 1008.0 + a2**2 / 1008.0 + a2 / 560.0 - 1.0 / 5040.0
    return x * (c1 + x * (c2 + x * (c3 + x * (c4 + x * (c5 + x * c6)))))


def narrowband_rate_detuned(reservoir, emitter, t):
    """Rate ratio of a detuned narrowband emitter.

    1 - V*(1 - cos(dt) e^-kt)/(kt) - (1-V)*sinc(dt) e^-kt with d the
    detuning and V its visibility; reduces to the resonant expression at
    zero detuning and is even in the detuning.
    """
    check_time(t)
    kappa = reservoir.kappa
    delta = emitter.omega0 - reservoir.omega_c
    x = kappa * t
    r = delta / kappa
    if x * (1.0 + r * r) < _SERIES_SWITCH:
        return _series_ratio_detuned(x, r)
    # from |r| ~ 1e8 v rounds to -1.0, which the expression takes
    v = (1.0 - r * r) / (1.0 + r * r)
    theta = delta * t
    emx = math.exp(-x)
    # 1 - cos(theta) e^-x assembled from two nonnegative pieces, so the
    # bracket keeps full relative precision for any theta
    bracket = (-math.expm1(-x) + emx * 2.0 * math.sin(0.5 * theta) ** 2) / x
    s = math.sin(theta) / theta if theta != 0.0 else 1.0
    return 1.0 - v * bracket - (1.0 - v) * s * emx


def onset_time_narrowband(reservoir):
    """Golden-rule onset time of a narrowband reservoir: 1/kappa = 2Q/omega_c."""
    return 1.0 / reservoir.kappa
