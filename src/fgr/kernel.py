"""Spectral profile of the emitter at finite time (the sinc^2 window).

The profile has unit area for every time, peaks at the transition frequency
with height t/(2*pi), and its zeros (spaced by 2*pi/t around the transition)
are the natural panel boundaries for oscillation-aware quadrature.
"""

from __future__ import annotations

import math

import numpy as np

# Below this argument sin(x)/x is evaluated by its Taylor series; the x**4
# term keeps the truncation error under 1e-24 at the switch point.
_SINC_SWITCH = 1e-4


def check_time(t):
    """Raise ValueError unless t is a finite positive time."""
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError(f"t must be finite and > 0, got {t}")


def _sinc(x):
    """sin(x)/x with sinc(0) = 1, stable for arbitrarily small arguments."""
    x = np.asarray(x, dtype=float)
    # one sin(x)/x pass in place (an array out keeps 0-d input an array),
    # then the series over the small arguments alone
    out = np.sin(x, out=np.empty_like(x))
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(out, x, out=out)
    small = np.abs(x) < _SINC_SWITCH
    xs = x[small]
    x2 = xs * xs
    out[small] = 1.0 - x2 / 6.0 + (x2 * x2) / 120.0
    return out


def spectral_profile(detuning, t):
    """Evaluate the time-t spectral profile at the given detuning.

    Parameters
    ----------
    detuning : float or array_like
        Frequency offset from the transition frequency (may be negative).
    t : float
        Elapsed time, finite and > 0.

    Returns
    -------
    float or ndarray
        (t / 2*pi) * sinc(detuning * t / 2)**2, carrying units of time.
    """
    check_time(t)
    delta = np.asarray(detuning, dtype=float)
    s = _sinc(0.5 * delta * t)
    out = (t / (2.0 * math.pi)) * s * s
    if np.ndim(detuning) == 0:
        return float(out)
    return out


def zero_counts(t, omega0, omega_max):
    """How many profile zeros omega0 -/+ (2*pi/t)*k, k >= 1, lie in [0, omega_max].

    Returns (n_left, n_right); a zero landing exactly at 0 or at omega_max
    counts. The counts are exact for the arithmetic of ``kernel_zeros``,
    which the quadrature's half-lobe edges omega0 + (pi/t)*m share at even m.
    """
    spacing = 2.0 * math.pi / t
    # the floor of a quotient can miss by one either way once k is large;
    # settle each count on the zeros as kernel_zeros computes them
    n_left = _settle(int(omega0 // spacing), lambda k: omega0 - spacing * k >= 0.0)
    n_right = _settle(
        int((omega_max - omega0) // spacing),
        lambda k: omega0 + spacing * k <= omega_max,
    )
    return n_left, n_right


def _settle(k, ok):
    """The largest n >= 0 with ok(n), or 0, where ok holds up to some n and
    fails past it, from a guess k: steps that double away from k bracket n
    and bisection closes the bracket, so that a count settles in O(log k)
    steps also where consecutive k are no longer distinct floats."""
    lo = hi = max(0, k)
    step = 1
    if ok(lo):
        while ok(lo + step):
            lo, step = lo + step, 2 * step
        hi = lo + step
    else:
        while hi > step and not ok(hi - step):
            hi, step = hi - step, 2 * step
        lo = max(0, hi - step)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return lo


def kernel_zeros(t, omega0, omega_max):
    """Frequencies in [0, omega_max] where the profile vanishes, plus omega0.

    The zeros sit at omega0 +/- 2*pi*k/t for integer k >= 1 (see
    ``zero_counts``). Entries below 0 (representation noise at the left
    domain edge) are clipped to 0.

    Returns a strictly increasing float array.
    """
    check_time(t)
    if not (omega0 > 0.0 and math.isfinite(omega0)):
        raise ValueError(f"omega0 must be finite and > 0, got {omega0}")
    if not (omega_max > 0.0 and math.isfinite(omega_max)):
        raise ValueError(f"omega_max must be finite and > 0, got {omega_max}")
    k_left, k_right = zero_counts(t, omega0, omega_max)
    spacing = 2.0 * math.pi / t
    block = omega0 + spacing * np.arange(-k_left, k_right + 1, dtype=float)
    return np.maximum(block, 0.0, out=block)
