"""Exact decay rates in closed form, for the tests: mpmath alone, no
integrator of fgr.

For the exponential cutoff, R(omega) = coupling*omega_x*x**eta*e**-x with
x = omega/omega_x, the rate

    Gamma(t) = (2/t) Re int_0^t (t - tau) e**(-i*omega0*tau) C(tau) dtau,
    C(tau) = coupling*omega_x**2*Gamma(eta+1)*(1 - i*omega_x*tau)**-(eta+1),

has a closed form in upper incomplete gamma functions (DLMF 8.2, 8.6).
With w = 1 - i*omega_x*tau and v = -beta*w, beta = omega0/omega_x, the
integral over tau becomes one of e**-v v**(s-1) from z1 = -beta to
z2 = -beta + i*omega0*t, a path in the upper half plane, z1 on the upper
side of the cut. So with

    F(s) = -beta**-s e**(-i*pi*(s-1)) [Gamma(s, z1) - Gamma(s, z2)],

    Gamma(t) = 2 Re{coupling*omega_x**2*Gamma(eta+1)*(i/omega_x)*e**-beta
                    * [(1 + i/(omega_x*t))*F(-eta) - (i/(omega_x*t))*F(1-eta)]}.

The form cancels at early times, and the phase omega0*t costs as many
digits as it has before the point, so the value is formed at two
precisions and returned only where they agree.
"""

import math

import mpmath as mp

from fgr.reservoir import BroadbandReservoir, ExponentialCutoff

# the agreement, relative to the value, that the two precisions must reach
AGREEMENT = 1e-20


def _closed_form(model, emitter, t, digits):
    with mp.workdps(digits):
        lam, eta, wx = mp.mpf(model.coupling), mp.mpf(model.eta), mp.mpf(model.omega_x)
        w0, t = mp.mpf(emitter.omega0), mp.mpf(t)
        beta = w0 / wx
        z1, z2 = mp.mpc(-beta, 0), mp.mpc(-beta, w0 * t)

        def f(s):
            cut = mp.gammainc(s, z1) - mp.gammainc(s, z2)
            return -(beta ** -s) * mp.exp(-1j * mp.pi * (s - 1)) * cut

        c = 1j / (wx * t)
        inner = (1 + c) * f(-eta) - c * f(1 - eta)
        return 2 * mp.re(lam * wx**2 * mp.gamma(eta + 1) * (1j / wx) * mp.exp(-beta) * inner)


def exact_rate(model, emitter, t, digits=30):
    """Gamma(t) of a broadband model with the exponential cutoff, as a
    float: the closed form at digits and at digits + 15, each beyond the
    decimal exponent of omega0*t. Raises ArithmeticError unless the two
    agree to AGREEMENT of the value."""
    if not (isinstance(model, BroadbandReservoir) and isinstance(model.cutoff, ExponentialCutoff)):
        raise TypeError(f"no closed form for {model}")
    phase = max(0, math.ceil(math.log10(emitter.omega0 * t)))
    low = _closed_form(model, emitter, t, digits + phase)
    high = _closed_form(model, emitter, t, digits + 15 + phase)
    if not abs(low - high) <= AGREEMENT * abs(high):
        raise ArithmeticError(
            f"the closed form at {digits} and {digits + 15} digits differs by "
            f"{mp.nstr(abs(low - high) / abs(high), 3)} relative at t={t} for {model}"
        )
    return float(high)
