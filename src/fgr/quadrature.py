"""Oscillation-aware numerical evaluation of the generalized decay rate.

The decay rate at time t is 2*pi times the integral over [0, inf) of the
spectral profile (centered on the transition frequency) against the
reservoir coupling spectrum. The integrand oscillates on the frequency
scale 2*pi/t, so the integrator aligns panels with the profile zeros in
blocks of whole lobes, and between blocks integrates the smooth envelope,
taking the far-field oscillation by parts to an O(t**-4) bounded rest. The
aligned panels are half-lobes of the profile, integrated in their local
phase: the sinc^2 factor of a whole half-lobe is a fixed weight table per
parity, and the frequency is formed only as the argument of the reservoir
spectrum.

An independent reference writes the rate as the golden rule plus an
integral along a ray into the lower half plane, where the profile's
oscillation decays, and integrates that smooth ray in float64 real
arithmetic on a geometric grid of its own, laid out in one pass to an end
that its closed-form tail bound sizes before any evaluation. It shares
with the integrator only the 16/8 Gauss-Legendre pair, the record of a
model and its emitter (_model), built once a pair, which holds the golden
rule, the short-time slope and off-resonant mass of the rate floor that
the tail is held to (_rate_floor), and the 16/8 Gauss-Jacobi pair that
both take on their one panel at a branch point at omega = 0; their panel
evaluation (_panel_values), the tail bounds (_tail_mass, _heavy_tail),
what rounding a line's phase costs (_line_phase_cost), the argument
checks (_setup) and _steps, which lays out the panel edges of any number
of stretch sequences in one call.
"""

from __future__ import annotations

import functools
import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .analytic import classify_regime
from .errors import ConvergenceError, RegimeSeparationError
from .kernel import check_time, spectral_profile, zero_counts
from .onset import RateCurve
from .reservoir import (
    BroadbandReservoir,
    ExponentialCutoff,
    NarrowbandReservoir,
    _line_shape,
    _power_lorentz_moment,
    _require_finite,
    _rsc_ray,
    evaluate_rsc,
    golden_rule_rate,
    to_json,
    zeno_slope,
)

__all__ = [
    "QuadratureConfig",
    "IntegrationResult",
    "decay_rate_numeric",
    "decay_rate_numeric_oracle",
    "rate_curve",
    "truncation_frequency",
]

# the ladder of block half-widths, in whole lobes kept on each side of the
# transition and of a narrowband line's centre before the far field is
# left to envelope runs: each point builds and probes them in order and
# takes the first whose envelope runs bound their dropped oscillation
# within its tolerance, or the first that holds every lobe, or the last
_CAPS = (32, 128, 512, 2048, 10_000)

# whole lobes kept next to omega = 0 when the block around the transition
# stops short of it, so that no envelope run ends at the branch point there
_EDGE_LOBES = 8

# geometric panels per decade in oscillation-free stretches
_PANELS_PER_DECADE = 8

# max phase advance (omega span times t) of one fully-resolved panel;
# a 16-node Gauss rule integrates this far below 1e-12 relative
_PHASE_CAP = 4.0

# the most decades a cut is extended by beyond its first end: the contour
# reference's ray, and the panel scheme's power-Lorentz omega_max
_REF_DECADES = 40


def _gauss_pair(eta=0.0):
    """The 16/8 Gauss-Jacobi pair for the weight (1 + x)**eta on [-1, 1],
    Gauss-Legendre at eta = 0, as one 24-node rule: its weight columns give
    the 16-node value and the 8-node one, whose difference is its error
    estimate, so one integrand call on 24 nodes gives both. The weights are
    divided by their node's (1 + x)**eta, so that it integrates
    (1 + x)**eta * g(x) itself.

    Golub-Welsch, alpha = 0, beta = eta: the nodes are the eigenvalues of
    the n = 16 Jacobi matrix and of its leading 8x8 block, after one Newton
    step on p_n (without it their rounding costs up to 5e-14 of
    exactness), the weights 1/sum p_k(x)**2, k < n, each orthonormal p_k
    times (1 + x)**(eta/2) from logarithms, so that none overflows up to
    eta ~ 170. The recurrence runs over all 24 nodes and takes the 8-node
    rule's p_8, slope and sum at step 8. At eta = 0 the nodes are within
    1e-16 and the weights 3e-15 relative of 40-digit Legendre values.
    """
    k = np.arange(17.0)
    s = 2.0 * k + eta
    # diag[0] formed apart: rounded twice it cost 1e-14 of exactness, and
    # the general form is 0/0 at eta = 0
    diag = np.append(eta / (eta + 2.0), eta * eta / (s[1:] * (s[1:] + 2.0)))
    off = np.append(0.0, 2.0 * k[1:] * (k[1:] + eta) / (s[1:] * np.sqrt(s[1:] ** 2 - 1.0)))
    jacobi = np.diag(diag[:16]) + np.diag(off[1:16], 1) + np.diag(off[1:16], -1)
    x = np.concatenate([np.linalg.eigvalsh(jacobi), np.linalg.eigvalsh(jacobi[:8, :8])])
    log_mass = (eta + 1.0) * math.log(2.0) - math.log1p(eta)
    steps = list(zip(range(1, 17), off[:16].tolist(), off[1:].tolist()))

    def start(x):
        # p_-1 = 0, p_0 = (1 + x)**(eta/2)/sqrt(mass), and x - diag[i - 1]
        return 0.0, np.exp(0.5 * (eta * np.log1p(x) - log_mass)), x - diag[:16, None]

    # the Newton step, on p_n and its slope
    (p0, p1, rows), d0, d1 = start(x), 0.0, 0.0
    for (i, b, c), a in zip(steps, rows):
        p0, p1, d0, d1 = p1, (a * p1 - b * p0) / c, d1, (a * d1 + p1 - b * d0) / c
        if i == 8:
            p8, d8 = p1[16:], d1[16:]
    x = x - np.append(p1[:16], p8) / np.append(d1[:16], d8)
    # the weights, from the sum of p_k**2 at the corrected nodes
    (p0, p1, rows), total = start(x), 0.0
    for (i, b, c), a in zip(steps, rows):
        total = total + p1 * p1
        p0, p1 = p1, (a * p1 - b * p0) / c
        if i == 8:
            total8 = total[16:]
    w = np.zeros((24, 2))
    w[:16, 0], w[16:, 1] = 1.0 / total[:16], 1.0 / total8
    # read-only: _GL_PAIR and each record of _model share them with every caller
    x.flags.writeable = w.flags.writeable = False
    return x, w


_GL_PAIR = _gauss_pair()
_HI = 16  # the 16-node rule's nodes lead the pair
# the pair's nodes as offsets from a panel's left end, per unit half-width
_NODE_OFFSETS = 1.0 + _GL_PAIR[0]

# Panel kinds. A phase panel lies in half-lobe m of the profile, where the
# phase x = (omega - omega0)*t/2 runs over [m*pi/2, (m+1)*pi/2]; its edges
# are the local phase u = x - m*pi/2. The other kinds span frequencies:
# profile panels carry the whole integrand, smooth panels its envelope.
_PHASE, _PROFILE, _SMOOTH = 0, 1, 2
_HALF_PI = 0.5 * math.pi
# pi/2 less the float _HALF_PI, so that m*pi/2 + u is formed to eps of its
# value even where it cancels to near 0
_HALF_PI_LO = 6.123233995736766e-17


def _half_lobe_rule(rule):
    # Over a whole half-lobe sin(x)**2 is sin(u)**2 for even m and cos(u)**2
    # for odd m, whatever m is, so the profile folds into one weight table
    # per parity: (pi/2) * w * sin(u)**2 and (pi/2) * w * cos(u)**2, the
    # columns of the even table before those of the odd one.
    nodes, w = rule
    u = 0.25 * math.pi + 0.25 * math.pi * nodes
    table = [w * (f(u) ** 2)[:, None] for f in (np.sin, np.cos)]
    return nodes, w, u, _HALF_PI * np.hstack(table)


_HALF_LOBE_RULE = _half_lobe_rule(_GL_PAIR)


def _derivative_rows(x, order):
    # rows that take the values at nodes x to derivatives 0 to order (per
    # unit half-width) of their interpolant at -1, at each node and at 1:
    # barycentric interpolation rows times powers of the nodes'
    # differentiation matrix
    gap = x[:, None] - x[None, :]
    np.fill_diagonal(gap, 1.0)
    lam = 1.0 / np.prod(gap, axis=1)
    d1 = (lam[None, :] / lam[:, None]) / gap
    np.fill_diagonal(d1, 0.0)
    np.fill_diagonal(d1, -d1.sum(axis=1))

    def at(y):
        c = lam / (y - x)
        return c / c.sum()

    rows = [np.vstack([at(-1.0), np.eye(x.size), at(1.0)])]
    for _ in range(order):
        rows.append(rows[-1] @ d1)
    return np.stack(rows)


_GL_DIFF = _derivative_rows(_GL_PAIR[0][:_HI], 3)

# nodes per vectorised pass over phase panels, so that the arrays of one
# pass stay in cache
_CHUNK = 1 << 13

_EPS = float(np.finfo(float).eps)

_log = logging.getLogger("fgr")


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerance for the decay-rate integrator; the integral's cut follows
    rel_tol (see truncation_frequency). tail_epsilon is ignored, with a
    FutureWarning, and is to be removed."""

    rel_tol: float = 1e-8
    tail_epsilon: float | None = None

    def __post_init__(self):
        _require_finite(self)
        if not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be > 0")
        if self.tail_epsilon is not None:
            msg = "tail_epsilon is ignored: the integral's cut follows rel_tol"
            warnings.warn(msg, FutureWarning, stacklevel=3)


@dataclass(frozen=True, slots=True)
class IntegrationResult:
    """Decay-rate value with its accuracy metadata.

    ``panels_used`` counts quadrature panels for the panel scheme and
    kernel evaluations for the contour reference.
    """

    value: float
    error_estimate: float
    panels_used: int
    truncation_frequency: float

    def __post_init__(self):
        # written so that NaN fails too
        if not (self.value >= 0.0 and self.error_estimate >= 0.0):
            raise ValueError(
                "value and error_estimate must be nonnegative numbers, got "
                f"value={self.value!r}, error_estimate={self.error_estimate!r}"
            )


@dataclass(frozen=True)
class _Model:
    """What both integrators take from a model and its emitter alone, in
    the order _model builds it, where each rule is derived."""

    gamma0: float  # the golden rule 2*pi*R(omega0)
    slope: float | None  # the short-time slope A, None where the RSC mass diverges
    mass: float  # the off-resonant mass M for eta > 1, else 0
    head: tuple | None  # the Gauss-Jacobi pair at a branch point at omega = 0
    width: tuple  # the panel width cap (p, alpha, lo, hi, at)
    scale: float  # where the RSC turns along the ray
    theta: float  # the reference's ray angle below the real axis
    ray_ulps: float  # the reference's rounding of one node's integrand
    panel_ulps: float  # the panel scheme's rounding of its panel values


@functools.lru_cache(maxsize=32)
def _model(reservoir, emitter):
    """The _Model of a reservoir and an emitter, one branch per family.

    The width cap is the panel width at which the RSC is comfortably
    analytic for a 16-node Gauss rule, as (p, alpha, lo, hi, at): a panel
    whose nearest point lies d > 0 from p may be clip(alpha*d, lo, hi) wide,
    and one that reaches p at most `at`, which is lo where lo > 0.

    The ray's angle is pi/4, unless |R| would grow along it: on the ray an
    exponent p raises |R| near its peak by about cos(theta)**-p over the
    real axis, so the exponential cutoff (p = eta) and the power-Lorentz one
    (p = mu) take theta = 1/sqrt(p) where that is smaller. A Lorentzian
    line's pole omega_c - i*kappa, at angle phi below the axis, is crossed
    with pi/4 to spare: theta = phi + pi/4, which may pass -i. So the ray
    keeps at least min(theta, pi/4) from every pole and branch point. Its
    scale is omega_x, or the line's |omega_c - i*kappa|.

    The reference's ulps are 8 for the kernel's arithmetic, plus the RSC's
    on the ray (reservoir._rsc_ray): p = max(eta, 1) times the 1.5 + Re(x)/p
    ulps of its p-th power's base, Re(x) ~ eta at the exponential cutoff's
    peak, and 2*sqrt(eta) from its phase, so 3*eta; 2*(eta + mu) for the
    power-Lorentz cutoff (weighted by |R|, the RSC rounds by under a
    quarter of these up to eta = 150); for a line, whose pole lies pi/4 off
    the ray, at most 2/sin(pi/4). The panel scheme's are eta/2 for the
    exponential cutoff, as x**eta rounds by about eta/2 ulps of x's
    rounding (see _evaluate); a line has no such power. The power-Lorentz
    RSC x**eta*(1 + x**2)**-mu may round by about eta + mu ulps, but that
    is unmeasured, so it takes 0, the flat floor alone.

    M is a lower bound on the integral of R/omega**2 over omega > 2*omega0,
    where 1/delta**2 >= 1/omega**2. In x = omega/omega_x it is coupling
    times that of x**(eta-2)*F(x) over x > x0 = 2*omega0/omega_x. Over
    x > 0 that is the cutoff's moment m(eta-2): Gamma(eta-1) for the
    exponential cutoff, the Beta-function value of _power_lorentz_moment
    for the power-Lorentz one; as F <= 1, below x0 it is at most
    x0**(eta-1)/(eta-1). So M = coupling*[m(eta-2) - x0**(eta-1)/(eta-1)],
    the second term compared in logarithms, since it overflows where x0 > 1
    and eta is large.
    """
    gamma0 = golden_rule_rate(reservoir, emitter)
    try:
        slope = zeno_slope(reservoir)
    except ValueError:
        # a power-Lorentz RSC whose mass diverges has no finite slope
        slope = None
    if isinstance(reservoir, NarrowbandReservoir):
        wc, kappa = reservoir.omega_c, reservoir.kappa
        # a line's poles lie kappa off the real axis at omega_c, so half of
        # kappa there keeps even the 8-node rule well inside their ellipse;
        # away from it widths grow by the same ratio as from a branch point
        half = 0.5 * kappa
        width = (wc, 0.6, half, math.inf, half)
        theta = math.atan2(kappa, wc) + 0.25 * math.pi
        return _Model(gamma0, slope, 0.0, None, width, abs(complex(wc, kappa)), theta, 12.0, 0.0)
    eta, wx, cutoff = reservoir.eta, reservoir.omega_x, reservoir.cutoff
    # a non-integer exponent eta puts a branch point of the RSC at omega = 0;
    # a line and an integer eta are analytic there
    branch = abs(eta - round(eta)) > 1e-12
    if isinstance(cutoff, ExponentialCutoff):
        moment = math.gamma(eta - 1.0) if eta > 1.0 else 0.0
        # a branch point at omega = 0 makes panel widths shrink in
        # proportion to the distance from it
        hi = 2.0 * wx
        width = (0.0, 0.6, 0.0, hi, hi) if branch else (0.0, 1.0, hi, hi, hi)
        p, ray_ulps, panel_ulps = eta, 8.0 + 3.0 * eta, 0.5 * eta
    else:
        mu = cutoff.mu
        if eta >= 2.0 * mu + 1.0:
            raise ValueError(
                "decay-rate integral diverges: power-Lorentz cutoff needs "
                f"eta < 2*mu + 1, got eta={eta}, mu={mu}"
            )
        moment = _power_lorentz_moment(eta - 2.0, mu) if eta > 1.0 else 0.0
        # the poles and branch points of [1 + (omega/omega_x)**2]**-mu lie at
        # +-i*omega_x, so widths grow with |omega| as from a branch point at
        # omega = 0, by a line's ratio, from 0.3*omega_x for an integer eta
        # (at 0.6*omega_x, early points missed rel_tol 1e-12 on their 8-node
        # estimate), and from 0.6*omega_x at a branch point
        lo, at = (0.0, 0.6 * wx) if branch else (0.3 * wx, 0.3 * wx)
        width = (0.0, 0.6, lo, math.inf, at)
        # panel_ulps 0: this RSC's rounding on panels is unmeasured
        p, ray_ulps, panel_ulps = mu, 8.0 + 2.0 * (eta + mu), 0.0
    mass = 0.0
    if moment > 0.0:
        x0 = 2.0 * emitter.omega0 / wx
        log_ratio = (eta - 1.0) * math.log(x0) - math.log(eta - 1.0) - math.log(moment)
        if log_ratio < 0.0:
            mass = reservoir.coupling * moment * -math.expm1(log_ratio)
    theta = min(0.25 * math.pi, 1.0 / math.sqrt(p)) if p > 0.0 else 0.25 * math.pi
    head = _gauss_pair(eta) if branch else None
    return _Model(gamma0, slope, mass, head, width, wx, theta, ray_ulps, panel_ulps)


def _rate_floor(reservoir, emitter, t):
    # conservative lower scale for the decay rate, used to make the tail
    # truncation and the far-field budget relative: a tenth of the lesser
    # of the short-time slope law A*t and a late term, the golden rule or,
    # for eta > 1 once t*omega_x >= 1, the off-resonant part (2/t)*M where
    # that is larger (see _model). Before t*omega_x = 1 the profile has not
    # yet resolved the spectrum, and (2/t)*M overshoots.
    model = _model(reservoir, emitter)
    late = model.gamma0
    if model.mass and t * model.scale >= 1.0:
        late = max(late, (2.0 / t) * model.mass)
    if model.slope is None:
        return 0.1 * late
    return 0.1 * min(model.slope * t, late)


def truncation_frequency(reservoir, emitter, t, cfg=None):
    """Upper integration limit, with the neglected tail sized by
    eps = 1e-4*rel_tol (1e-12 at the default rel_tol).

    For the exponential cutoff, with L = ln(1/eps), the limit is
    omega_x*(L + 10) wherever the RSC mass beyond it is at most eps times
    the total mass (eta <= 3 at the default rel_tol). Otherwise the
    spectral peak at eta*omega_x lies too close below it, and the limit
    moves out to omega_x*x with x = min(a + sqrt(2*a*L) + L, 700),
    a = eta + 1: past the peak by the Gamma(a) tail's width, capped where
    the closed-form tail bound is still a normal float.

    For the power-Lorentz cutoff, whose tail falls as a power, the limit
    starts at the lesser of omega_x*eps**(1/p), p = eta + 1 - 2*mu, and
    1e3*omega_x, and goes out by whole decades, at most 40, until the bound
    on the tail beyond it is within 1e-3*rel_tol of the point's rate floor,
    as the contour reference sizes its ray.

    For a Lorentzian line the limit lies past max(omega0, omega_c) by the
    larger of 50*kappa and the least span whose tail, the lesser of
    4*kappa*g**2/(3*pi*t*span**3) and t*kappa*g**2/(pi*span), is eps times
    the point's rate floor.
    """
    cfg, _ = _setup(reservoir, emitter, t, cfg)
    return _truncation(reservoir, emitter, t, cfg, _rate_floor(reservoir, emitter, t))


def _truncation(reservoir, emitter, t, cfg, floor):
    # truncation_frequency, given the point's _rate_floor
    eps = 1e-4 * cfg.rel_tol
    w0 = emitter.omega0
    if isinstance(reservoir, BroadbandReservoir):
        wx = reservoir.omega_x
        if isinstance(reservoir.cutoff, ExponentialCutoff):
            log_inv_eps = math.log(1.0 / eps)
            omega_max = wx * log_inv_eps + 10.0 * wx
            if _tail_mass(reservoir, omega_max) > eps * _model(reservoir, emitter).slope:
                a = reservoir.eta + 1.0
                x = min(a + math.sqrt(2.0 * a * log_inv_eps) + log_inv_eps, 700.0)
                omega_max = max(omega_max, wx * x)
        else:
            # eps**(1/p) where it stays below 1e3, compared in logarithms
            # since it overflows as p rises to 0, then decades out to where
            # the tail bound is within 1e-3*rel_tol of the floor, as the
            # reference sizes its ray
            p = reservoir.eta + 1.0 - 2.0 * reservoir.cutoff.mu
            omega_max = 1e3 * wx
            if p < -1e-9 and math.log(eps) / p < math.log(1e3):
                omega_max = min(wx * eps ** (1.0 / p), omega_max)
            omega_max = max(omega_max, 2.0 * w0)
            for _ in range(_REF_DECADES):
                if _tail_bound(reservoir, emitter, t, omega_max) <= 1e-3 * cfg.rel_tol * floor:
                    break
                omega_max *= 10.0
    else:
        # the lesser span, as _tail_bound takes the lesser bound: the flat
        # profile's, formed with floor/t to stay finite at tiny t, and the
        # envelope's, where its divisor has not underflowed to 0
        k, wc = reservoir.kappa, reservoir.omega_c
        span = k * reservoir.g**2 / (math.pi * eps * (floor / t))
        den = 3.0 * math.pi * t * eps * floor
        if den > 0.0:
            span = min(span, (4.0 * k * reservoir.g**2 / den) ** (1.0 / 3.0))
        omega_max = max(w0, wc) + max(span, 50.0 * k)
    return max(omega_max, 2.0 * w0)


def _tail_mass(reservoir, omega_max):
    # upper bound on the RSC mass above omega_max (inf if not integrable)
    if isinstance(reservoir, NarrowbandReservoir):
        k, wc = reservoir.kappa, reservoir.omega_c
        return (
            reservoir.g**2 / math.pi * (0.5 * math.pi - math.atan((omega_max - wc) / k))
        )
    lam, eta, wx = reservoir.coupling, reservoir.eta, reservoir.omega_x
    x = omega_max / wx
    if isinstance(reservoir.cutoff, ExponentialCutoff):
        # upper bound on Gamma(a, x), the integral of s**eta e**-s over s > x:
        # ln s <= ln c + s/c - 1 for any c > eta gives c**a e**(eta*x/c - eta - x)
        # / (c - eta), least at the root c below; Gamma(a) where that is larger
        a = eta + 1.0
        c = 0.5 * (a + x + math.sqrt((a + x) ** 2 - 4.0 * eta * x))
        log_bound = a * math.log(c) + eta * x / c - eta - x - math.log(c - eta)
        bound = math.gamma(a) if log_bound >= math.lgamma(a) else math.exp(log_bound)
        return lam * wx**2 * bound
    mu = reservoir.cutoff.mu
    p = 2.0 * mu - eta - 1.0
    if p > 1e-9:
        return lam * wx**2 * x ** (-p) / p
    return math.inf


def _heavy_tail(reservoir, emitter, t, end):
    # the power-Lorentz tail bound where the RSC mass diverges: the profile's
    # 4/(t*delta**2) envelope keeps the integral beyond end finite
    lam, eta, wx = reservoir.coupling, reservoir.eta, reservoir.omega_x
    q = 2.0 * reservoir.cutoff.mu + 1.0 - eta
    rel = 1.0 - emitter.omega0 / end
    return 4.0 * lam * (end / wx) ** (-q) / (t * rel * rel * q)


def _tail_bound(reservoir, emitter, t, omega_max):
    # bound on 2*pi * integral of profile*RSC above omega_max: the smaller
    # of the flat-profile bound t*M and the far-detuning envelope bound
    w0 = emitter.omega0
    mass = _tail_mass(reservoir, omega_max)
    if mass == math.inf:
        return _heavy_tail(reservoir, emitter, t, omega_max)
    bound = t * mass
    if omega_max > w0:
        bound = min(bound, 4.0 * mass / (t * (omega_max - w0) ** 2))
    return bound


# k/n for k = 1..n, as np.arange(1, n + 1) / n, for n up to 64: no stretch
# of fig1's or the narrowband curves' layouts is longer. Shared, so never
# written to.
_FRACTIONS = tuple(np.arange(1.0, n + 1.0) / n for n in range(65))


def _steps(bounds, step, geometric):
    """Panel edges of many sequences of stretches in one call: row i of
    bounds and of step is a sequence, whose stretch j runs from bounds[i][j]
    to bounds[i][j + 1] in the fewest equal panels at most step[i][j] wide
    or, where geometric[j], the fewest at equal ratios of at most
    10**(1/step[i][j]), step being panels per decade. Returns the edges
    after each row's first bound, flat in row order, and how many each row
    has. Each stretch's end is an edge exactly, and a stretch that does not
    end past its start adds none."""
    parts, counts = [], []
    for row, widths in zip(bounds, step):
        count = 0
        for s, e, h, g in zip(row, row[1:], widths, geometric):
            if e > s:
                r = e / s if g else e - s
                n = max(1, math.ceil(math.log10(r) * h if g else r / h))
                f = _FRACTIONS[n] if n < len(_FRACTIONS) else np.arange(1.0, n + 1.0) / n
                part = s * r**f if g else s + r * f
                part[-1] = e
                parts.append(part)
                count += n
        counts.append(count)
    return (np.concatenate(parts) if parts else np.empty(0)), counts


# geometric, then uniform: the two stretches of each run and stub
_RUN_STRETCHES = (True, False)


def _geom_run(lo, hi, step):
    # a _steps row from lo to hi (0 < lo < hi): geometric at _PANELS_PER_DECADE
    # per decade until a step would pass `step`, then uniform at most that wide
    top = min(hi, max(lo, step / (10.0 ** (1.0 / _PANELS_PER_DECADE) - 1.0)))
    return [lo, top, hi], [_PANELS_PER_DECADE, step]


def _graded_points(edges, cap):
    """The points that split each panel between the sorted edges wider than
    the width cap (see _model) at its point nearest p: (panel, ascending
    points) pairs, in panel order. A panel splits at p, and each side of
    it at distances d from p that step by at most lo up to lo/alpha, by
    ratios of at most 1 + alpha up to hi/alpha, then by at most hi: each
    part meets the cap at its near end, and none is a sliver. With lo = 0 no
    width meets the cap at p, so a side that reaches p starts with a part
    `at` wide. The sides of all panels take one _steps call."""
    p, alpha, lo, hi, at = cap
    a, b = edges[:-1], edges[1:]
    # the clip to [lo, hi] in the ops that change it: no edge lies below
    # p = 0, and at differs from lo only where lo = 0 < hi
    near = np.maximum(a - p, p - b) if p else a
    limit = lo if lo == hi else alpha * near
    if lo < hi:
        limit = np.maximum(limit, lo) if lo else limit
        limit = np.minimum(limit, hi) if hi < math.inf else limit
    if at != lo:
        limit[near <= 0.0] = at
    wide = np.nonzero(b - a > limit)[0]
    if not wide.size:
        return []
    # each side of a panel as a row [d0, d1, d2, d3] of distances from p,
    # d0 and d3 being p or the panel's ends; with lo = 0 the first stretch
    # is the part `at` wide, or none
    rows, sides, e = [], [], edges.tolist()
    for i in wide.tolist():
        ai, bi = e[i], e[i + 1]
        for sign, d0, d3 in ((-1.0, p - bi, p - ai), (1.0, ai - p, bi - p)):
            if d3 > 0.0:
                d0 = max(0.0, d0)
                start = at if d0 == 0.0 and lo == 0.0 else d0
                d1 = min(max(lo / alpha, start), d3)
                rows.append((d0, d1, min(max(hi / alpha, d1), d3), d3))
                sides.append((i, sign))
    # uniform up to lo/alpha, geometric up to hi/alpha, then uniform
    step = (lo or math.inf, 1.0 / math.log10(1.0 + alpha), hi)
    dist, counts = _steps(rows, [step] * len(rows), (False, True, False))
    # the edges of a side but its last are its cuts, a left side's reversed,
    # and p itself where a panel holds it
    dist, groups, j = dist.tolist(), [], 0
    for k, ((i, sign), c) in enumerate(zip(sides, counts)):
        cuts = dist[j : j + c - 1]
        j += c
        if sign < 0.0:
            groups.append((i, [p - d for d in cuts[::-1]]))
        elif k and sides[k - 1][0] == i:
            groups[-1][1].extend([p] + [p + d for d in cuts])
        else:
            groups.append((i, [p + d for d in cuts]))
    return groups


def _phase_omega(w0, t, m, u):
    # the frequency at local phase u of half-lobe m, formed only for the RSC
    return (w0 + (math.pi / t) * m) + (2.0 / t) * u


def _line_anchor(reservoir, w0, t):
    # the half-lobe k nearest a line's centre, and its edge's detuning
    # omega_k - omega_c formed as (w0 - omega_c) + (pi/t)*k, whose rounding
    # scales with |w0 - omega_c|, not with omega_c
    k = round((reservoir.omega_c - w0) * t / math.pi)
    return k, (w0 - reservoir.omega_c) + (math.pi / t) * k


def _line_shift(reservoir, w0, t):
    # How far rounding moves a line along the exact phases of the
    # half-lobes, in frequency (see _phase_rsc): its anchor (see
    # _line_anchor) is off by half an ulp of w0 - omega_c and of the sum,
    # and (pi/t)*k by 1.2 eps, two roundings and float pi's 0.18 eps; in
    # all at most about 2*eps*|w0 - omega_c|.
    k, anchor = _line_anchor(reservoir, w0, t)
    far = 0.5 * abs(w0 - reservoir.omega_c) + 1.2 * abs((math.pi / t) * k)
    return _EPS * (far + 0.5 * abs(anchor))


def _phase_rsc(reservoir, w0, t, m, u):
    # The RSC at local phase u of half-lobe m. A Lorentzian line takes its
    # detuning d = omega - omega_c from the edge of the half-lobe k nearest
    # its centre (see _line_anchor), so that rounding costs eps of d and of
    # |w0 - omega_c| rather than eps*omega_c, which is eps*omega_c/kappa of
    # the line's value.
    if isinstance(reservoir, NarrowbandReservoir):
        k, anchor = _line_anchor(reservoir, w0, t)
        d = anchor + ((math.pi / t) * (m - k) + (2.0 / t) * u)
        return _line_shape(reservoir, d)
    return evaluate_rsc(reservoir, _phase_omega(w0, t, m, u))


def _first_layout(reservoir, emitter, t, omega_max, rel_tol, floor):
    """A point's panels and their envelope terms (see _envelope_terms):
    blocks of the smallest cap in _CAPS whose envelope runs bound their
    dropped oscillation by a quarter of rel_tol times the rate floor. The
    caps are built and probed in order. A cap that holds every lobe gives
    the layout of any larger one, so it ends the ladder whatever its bound,
    as the last cap does."""
    lobes = zero_counts(t, emitter.omega0, omega_max)
    last = min(max(lobes), _CAPS[-1])
    budget = 0.25 * rel_tol * floor
    for cap in _CAPS:
        panels = _build_panels(reservoir, emitter, t, omega_max, cap, lobes)
        a, b, _, kind = panels
        terms = _envelope_terms(reservoir, emitter, t, a, b, kind)
        if terms[2] <= budget or cap >= last:
            if _log.isEnabledFor(logging.DEBUG):
                _log.debug(
                    "t=%r, %d lobes: took cap %d; probed and rejected: %s",
                    t, max(lobes), cap, list(_CAPS[: _CAPS.index(cap)]),
                )
            return panels, terms


def _build_panels(reservoir, emitter, t, omega_max, cap, lobes):
    """Panel arrays (a, b, m, kind), left to right (see the panel kinds):
    merged blocks of whole lobes, at most cap on each side of the transition
    and of a narrowband line, envelope runs between them, and profile stubs
    beyond the outermost kernel zeros. Runs and stubs step at most the RSC's
    widest cap (stubs also _PHASE_CAP/t), the stub below the first zero in
    one stretch from 0. The points of _graded_points split whatever panel
    is still too wide for the RSC, half-lobes in their local phase. The
    panel at a branch point at omega = 0 takes the Gauss-Jacobi pair.
    lobes is the point's zero_counts (k_left, k_right)."""
    w0 = emitter.omega0
    k_left, k_right = lobes
    # blocks as ranges [lo, hi] of zero indices k, the zero k at w0 + 2*pi*k/t
    blocks = [(-min(k_left, cap), min(k_right, cap))]
    if k_left > cap:
        blocks.append((-k_left, _EDGE_LOBES - k_left))
    if isinstance(reservoir, NarrowbandReservoir):
        kc = round((reservoir.omega_c - w0) * t / (2.0 * math.pi))
        if not blocks[0][0] <= kc <= blocks[0][1]:
            blocks.append((max(kc - cap, -k_left), min(kc + cap, k_right)))
    merged = []
    for lo, hi in sorted(blocks):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])

    model = _model(reservoir, emitter)
    width = model.width
    step = width[3]
    stub_step = min(step, _PHASE_CAP / t)

    def zero(k):
        # the half-lobe edge arithmetic, so that runs meet blocks exactly
        return _phase_omega(w0, t, 2 * k, 0.0)

    # the parts left to right: (kind, m0, m1) for the half-lobes m0 to m1 - 1
    # of a block, or (kind, side, end) for a row of `rows`, which _steps lays
    # out: an envelope run in the distance from w0 on its side -1 or 1, or a
    # profile stub (side 0) in omega
    parts, rows = [], []

    def add_run(lo, hi):
        # envelope run from lo to hi, geometric in the distance from w0
        rows.append(_geom_run(w0 - hi, w0 - lo, step) if lo < w0 else _geom_run(lo - w0, hi - w0, step))
        parts.append((_SMOOTH, -1.0 if lo < w0 else 1.0, hi))

    # the first block starts at the zero -k_left; where that zero is a branch
    # point at omega = 0, its first half-lobe is the stub instead, so that
    # the Gauss-Jacobi pair, which profile panels alone take, covers it
    skip = int(zero(-k_left) == 0.0 and model.head is not None)
    z_left = _phase_omega(w0, t, skip - 2 * k_left, 0.0)
    if z_left > 0.0:
        rows.append(([0.0, 0.0, z_left], [_PANELS_PER_DECADE, stub_step]))
        parts.append((_PROFILE, 0.0, z_left))
    for i, (lo, hi) in enumerate(merged):
        if i:
            add_run(zero(merged[i - 1][1]), zero(lo))
        parts.append((_PHASE, 2 * lo + (0 if i else skip), 2 * hi))
    end = zero(merged[-1][1])
    if merged[-1][1] < k_right:
        add_run(end, omega_max)
    elif end < omega_max:
        rows.append(_geom_run(end, omega_max, stub_step))
        parts.append((_PROFILE, 0.0, omega_max))

    # each part's edges after its first, kind and half-lobes, by slices
    points, counts = _steps(*zip(*rows), _RUN_STRETCHES) if rows else (None, ())
    counts = iter(counts)
    sizes = [y - x if k == _PHASE else next(counts) for k, x, y in parts]
    n = sum(sizes)
    edges, kind, m = np.empty(n + 1), np.empty(n, dtype=int), np.zeros(n, dtype=int)
    edges[0] = 0.0
    spans, i, j = [], 0, 0  # each block's first and end panel, first half-lobe
    for (k, x, y), size in zip(parts, sizes):
        kind[i : i + size] = k
        if k == _PHASE:
            # _phase_omega at u = 0, whose + 0.0 changes no edge
            halves = np.arange(x, y + 1)
            edges[i : i + size + 1] = w0 + (math.pi / t) * halves
            m[i : i + size] = halves[:-1]
            spans.append((i, i + size, x))
        else:
            # the row's edges but its last in omega, a left run's reversed,
            # then the part's end exactly
            inner, out = points[j : j + size - 1], edges[i + 1 : i + size]
            if x > 0.0:
                np.add(w0, inner, out=out)
            elif x < 0.0:
                np.subtract(w0, inner[::-1], out=out)
            else:
                out[:] = inner
            edges[i + size] = y
            j += size
        i += size
    a, b = edges[:-1].copy(), edges[1:].copy()
    for first, last, _ in spans:
        a[first:last], b[first:last] = 0.0, _HALF_PI

    # a point in a half-lobe splits it at its local phase, unless that lies
    # within rounding of the half-lobe's edges
    local, owner, at = [], [], []
    for i, cuts in _graded_points(edges, width):
        for first, last, lobe in spans:
            if first <= i < last:
                lobe += i - first
                origin = _phase_omega(w0, t, lobe, 0.0)
                fuzz = 2.0 * _EPS * (w0 * t + math.pi * abs(lobe))
                cuts = [(x - origin) * (0.5 * t) for x in cuts]
                cuts = [u for u in cuts if fuzz < u < _HALF_PI - fuzz]
                break
        # each point ends one part of its panel and starts the next
        at += range(i + len(local) + 1, i + len(local) + len(cuts) + 1)
        owner += [i] * len(cuts)
        local += cuts
    if not local:
        return a, b, m, kind
    repeats, at = np.bincount(owner, minlength=n) + 1, np.array(at)
    a, b = np.repeat(a, repeats), np.repeat(b, repeats)
    a[at], b[at - 1] = local, local
    return a, b, np.repeat(m, repeats), np.repeat(kind, repeats)


def _panel_values(f, a, b, head=None):
    # both rules' values of panels [a, b] from one call of f on their 24
    # nodes each, and the values at the nodes: the first panel takes the
    # pair head if given, its values scaled by its weights over _GL_PAIR's
    x, w = _GL_PAIR
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    nodes = mid + half * x
    if head is not None:
        nodes[0] = mid[0] + half[0] * head[0]
    vals = f(nodes.reshape(-1)).reshape(a.size, x.size)
    if head is not None:
        vals[0] *= head[1].sum(axis=1) / w.sum(axis=1)
    return (vals @ w) * half, vals


def _phase_values(reservoir, w0, t, a, b, m):
    """16- and 8-node values of phase panels, as columns, in chunks."""
    values = np.empty((a.size, 2))
    per_pass = _CHUNK // _GL_PAIR[0].size
    for i in range(0, a.size, per_pass):
        c = slice(i, i + per_pass)
        values[c] = _phase_pass(reservoir, w0, t, a[c], b[c], m[c])
    return values


def _phase_pass(reservoir, w0, t, a, b, m):
    # Each phase panel is sum_j W_j R(omega_j) / x_j**2 with
    # W_j = (b - a) * w_j * sin(x_j)**2: from the parity table on whole
    # half-lobes, on the rest from sin(u) for even m and cos(u) for odd m,
    # which near u = pi/2 does not cancel as sin(u + pi/2) would. Rounding
    # the small local phase costs eps relative at any m, and x = m*pi/2 + u
    # takes pi/2's low part too: at m = -1, x runs to 0 at omega0, where the
    # float pi/2 alone would cost 1.2e-16/|x| of x**2.
    nodes, w, u, table = _HALF_LOBE_RULE
    part = (a != 0.0) | (b != _HALF_PI)
    partial = part.any()
    if partial:
        half = 0.5 * (b - a)[:, None]
        u = 0.5 * (a + b)[:, None] + half * nodes
    mc = m[:, None]
    x2 = (_HALF_PI * mc + u) + _HALF_PI_LO * mc
    x2 *= x2
    vals = _phase_rsc(reservoir, w0, t, mc, u) / x2
    odd = (m & 1).astype(bool)
    both = vals @ table
    out = np.where(odd[:, None], both[:, 2:], both[:, :2])
    if partial:
        up = u[part]
        s = np.where(odd[part, None], np.cos(up), np.sin(up))
        out[part] = ((s * s * vals[part]) @ w) * (2.0 * half[part])
    return out


def _setup(reservoir, emitter, t, cfg):
    # shared by both integrators: defaults, argument checks and the model's
    # record, whose builder refuses a power-Lorentz integral that diverges
    if cfg is None:
        cfg = QuadratureConfig()
    check_time(t)
    # past this the half-lobe indices (omega - omega0)*t/pi near omega0 and
    # a line's centre are no longer exact floats
    w = max(emitter.omega0, getattr(reservoir, "omega_c", 0.0))
    if w * t >= math.pi * 2.0**53:
        raise ValueError(f"t = {t} is too late: omega*t must stay below pi*2**53")
    return cfg, _model(reservoir, emitter)


def _profile_values(reservoir, emitter, t, a, b, head):
    """16- and 8-node values of profile panels [a, b], as columns, of the
    decay-rate integrand 2*pi * profile * RSC. A Lorentzian line takes its
    detuning d = omega - omega_c as a - omega_c plus the node's offset from
    a, not from the rounded node, whose error would be eps*omega_c/kappa of
    the line near its centre: its width cap (see _model) keeps the panel
    narrower than kappa/2 and than 0.6*|d|, so the offset rounds by eps of
    those alone. A panel at a branch point omega**eta at 0 takes the
    Gauss-Jacobi pair head (see _model)."""
    w0 = emitter.omega0
    rsc = None
    if isinstance(reservoir, NarrowbandReservoir):
        # in the order of _panel_values' nodes
        d = (a - reservoir.omega_c)[:, None] + (0.5 * (b - a))[:, None] * _NODE_OFFSETS
        rsc = _line_shape(reservoir, d.reshape(-1))

    def f(w):
        out = 2.0 * math.pi * spectral_profile(w - w0, t)
        out *= evaluate_rsc(reservoir, w) if rsc is None else rsc
        return out

    return _panel_values(f, a, b, head if a[0] == 0.0 else None)[0]


def _envelope(reservoir, emitter, t):
    # S = 2*R/(t*delta**2), the envelope that smooth panels integrate
    w0 = emitter.omega0

    def f(w):
        d = w - w0
        return 2.0 * evaluate_rsc(reservoir, w) / (t * d * d)

    return f


def _far_field(t, w0, sa, sb, vals, to_omega_max):
    """The far field of the envelope runs over smooth panels [sa, sb] whose
    16-node envelope values are vals: its terms, and the bound on their rest.

    A run drops -int S cos(delta*t). Integrating by parts twice between
    kernel zeros, where sin(delta*t) = 0, gives it as -[S']/t^2 plus at most
    (|S'''| at the ends + total variation of S''')/t^4. Where the last run
    ends at omega_max (to_omega_max), the S*sin/t and S'*cos/t^2 terms keep
    their sine and cosine there, and |S''|/t^3 joins the bound. The
    derivatives are those of each panel's 16-node interpolant.

    A run's end z is a kernel zero only to rounding: its phase (z - w0)*t
    is off a multiple of 2*pi by at most 2*eps*(|z| + w0)*t, and so is the
    phase of omega_max. The S*sin/t term that this leaves at each end joins
    the bound as 2*eps*|S|*(|z| + w0).
    """
    d = np.matmul(_GL_DIFF, vals.T).transpose(0, 2, 1)
    d *= (2.0 / (sb - sa))[None, :, None] ** np.arange(4)[:, None, None]
    runs = np.nonzero(sa[1:] != sb[:-1])[0] + 1
    first, last = np.append(0, runs), np.append(runs - 1, sa.size - 1)
    far = ((d[1, first, 0] - d[1, last, -1]) / (t * t)).tolist()
    # the total variation of S''' over each run: the steps along all runs'
    # rows laid end to end, less those from one run into the next
    steps = np.abs(np.diff(d[3].reshape(-1)))
    steps[runs * d.shape[2] - 1] = 0.0
    ends = np.abs(d[3, first, 0]).sum() + np.abs(d[3, last, -1]).sum()
    bound = float(ends + steps.sum()) / t**4
    z = np.concatenate([sa[first], sb[last]])
    s = np.concatenate([d[0, first, 0], d[0, last, -1]])
    bound += 2.0 * _EPS * float(np.abs(s) @ (np.abs(z) + w0))
    if to_omega_max:
        x = (sb[-1] - w0) * t
        s0, s1, s2 = d[:3, -1, -1].tolist()
        far.append(s1 * (1.0 - math.cos(x)) / (t * t) - s0 * math.sin(x) / t)
        bound += abs(s2) / t**3
    return far, bound


def _envelope_terms(reservoir, emitter, t, a, b, kind):
    """Both rules' values of a layout's smooth panels, as columns, and the
    far field of their runs with its bound (see _far_field)."""
    smooth = kind == _SMOOTH
    if not smooth.any():
        return np.empty((0, 2)), [], 0.0
    sa, sb = a[smooth], b[smooth]
    values, vals = _panel_values(_envelope(reservoir, emitter, t), sa, sb)
    far, bound = _far_field(
        t, emitter.omega0, sa, sb, vals[:, :_HI], kind[-1] == _SMOOTH
    )
    return values, far, bound


def _evaluate(reservoir, emitter, t, model, a, b, m, kind, envelope):
    # the value of a layout whose _envelope_terms are envelope, and its
    # error estimate short of the tail: the two rules' difference on every
    # panel, a rounding floor, the far field's bound and, for a line, what
    # the rounding of its position on the half-lobes costs
    w0 = emitter.omega0
    values = np.empty((a.size, 2))
    phase = kind == _PHASE
    if phase.any():
        values[phase] = _phase_values(reservoir, w0, t, a[phase], b[phase], m[phase])
    full = kind == _PROFILE
    if full.any():
        values[full] = _profile_values(reservoir, emitter, t, a[full], b[full], model.head)
    values[kind == _SMOOTH], far, osc = envelope

    value = math.fsum(values[:, 0].tolist() + far)
    # rounding floor: per-panel dot products carry O(eps) relative noise,
    # and an RSC power x**eta rounds every panel value and far-field term
    # by the record's panel_ulps, whatever their sum cancels to
    refine_err = float(np.sum(np.abs(values[:, 0] - values[:, 1])))
    size = float(np.abs(values[:, 0]).sum()) + sum(abs(x) for x in far)
    floor = max(5e-16 * abs(value), _EPS * model.panel_ulps * size)
    err = refine_err + floor + osc
    if isinstance(reservoir, NarrowbandReservoir):
        err += _line_phase_cost(reservoir, emitter, t, _line_shift(reservoir, w0, t) * t)
    return value, err


def decay_rate_numeric(reservoir, emitter, t, cfg=None):
    """Decay rate at time t by zero-aligned Gauss-Legendre panels.

    Each point is one layout (see _first_layout), evaluated once. Returns
    an IntegrationResult, or raises ConvergenceError carrying it if its
    error estimate exceeds rel_tol times its value.
    """
    cfg, model = _setup(reservoir, emitter, t, cfg)
    floor = _rate_floor(reservoir, emitter, t)
    omega_max = _truncation(reservoir, emitter, t, cfg, floor)
    tail = _tail_bound(reservoir, emitter, t, omega_max)
    (a, b, m, kind), envelope = _first_layout(
        reservoir, emitter, t, omega_max, cfg.rel_tol, floor
    )
    value, err = _evaluate(reservoir, emitter, t, model, a, b, m, kind, envelope)
    err += tail
    result = IntegrationResult(
        value=value,
        error_estimate=err,
        panels_used=a.size,
        truncation_frequency=omega_max,
    )
    limit = cfg.rel_tol * abs(value)
    if err <= limit:
        return result
    msg = (
        f"decay-rate quadrature reached {a.size} panels with error "
        f"estimate {err:.3e} (value {value:.6e})"
    )
    if tail > limit:
        msg += (
            f"; the tail bound {tail:.3e} alone exceeds the tolerance at "
            f"omega_max = {omega_max:.3e}"
        )
    raise ConvergenceError(msg, result=result)


def _phi2(w):
    # (e**w - 1 - w)/w**2 elementwise, by its Taylor series for |w| < 1/2,
    # where the difference cancels
    out = np.empty_like(w)
    small = np.abs(w) < 0.5
    big = w[~small]
    out[~small] = (np.expm1(big) - big) / (big * big)
    ws, acc = w[small], 0.0
    for k in range(18, -1, -1):
        acc = acc * ws + 1.0 / math.factorial(k + 2)
    out[small] = acc
    return out


def _line_residue(reservoir, emitter, t):
    """The golden rule and a line's residue term, together.

    The pole of (1 - e**(-i*delta*t))/delta**2 at omega0 gives the golden
    rule 2*pi*R(omega0); the line's pole p = omega_c - i*kappa, which the
    ray crosses, adds (2/t)*g**2*Re[(1 - e**(-i*z))/d**2] with d = p -
    omega0, z = d*t. The two cancel to O(kappa*t) on the Zeno side, so they
    are formed together, exactly, as 2*g**2*t*Re phi2(-i*z) with phi2(w) =
    (e**w - 1 - w)/w**2, the kernel's _phi2. This is also the
    residue term of the subtracted kernel, whose pole at omega0 is removed.

    Returns the term and what rounding its phase Re(z) costs (see
    _line_phase_cost), eps*|Re z| of it.
    """
    w = complex(-reservoir.kappa * t, -(reservoir.omega_c - emitter.omega0) * t)
    phi2 = _phi2(np.array([w])).item()
    phase = _line_phase_cost(reservoir, emitter, t, _EPS * abs(w.imag))
    return 2.0 * reservoir.g**2 * t * phi2.real, phase


def _line_phase_cost(reservoir, emitter, t, shift):
    """How far a line's part of the rate can move when its phase (omega_c -
    omega0)*t is off by shift: shift times the modulus of the oscillating
    part 2*g**2*t*e**(-i*z)/z**2 of its residue term (see _line_residue),
    z = (omega_c - i*kappa - omega0)*t, or, for |z| <= 1, where |phi2'| <
    0.3 < e**(Im z), of 2*g**2*t*e**(Im z)."""
    w = complex(-reservoir.kappa * t, -(reservoir.omega_c - emitter.omega0) * t)
    c = 2.0 * reservoir.g**2 * t
    return shift * c * math.exp(w.real) / max(abs(w), 1.0) ** 2


def _ray_mass(reservoir, end, theta):
    """The mass of |R| along the ray beyond |omega| = end, or inf; a line
    needs end > |p|.

    For the exponential cutoff cos(theta)**-(eta+1) times the real axis's
    beyond end*cos(theta); for the power-Lorentz one the real axis's, since
    |1 + x**2| >= |x|**2 for theta <= pi/4; for a line
    kappa*g**2/(pi*(end - |p|)), as |omega - p| >= |omega| - |p|.
    """
    if isinstance(reservoir, NarrowbandReservoir):
        p = abs(complex(reservoir.omega_c, reservoir.kappa))
        return reservoir.kappa * reservoir.g**2 / (math.pi * (end - p))
    if isinstance(reservoir.cutoff, ExponentialCutoff):
        c = math.cos(theta)
        return _tail_mass(reservoir, end * c) / c ** (reservoir.eta + 1.0)
    return _tail_mass(reservoir, end)


def _ray_tail(reservoir, emitter, t, theta, envelope, end):
    # the bound on a kernel's ray beyond |omega| = end: envelope(d), which
    # bounds |kernel|/|R| where |delta| >= d, times the mass of |R| along
    # the ray, or the power-Lorentz heavy tail where that mass diverges
    mass = _ray_mass(reservoir, end, theta)
    if mass == math.inf:
        return _heavy_tail(reservoir, emitter, t, end)
    return envelope(end - emitter.omega0) * mass


def _ray_end(reservoir, emitter, t, model, envelope, limit):
    """The ray's end, its tail bound (see _ray_tail) and the decades k it
    lies past the first end: the first of 4*max(omega0, model.scale)*10**k,
    k < _REF_DECADES, whose bound is within limit, or the last of them."""
    end = 4.0 * max(emitter.omega0, model.scale)
    for k in range(_REF_DECADES):
        tail = _ray_tail(reservoir, emitter, t, model.theta, envelope, end)
        if tail <= limit or k == _REF_DECADES - 1:
            return end, tail, k
        end *= 10.0


def _ray_head(scale, w0, t):
    # where the reference's grid starts, one panel spanning [0, head]: a tenth
    # of the least of omega0, 1/t and the RSC's scale, where the integrand (over
    # s**eta) first varies, so that even its 8-node rule is good to 38**-16 there
    return 0.1 * min(w0, 1.0 / t, scale)


def decay_rate_numeric_oracle(reservoir, emitter, t, cfg=None):
    """Same rate by a contour identity: an independent float64 reference.

    Along the ray omega = s*e**(-i*theta) (see _model), with
    delta = omega - omega0,

        Gamma(t) = 2*pi*R(omega0)
                   + (2/t)*Re int_ray R(omega)*(1 - e**(-i*delta*t))/delta**2 domega,

    and a Lorentzian line adds its pole's residue, merged with the golden
    rule (see _line_residue). Off the real axis the profile's oscillation
    decays, so the ray carries only the smooth off-resonant part. It is
    integrated with the 16/8 Gauss-Legendre pair on one grid of panels, one
    from 0 to a head sized by the integrand's scales (see _ray_head), then
    geometric in s at n panels per decade, out to an end chosen before any
    evaluation: the first decade end whose closed-form tail bound is within
    1e-3*rel_tol of the point's rate floor (see _ray_end and _rate_floor).
    At a branch point s**eta at 0 the head panel takes the Gauss-Jacobi
    pair. Each kernel is evaluated in one call on all its nodes, in real
    arithmetic (see reservoir._rsc_ray); beyond the zone where
    |e**(-i*delta*t)| < e**-40 ~ 4e-18 that factor is taken as 0, far below
    the rounding term. The value is the 16-node sum; the error estimate is
    the sum over panels of |Re(Q16 - Q8)|, the tail bound at the end, a
    rounding term eps*ulps*(|residue terms| + sum of the 16-node |w*f|) (see
    _model) and, for a line, the rounding of its residue's phase
    (see _line_residue). A floor that overshoots the rate shows as a larger
    estimate, not as a silent error.

    Where that estimate misses rel_tol, as the rounding term does on the
    Zeno side (Gamma(t) << 2*pi*R(omega0)), the ray is integrated again
    with the pole at omega0 subtracted from the kernel: (2/t)*(1 -
    e**(-i*delta*t))/delta**2 less 2i/delta is 2*t*phi2(-i*delta*t), which
    is t at delta = 0, needs no residue and does not cancel at small t.
    Its ray's end is sized the same way, by its own envelope, and where
    that is the first ray's end, so are its grid and its RSC values. The
    smaller estimate is kept. This needs a finite RSC mass. With the "fgr"
    logger at DEBUG, each point logs one line: the end, how many decades
    past the first end it lies, the evaluations, the kernel kept and the
    estimate's four terms.

    ``panels_used`` counts kernel evaluations, of both kernels if both run,
    and ``truncation_frequency`` is |omega| at the ray's end. Raises
    ConvergenceError carrying the result if its estimate exceeds rel_tol
    times its value.
    """
    cfg, model = _setup(reservoir, emitter, t, cfg)
    w0, theta = emitter.omega0, model.theta
    e = complex(math.cos(theta), -math.sin(theta))
    n = max(8, math.ceil(4.0 / math.sin(min(theta, 0.25 * math.pi))))
    lo = _ray_head(model.scale, w0, t)
    # e**(-i*delta*t) falls below e**-40 beyond zone
    zone = 40.0 / (t * math.sin(theta))
    cap = 32.0 / (n * t)
    if isinstance(reservoir, NarrowbandReservoir):
        residue, phase = _line_residue(reservoir, emitter, t)
        poles = (residue, residue)
    else:
        poles, phase = (model.gamma0, 0.0), 0.0
    # what the tail beyond the ray's end may be, known before any evaluation
    limit = 1e-3 * cfg.rel_tol * _rate_floor(reservoir, emitter, t)

    def standard(s, rsc):
        # with a = -t*s*sin(theta), u = tan(t*(omega0 - s*cos(theta))/2) and
        # q = 2*e**a/(1 + u**2), e**(-i*delta*t) - 1 is (expm1(a) - q*u**2) +
        # i*q*u, whose real part does not cancel; beyond zone it is -1
        f = np.full(s.shape, -1.0 + 0.0j)
        inside = s < zone
        a, u = s[inside] * (t * e.imag), np.tan((w0 - s[inside] * e.real) * (0.5 * t))
        em1 = np.expm1(a)
        q = 2.0 * (em1 + 1.0) / (1.0 + u * u)
        f.real[inside], f.imag[inside] = em1 - q * u * u, q * u
        d = s * e - w0
        return rsc * f * (-2.0 * e / t) / (d * d)

    def subtracted(s, rsc):
        return rsc * _phi2(-1j * t * (s * e - w0)) * (2.0 * t * e)

    rscs = {}  # the RSC on each grid, by the grid's end, for both kernels

    def along_ray(kernel, pole, envelope):
        # (value, error estimate, its terms, evaluations, end, decades) of one
        # kernel: one grid out to the end _ray_end sizes, geometric at n per
        # decade, but below zone no panel is wider than cap
        end, tail, decades = _ray_end(reservoir, emitter, t, model, envelope, limit)
        a = min(max(cap / (10.0 ** (1.0 / n) - 1.0), lo), end)
        b = min(max(zone, a), end)
        grid = _steps([(lo, a, b, end)], [(n, cap, n)], (True, False, True))[0]
        edges = np.concatenate(([0.0, lo], grid))

        def f(s):
            if end not in rscs:
                rscs[end] = _rsc_ray(reservoir, s, theta)
            return kernel(s, rscs[end])

        pair, vals = _panel_values(f, edges[:-1], edges[1:], model.head)
        value = pole + pair[:, 0].sum().real
        diff = float(np.abs((pair[:, 0] - pair[:, 1]).real).sum())
        size = float((np.abs(vals) @ _GL_PAIR[1][:, 0]) @ (0.5 * np.diff(edges)))
        terms = (diff, tail, _EPS * model.ray_ulps * (abs(pole) + size), phase)
        err = sum(terms)
        return value, err, terms, vals.size, end, decades

    # |1 - e**(-i*delta*t)| <= 2 and |phi2| <= min(1/2, (1 + 2/|w|)/|w|) off
    # the real axis, where Re w = Re(-i*delta*t) <= 0
    value, err, terms, evals, end, decades = along_ray(
        standard, poles[0], lambda d: 4.0 / (t * d * d)
    )
    kept = "standard"
    if err > cfg.rel_tol * abs(value) and math.isfinite(_ray_mass(reservoir, end, theta)):
        zeno = along_ray(
            subtracted, poles[1], lambda d: min(t, 2.0 / d + 4.0 / (t * d * d))
        )
        evals += zeno[3]
        if zeno[1] < err:
            value, err, terms, _, end, decades = zeno
            kept = "subtracted"
    if _log.isEnabledFor(logging.DEBUG):
        _log_ray(t, end, decades, evals, kept, err, terms)

    # the sums are numpy scalars; a result holds Python numbers
    result = IntegrationResult(
        value=max(float(value), 0.0),
        error_estimate=float(err),
        panels_used=evals,
        truncation_frequency=end,
    )
    if err <= cfg.rel_tol * abs(value):
        return result
    raise ConvergenceError(
        f"contour reference reached |omega| = {end:.3e} with {evals} evaluations "
        f"and error estimate {err:.3e} (value {value:.6e})",
        result=result,
    )


def _log_ray(t, end, decades, evals, kept, err, terms):
    # one DEBUG line per reference point: its ray, its cost and its estimate
    _log.debug(
        "t=%r: ray ends at |omega| = %.3e, %d decades past its first end; "
        "%d evaluations, kept the %s kernel; estimate %.3e = rule difference "
        "%.3e + tail %.3e + rounding %.3e + phase %.3e",
        t, end, decades, evals, kept, err, *terms,
    )


def _regime_label(reservoir, emitter, t):
    if isinstance(reservoir, BroadbandReservoir):
        try:
            return classify_regime(reservoir, emitter, t).value
        except RegimeSeparationError:
            return "unresolved"
    x = reservoir.kappa * t
    if x < 0.1:
        return "zeno"
    if x > 10.0:
        return "fermi"
    return "crossover"


def rate_curve(reservoir, emitter, time_grid, cfg=None):
    """Rate-ratio curve over a strictly increasing time grid.

    Points are computed one after another, each independently of the
    others; a point whose quadrature fails to converge is kept with its
    best value and flagged rather than aborting the curve.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    times = np.asarray(time_grid, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("time_grid must be a nonempty 1-d sequence")
    if not np.all(times > 0.0) or not np.all(np.diff(times) > 0.0):
        raise ValueError("time_grid must be positive and strictly increasing")

    gamma0 = _model(reservoir, emitter).gamma0
    if not gamma0 > 0.0:
        # (omega0/omega_x)**eta underflows from eta ~ 135 at omega_x = 250*omega0
        raise ValueError(f"the golden-rule rate of {reservoir} at {emitter} is {gamma0}")
    ratios = np.empty(times.size)
    errors = np.empty(times.size)
    flagged = np.zeros(times.size, dtype=bool)
    for i, t in enumerate(times):
        # a module-global lookup per point, so that a wrapper installed on
        # quadrature.decay_rate_numeric sees every point
        try:
            res = decay_rate_numeric(reservoir, emitter, float(t), cfg)
        except ConvergenceError as exc:
            res = exc.result
            flagged[i] = True
        # Python floats, whose division overflows to inf without a warning
        ratios[i], errors[i] = res.value / gamma0, res.error_estimate / gamma0
        if not (ratios[i] < math.inf and errors[i] < math.inf):
            raise ValueError(f"Gamma/Gamma0 overflows at t={t} for {reservoir}")
    return RateCurve(
        times=times,
        ratios=ratios,
        error_estimates=errors,
        regime_labels=tuple(_regime_label(reservoir, emitter, float(t)) for t in times),
        model_metadata={
            "model": to_json(reservoir),
            "emitter": to_json(emitter),
            "t_scale": 1.0 / reservoir.scale_frequency(emitter),
        },
        flagged=flagged,
    )
