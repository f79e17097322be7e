"""Oscillation-aware numerical evaluation of the generalized decay rate.

The decay rate at time t is 2*pi times the integral over [0, inf) of the
spectral profile (centered on the transition frequency) against the
reservoir coupling spectrum. The integrand oscillates on the frequency
scale 2*pi/t, so the integrator aligns panels with the profile zeros near
the transition and, far from it, splits the profile into its smooth
envelope plus a residual oscillation whose neglected contribution is
bounded and folded into the error estimate. The aligned panels are
half-lobes of the profile, integrated in their local phase: the sinc^2
factor of a whole half-lobe is a fixed weight table per parity, and the
frequency is formed only as the argument of the reservoir spectrum.

A structurally independent double-exponential (tanh-sinh) scheme over the
same truncated domain serves as a cross-check oracle.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .analytic import classify_regime
from .errors import ConvergenceError, RegimeSeparationError
from .kernel import check_time, spectral_profile, zero_counts
from .onset import RateCurve
from .reservoir import (
    BroadbandReservoir,
    ExponentialCutoff,
    NarrowbandReservoir,
    PowerLorentzCutoff,
    _require_finite,
    evaluate_rsc,
    golden_rule_rate,
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

# kernel zeros kept on each side of the transition before switching to the
# far-field envelope treatment; grown adaptively if the neglected
# oscillation dominates the error budget
_ZERO_CAP = 10_000

# geometric panels per decade in oscillation-free stretches
_PANELS_PER_DECADE = 8

# max phase advance (omega span times t) of one fully-resolved panel;
# a 16-node Gauss rule integrates this far below 1e-12 relative
_PHASE_CAP = 4.0

# the Gauss-Legendre pair of every panel: the 16-node value, and its
# difference from the 8-node value as the refinement error
_GL_HI = leggauss(16)
_GL_LO = leggauss(8)

# Panel kinds. A phase panel lies in half-lobe m of the profile, where the
# phase x = (omega - omega0)*t/2 runs over [m*pi/2, (m+1)*pi/2]; its edges
# are the local phase u = x - m*pi/2. The other kinds span frequencies:
# profile panels carry the whole integrand, smooth panels its envelope.
_PHASE, _PROFILE, _SMOOTH = 0, 1, 2
_HALF_PI = 0.5 * math.pi


def _half_lobe_rule(rule):
    # Over a whole half-lobe sin(x)**2 is sin(u)**2 for even m and cos(u)**2
    # for odd m, whatever m is, so the profile folds into one weight table
    # per parity: (pi/2) * w * sin(u)**2 and (pi/2) * w * cos(u)**2.
    nodes, w = rule
    u = 0.25 * math.pi + 0.25 * math.pi * nodes
    return nodes, w, u, _HALF_PI * w * np.stack([np.sin(u) ** 2, np.cos(u) ** 2])


_HALF_LOBE_RULES = (_half_lobe_rule(_GL_HI), _half_lobe_rule(_GL_LO))

# nodes per vectorised pass over phase panels or oracle nodes, so that the
# arrays of one pass stay in cache
_CHUNK = 1 << 13

_EPS = float(np.finfo(float).eps)

_MAX_ROUNDS = 12


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budgets for the decay-rate integrator."""

    rel_tol: float = 1e-8
    max_panels: int = 200_000
    tail_epsilon: float = 1e-12

    def __post_init__(self):
        _require_finite(self)
        if not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be > 0")
        if self.max_panels < 1:
            raise ValueError("max_panels must be >= 1")
        if not self.tail_epsilon > 0.0:
            raise ValueError("tail_epsilon must be > 0")


@dataclass(frozen=True)
class IntegrationResult:
    """Decay-rate value with its accuracy metadata.

    ``panels_used`` counts quadrature panels for the panel scheme and
    integrand evaluations for the transform scheme.
    """

    value: float
    error_estimate: float
    panels_used: int
    truncation_frequency: float

    def __post_init__(self):
        if self.value < 0.0 or self.error_estimate < 0.0:
            raise ValueError("value and error_estimate must be nonnegative")


def _rate_floor(reservoir, emitter, t):
    # conservative lower scale for the decay rate, used to make the tail
    # truncation relative; the rate interpolates between the short-time
    # slope law and the golden-rule value
    a = zeno_slope(reservoir)
    g0 = golden_rule_rate(reservoir, emitter)
    return 0.1 * min(a * t, g0)


def truncation_frequency(reservoir, emitter, t, cfg):
    """Upper integration limit with the neglected tail below
    tail_epsilon relative to the rate scale.

    For the exponential cutoff, with L = ln(1/tail_epsilon), the limit is
    omega_x*(L + 10) wherever the RSC mass beyond it is at most
    tail_epsilon times the total mass (eta <= 3 at the default
    tail_epsilon). Otherwise the spectral peak at eta*omega_x lies too
    close below it, and the limit moves out to omega_x*x with
    x = min(a + sqrt(2*a*L) + L, 700), a = eta + 1: past the peak by the
    Gamma(a) tail's width, capped where the closed-form tail bound is
    still a normal float.
    """
    eps = cfg.tail_epsilon
    w0 = emitter.omega0
    if isinstance(reservoir, BroadbandReservoir):
        wx = reservoir.omega_x
        if isinstance(reservoir.cutoff, ExponentialCutoff):
            log_inv_eps = math.log(1.0 / eps)
            omega_max = wx * log_inv_eps + 10.0 * wx
            if _tail_mass(reservoir, omega_max) > eps * zeno_slope(reservoir):
                a = reservoir.eta + 1.0
                x = min(a + math.sqrt(2.0 * a * log_inv_eps) + log_inv_eps, 700.0)
                omega_max = max(omega_max, wx * x)
        else:
            p = reservoir.eta + 1.0 - 2.0 * reservoir.cutoff.mu
            if p < -1e-9:
                omega_max = min(wx * eps ** (1.0 / p), 1e3 * wx)
            else:
                omega_max = 1e3 * wx
    else:
        k, wc = reservoir.kappa, reservoir.omega_c
        floor = _rate_floor(reservoir, emitter, t)
        span = (4.0 * k * reservoir.g**2 / (3.0 * math.pi * t * eps * floor)) ** (
            1.0 / 3.0
        )
        omega_max = max(w0, wc) + max(span, 50.0 * k)
    return max(omega_max, 2.0 * w0)


def _validate_integrable(reservoir):
    if isinstance(reservoir, BroadbandReservoir) and isinstance(
        reservoir.cutoff, PowerLorentzCutoff
    ):
        if reservoir.eta >= 2.0 * reservoir.cutoff.mu + 1.0:
            raise ValueError(
                "decay-rate integral diverges: power-Lorentz cutoff needs "
                f"eta < 2*mu + 1, got eta={reservoir.eta}, mu={reservoir.cutoff.mu}"
            )


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


def _tail_bound(reservoir, emitter, t, omega_max):
    # bound on 2*pi * integral of profile*RSC above omega_max: the smaller
    # of the flat-profile bound t*M and the far-detuning envelope bound
    w0 = emitter.omega0
    mass = _tail_mass(reservoir, omega_max)
    if mass == math.inf and isinstance(reservoir.cutoff, PowerLorentzCutoff):
        # RSC mass diverges but profile decay keeps the integral finite
        lam, eta, wx = reservoir.coupling, reservoir.eta, reservoir.omega_x
        q = 2.0 * reservoir.cutoff.mu + 1.0 - eta
        x = omega_max / wx
        rel = 1.0 - w0 / omega_max
        return 4.0 * lam * x ** (-q) / (t * rel * rel * q)
    bound = t * mass
    if omega_max > w0:
        bound = min(bound, 4.0 * mass / (t * (omega_max - w0) ** 2))
    return bound


def _geom_edges(lo, hi, per_decade=_PANELS_PER_DECADE):
    if hi <= lo:
        return np.array([lo, hi])
    n = max(1, int(math.ceil(math.log10(hi / lo) * per_decade)))
    return lo * (hi / lo) ** np.linspace(0.0, 1.0, n + 1)


def _rsc_width_cap(reservoir):
    # panel width below which the RSC is comfortably analytic for a
    # 16-node Gauss rule
    if isinstance(reservoir, BroadbandReservoir):
        scale = (
            2.0 * reservoir.omega_x
            if isinstance(reservoir.cutoff, ExponentialCutoff)
            else reservoir.omega_x
        )
        eta = reservoir.eta
        # non-integer exponents put a branch point at omega = 0, so panel
        # widths must shrink in proportion to the distance from it
        fractional = abs(eta - round(eta)) > 1e-12

        def cap(a, b):
            c = np.full_like(a, scale)
            if fractional:
                c = np.minimum(c, np.where(a > 0.0, 0.6 * a, np.inf))
            return c

    else:
        k, wc = reservoir.kappa, reservoir.omega_c

        def cap(a, b):
            dist = np.maximum(0.0, np.maximum(a - wc, wc - b))
            return np.maximum(k, dist)

    return cap


def _bisect(mask, a, b, *carried):
    """Halve the panels under mask; both halves take their parent's place."""
    idx = np.repeat(np.arange(a.size), np.where(mask, 2, 1))
    a, b = a[idx], b[idx]
    second = np.zeros(idx.size, dtype=bool)
    second[1:] = idx[1:] == idx[:-1]
    mid = 0.5 * (a[second] + b[second])
    b[np.roll(second, -1)] = mid
    a[second] = mid
    return (a, b) + tuple(c[idx] for c in carried)


def _refine_width(a, b, m, too_wide):
    while True:
        mask = too_wide(a, b, m)
        if not mask.any():
            return a, b, m
        a, b, m = _bisect(mask, a, b, m)


def _phase_omega(w0, t, m, u):
    # the frequency at local phase u of half-lobe m, formed only for the RSC
    return (w0 + (math.pi / t) * m) + (2.0 / t) * u


def _build_panels(reservoir, emitter, t, omega_max, zero_cap):
    """Panel arrays (a, b, m, kind), left to right (see the panel kinds)."""
    w0 = emitter.omega0
    spacing = 2.0 * math.pi / t
    k_left_avail, k_right_avail = zero_counts(t, w0, omega_max)
    k_left = min(k_left_avail, zero_cap)
    k_right = min(k_right_avail, zero_cap)
    z_left = w0 - k_left * spacing
    z_right = w0 + k_right * spacing

    cap_fn = _rsc_width_cap(reservoir)
    phase_cap = _PHASE_CAP / t

    parts = []  # (a, b, m, kind)

    def add(kind, a, b, m, too_wide):
        a, b, m = _refine_width(a, b, m, too_wide)
        parts.append((a, b, m, np.full(a.size, kind)))

    def add_span(kind, edges, extra_cap=np.inf):
        def too_wide(a, b, m):
            return (b - a) > np.minimum(cap_fn(a, b), extra_cap)

        m = np.zeros(edges.size - 1, dtype=int)
        add(kind, edges[:-1], edges[1:], m, too_wide)

    # left of the zero-aligned block
    if k_left < k_left_avail:
        # remaining zeros are ceded to the envelope treatment
        deltas = _geom_edges(k_left * spacing, w0)
        add_span(_SMOOTH, np.sort(w0 - deltas))
    elif z_left > 0.0:
        stub = z_left * 1e-9
        edges = np.concatenate([[0.0], _geom_edges(stub, z_left)])
        add_span(_PROFILE, edges, phase_cap)

    # zero-aligned block: one whole half-lobe per panel where the RSC allows
    if k_left or k_right:

        def too_wide(a, b, m):
            lo, hi = _phase_omega(w0, t, m, a), _phase_omega(w0, t, m, b)
            return (b - a) * (2.0 / t) > cap_fn(lo, hi)

        m = np.arange(-2 * k_left, 2 * k_right)
        add(_PHASE, np.zeros(m.size), np.full(m.size, _HALF_PI), m, too_wide)

    # right of the zero-aligned block
    if k_right < k_right_avail:
        deltas = _geom_edges(k_right * spacing, omega_max - w0)
        add_span(_SMOOTH, w0 + deltas)
    elif z_right < omega_max:
        add_span(_PROFILE, _geom_edges(z_right, omega_max), phase_cap)

    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _panel_values(f, a, b, rule):
    x, w = rule
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    nodes = mid + half * x
    vals = f(nodes.reshape(-1)).reshape(nodes.shape)
    return (vals @ w) * half[:, 0], nodes, vals


def _phase_values(reservoir, w0, t, a, b, m):
    """16- and 8-node values of phase panels, in chunks."""
    values = (np.empty(a.size), np.empty(a.size))
    per_pass = _CHUNK // _GL_HI[0].size
    for i in range(0, a.size, per_pass):
        c = slice(i, i + per_pass)
        for out, rule in zip(values, _HALF_LOBE_RULES):
            out[c] = _phase_pass(reservoir, w0, t, a[c], b[c], m[c], rule)
    return values


def _phase_pass(reservoir, w0, t, a, b, m, rule):
    # Each phase panel is sum_j W_j R(omega_j) / x_j**2 with
    # W_j = (b - a) * w_j * sin(x_j)**2: from the parity table on whole
    # half-lobes, from sin of the local phase on the rest. Rounding the
    # small local phase costs eps relative at any m.
    nodes, w, u, table = rule
    part = (a != 0.0) | (b != _HALF_PI)
    partial = part.any()
    if partial:
        half = 0.5 * (b - a)[:, None]
        u = 0.5 * (a + b)[:, None] + half * nodes
    mc = m[:, None]
    x2 = _HALF_PI * mc + u
    x2 *= x2
    vals = evaluate_rsc(reservoir, _phase_omega(w0, t, mc, u).reshape(-1))
    vals = vals.reshape(x2.shape) / x2
    odd = (m & 1).astype(bool)
    out = np.where(odd, vals @ table[1], vals @ table[0])
    if partial:
        s = np.sin(u[part] + _HALF_PI * odd[part, None])
        out[part] = ((s * s * vals[part]) @ w) * (2.0 * half[part, 0])
    return out


def _setup(reservoir, emitter, t, cfg):
    # shared by both integrators: defaults, argument checks, the truncated
    # domain and the bound on the tail beyond it
    if cfg is None:
        cfg = QuadratureConfig()
    check_time(t)
    _validate_integrable(reservoir)
    omega_max = truncation_frequency(reservoir, emitter, t, cfg)
    return cfg, omega_max, _tail_bound(reservoir, emitter, t, omega_max)


def _integrand(reservoir, emitter, t):
    # 2*pi * profile * RSC, the decay-rate integrand over frequency, and
    # the RSC factor itself
    w0 = emitter.omega0

    def f(w):
        out = 2.0 * math.pi * spectral_profile(w - w0, t)
        rsc = evaluate_rsc(reservoir, w)
        out *= rsc
        return out, rsc

    return f


def _evaluate(reservoir, emitter, t, a, b, m, kind):
    w0 = emitter.omega0
    integrand = _integrand(reservoir, emitter, t)

    def f_full(w):
        return integrand(w)[0]

    def f_smooth(w):
        d = w - w0
        return 2.0 * evaluate_rsc(reservoir, w) / (t * d * d)

    panel_hi = np.empty(a.size)
    panel_lo = np.empty(a.size)
    osc = 0.0

    phase = kind == _PHASE
    if phase.any():
        panel_hi[phase], panel_lo[phase] = _phase_values(
            reservoir, w0, t, a[phase], b[phase], m[phase]
        )
    full = kind == _PROFILE
    if full.any():
        panel_hi[full], _, _ = _panel_values(f_full, a[full], b[full], _GL_HI)
        panel_lo[full], _, _ = _panel_values(f_full, a[full], b[full], _GL_LO)
    smooth = kind == _SMOOTH
    if smooth.any():
        sa, sb = a[smooth], b[smooth]
        top = b[~phase].max()
        hi, nodes, vals = _panel_values(f_smooth, sa, sb, _GL_HI)
        panel_hi[smooth] = hi
        panel_lo[smooth], _, _ = _panel_values(f_smooth, sa, sb, _GL_LO)
        # Neglected oscillatory remainder of each contiguous envelope run:
        # integrating by parts twice, boundary sine terms vanish at kernel
        # zeros, leaving |S|/t at the raw domain edges plus
        # (|S'| at the edges + total variation of S') / t^2, with S'
        # estimated by divided differences over the run's nodes.
        runs = np.nonzero(sa[1:] != sb[:-1])[0] + 1
        for seg_nodes, seg_vals, lo_edge, hi_edge in zip(
            np.split(nodes, runs),
            np.split(vals, runs),
            np.split(sa, runs),
            np.split(sb, runs),
        ):
            xs = seg_nodes.reshape(-1)
            ys = seg_vals.reshape(-1)
            slopes = np.diff(ys) / np.diff(xs)
            dprime = abs(slopes[0]) + abs(slopes[-1]) + float(
                np.sum(np.abs(np.diff(slopes)))
            )
            edge_vals = 0.0
            if lo_edge[0] <= 0.0:
                edge_vals += float(f_smooth(np.array([0.0]))[0])
            if hi_edge[-1] >= top:
                edge_vals += float(f_smooth(np.array([hi_edge[-1]]))[0])
            osc += edge_vals / t + dprime / (t * t)

    value = math.fsum(panel_hi.tolist())
    deltas = np.abs(panel_hi - panel_lo)
    # rounding floor: per-panel dot products carry O(eps) relative noise
    refine_err = float(np.sum(deltas)) + 5e-16 * abs(value)
    return value, refine_err, osc, deltas


def decay_rate_numeric(reservoir, emitter, t, cfg=None):
    """Decay rate at time t by zero-aligned Gauss-Legendre panels.

    Returns an IntegrationResult; raises ConvergenceError (carrying the
    best result) if the error estimate cannot be brought below the
    tolerance within the panel budget.
    """
    cfg, omega_max, tail = _setup(reservoir, emitter, t, cfg)
    zero_cap = _ZERO_CAP
    a, b, m, kind = _build_panels(reservoir, emitter, t, omega_max, zero_cap)
    best = None
    for _ in range(_MAX_ROUNDS):
        value, refine_err, osc, deltas = _evaluate(reservoir, emitter, t, a, b, m, kind)
        err = refine_err + osc + tail
        result = IntegrationResult(
            value=value,
            error_estimate=err,
            panels_used=a.size,
            truncation_frequency=omega_max,
        )
        if best is None or err < best.error_estimate:
            best = result
        if err <= cfg.rel_tol * abs(value):
            return result
        if a.size >= cfg.max_panels:
            break
        if osc > 0.5 * (refine_err + osc) and 16 * zero_cap <= cfg.max_panels:
            # the dropped oscillation dominates: widen the zero-aligned block
            zero_cap *= 4
            a, b, m, kind = _build_panels(reservoir, emitter, t, omega_max, zero_cap)
            continue
        # bisect the panels responsible for the bulk of the refinement error
        order = np.argsort(deltas)[::-1]
        cum = np.cumsum(deltas[order])
        n_split = int(np.searchsorted(cum, 0.9 * cum[-1])) + 1
        n_split = min(n_split, cfg.max_panels - a.size)
        if n_split <= 0:
            break
        split = np.zeros(a.size, dtype=bool)
        split[order[:n_split]] = True
        a, b, m, kind = _bisect(split, a, b, m, kind)

    raise ConvergenceError(
        f"decay-rate quadrature reached {best.panels_used} panels with error "
        f"estimate {best.error_estimate:.3e} (value {best.value:.6e})",
        result=best,
    )


def _oracle_rounding(w0, t, w, weight, fw, rsc):
    # First-order bound on the rounding in the oracle's weighted sum. The
    # global phase x = (omega - omega0)*t/2 of a node is formed with an error
    # up to eps*(omega*t/2 + |x|), which moves f = t*sinc(x)**2*R(omega) by
    # t*R*|d sinc**2/dx| per unit of phase, and |d sinc**2/dx| is at most
    # both 2|x|/3 and 4/x**2. 8*eps*|f| covers the rest of each node's
    # arithmetic.
    phase = arith = 0.0
    for i in range(0, w.size, _CHUNK):
        c = slice(i, i + _CHUNK)
        x = np.abs(w[c] - w0)
        x *= 0.5 * t
        shift = w[c] * (0.5 * t)
        shift += x
        shift *= np.minimum(x * (2.0 / 3.0), 4.0 / np.maximum(x, 1.0) ** 2)
        shift *= rsc[c]
        phase += float(np.dot(weight[c], shift))
        arith += float(np.dot(weight[c], np.abs(fw[c])))
    return _EPS * (t * phase + 8.0 * arith)


def decay_rate_numeric_oracle(reservoir, emitter, t, cfg=None, max_level=20):
    """Same integral via a tanh-sinh transform over the truncated domain.

    Structurally independent of the panel scheme (no zero-aligned panels);
    intended for cross-checks and the verification command.
    """
    cfg, omega_max, tail = _setup(reservoir, emitter, t, cfg)
    f = _integrand(reservoir, emitter, t)
    half = 0.5 * omega_max
    tol = max(min(cfg.rel_tol, 1e-9), 1e-14)
    prev = None
    hits = 0
    evals = 0
    for level in range(6, max_level + 1):
        h = 0.5**level
        j = np.arange(-math.floor(6.9 / h), math.floor(6.9 / h) + 1)
        u = j * h
        with np.errstate(over="ignore"):
            z = 0.5 * math.pi * np.sinh(u)
            x = np.tanh(z)
            weight = 0.5 * math.pi * np.cosh(u) / np.cosh(z) ** 2
        ok = np.isfinite(weight) & (weight > 0.0)
        w = half * (x[ok] + 1.0)
        np.clip(w, 0.0, omega_max, out=w)
        fw, rsc = f(w)
        weight = weight[ok]
        value = half * h * float(np.dot(weight, fw))
        evals += int(ok.sum())
        if prev is not None:
            delta = abs(value - prev)
            if delta <= tol * max(abs(value), 1e-300):
                hits += 1
                if hits >= 2:
                    rounding = half * h * _oracle_rounding(
                        emitter.omega0, t, w, weight, fw, rsc
                    )
                    return IntegrationResult(
                        value=max(value, 0.0),
                        error_estimate=delta + tail + rounding,
                        panels_used=evals,
                        truncation_frequency=omega_max,
                    )
            else:
                hits = 0
        prev = value
        del fw, rsc

    best = IntegrationResult(
        value=max(prev, 0.0),
        error_estimate=abs(value - prev) + tail if prev is not None else math.inf,
        panels_used=evals,
        truncation_frequency=omega_max,
    )
    raise ConvergenceError(
        f"tanh-sinh scheme not converged at level {max_level}", result=best
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


def curve_from_ratios(reservoir, emitter, times, ratios, errors, flagged=None):
    """RateCurve with the regime labels and model metadata of its points."""
    return RateCurve(
        times=times,
        ratios=ratios,
        error_estimates=errors,
        regime_labels=tuple(_regime_label(reservoir, emitter, float(t)) for t in times),
        model_metadata={
            "model": reservoir.to_dict(),
            "emitter": asdict(emitter),
            "t_scale": 1.0 / reservoir.scale_frequency(emitter),
        },
        flagged=flagged,
    )


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

    gamma0 = golden_rule_rate(reservoir, emitter)
    values = np.empty(times.size)
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
        values[i] = res.value
        errors[i] = res.error_estimate
    return curve_from_ratios(
        reservoir, emitter, times, values / gamma0, errors / gamma0, flagged
    )
