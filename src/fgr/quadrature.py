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

A structurally independent double-exponential (tanh-sinh) scheme over the
same truncated domain serves as a cross-check oracle. Its levels are
nested, each halving the step of the last, so a level evaluates only the
nodes new to it, in one chunked pass that adds them to running sums of
the weighted integrand and of its rounding bound.
"""

from __future__ import annotations

import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .analytic import classify_regime
from .errors import ConvergenceError, RegimeSeparationError
from .kernel import check_time, spectral_profile, zero_counts
from .onset import RateCurve
from .reservoir import (
    BroadbandReservoir,
    ExponentialCutoff,
    NarrowbandReservoir,
    PowerLorentzCutoff,
    _line_shape,
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

# the ladder of block half-widths, in whole lobes kept on each side of the
# transition and of a narrowband line's centre before the far field is
# left to envelope runs: each point takes the first whose envelope runs
# bound their dropped oscillation within its tolerance, or the last
_CAPS = (32, 128, 512, 2048, 10_000)

# whole lobes kept next to omega = 0 when the block around the transition
# stops short of it, so that no envelope run ends at the branch point there
_EDGE_LOBES = 8

# geometric panels per decade in oscillation-free stretches
_PANELS_PER_DECADE = 8

# max phase advance (omega span times t) of one fully-resolved panel;
# a 16-node Gauss rule integrates this far below 1e-12 relative
_PHASE_CAP = 4.0


def _gauss_legendre(n):
    # The n-node Gauss-Legendre rule in plain numpy (numpy.polynomial and
    # LAPACK would cost the process about 2.5 MB): Newton's method on the
    # Legendre recurrence from the asymptotic roots, then weights
    # 2/((1 - x**2) P_n'(x)**2), symmetrised and scaled to sum to 2. Both
    # are within 3e-15 relative of 40-digit values for n = 8 and 16.
    x = np.cos(math.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(10):
        p0, p1 = np.ones(n), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (p0 - x * p1) / (1.0 - x * x)
        x = x - p1 / dp
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    w += w[::-1]
    return 0.5 * (x - x[::-1]), w * (2.0 / w.sum())


def _gauss_pair():
    # the Gauss-Legendre pair of every panel as one 24-node rule: its weight
    # columns give the 16-node value and the 8-node one, whose difference
    # is its error estimate, so one integrand call on 24 nodes gives both
    (x16, w16), (x8, w8) = _gauss_legendre(16), _gauss_legendre(8)
    w = np.zeros((24, 2))
    w[:16, 0], w[16:, 1] = w16, w8
    return np.concatenate([x16, x8]), w


_GL_PAIR = _gauss_pair()
_HI = 16  # the 16-node rule's nodes lead the pair

# Panel kinds. A phase panel lies in half-lobe m of the profile, where the
# phase x = (omega - omega0)*t/2 runs over [m*pi/2, (m+1)*pi/2]; its edges
# are the local phase u = x - m*pi/2. The other kinds span frequencies:
# profile panels carry the whole integrand, smooth panels its envelope.
_PHASE, _PROFILE, _SMOOTH = 0, 1, 2
_HALF_PI = 0.5 * math.pi


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

# nodes per vectorised pass over phase panels or oracle nodes, so that the
# arrays of one pass stay in cache
_CHUNK = 1 << 13

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for the decay-rate integrator."""

    rel_tol: float = 1e-8
    tail_epsilon: float = 1e-12

    def __post_init__(self):
        _require_finite(self)
        if not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be > 0")
        if not self.tail_epsilon > 0.0:
            raise ValueError("tail_epsilon must be > 0")


# value, error_estimate, panels_used, truncation_frequency: 28 bytes, so
# that with the bytes object's header a record is one 64-byte block
_RESULT = struct.Struct("=ddId")


class IntegrationResult:
    """Decay-rate value with its accuracy metadata, immutable.

    ``panels_used`` counts quadrature panels for the panel scheme and
    integrand evaluations for the transform scheme.

    The four fields are held as one packed record: a result that is kept
    takes about 104 bytes, where four boxed fields took 193. A caller that
    keeps every result it is handed, as the benchmark's per-point records
    do, grows by that much per point.
    """

    __slots__ = ("_record",)

    def __init__(self, value, error_estimate, panels_used, truncation_frequency):
        if value < 0.0 or error_estimate < 0.0:
            raise ValueError("value and error_estimate must be nonnegative")
        self._record = _RESULT.pack(
            value, error_estimate, panels_used, truncation_frequency
        )

    def _fields(self):
        return _RESULT.unpack(self._record)

    value = property(lambda self: self._fields()[0])
    error_estimate = property(lambda self: self._fields()[1])
    panels_used = property(lambda self: self._fields()[2])
    truncation_frequency = property(lambda self: self._fields()[3])

    def __eq__(self, other):
        if type(other) is not IntegrationResult:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return (
            "IntegrationResult(value={!r}, error_estimate={!r}, panels_used={!r}, "
            "truncation_frequency={!r})".format(*self._fields())
        )


def _rate_floor(reservoir, emitter, t):
    # conservative lower scale for the decay rate, used to make the tail
    # truncation and the far-field budget relative; the rate interpolates
    # between the short-time slope law and the golden-rule value
    g0 = golden_rule_rate(reservoir, emitter)
    try:
        a = zeno_slope(reservoir)
    except ValueError:
        # a power-Lorentz RSC whose mass diverges has no finite slope
        return 0.1 * g0
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
            # eps**(1/p) where it stays below 1e3, compared in logarithms
            # since it overflows as p rises to 0
            p = reservoir.eta + 1.0 - 2.0 * reservoir.cutoff.mu
            if p < -1e-9 and math.log(eps) / p < math.log(1e3):
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


def _geom_edges(lo, hi, step):
    # edges from lo to hi (0 < lo < hi), geometric at _PANELS_PER_DECADE per
    # decade until a step would pass `step`, then uniform at most that wide
    if hi <= lo:
        return np.array([lo, hi])
    top = min(hi, max(lo, step / (10.0 ** (1.0 / _PANELS_PER_DECADE) - 1.0)))
    edges = np.array([lo])
    if top > lo:
        n = max(1, int(math.ceil(math.log10(top / lo) * _PANELS_PER_DECADE)))
        edges = lo * (top / lo) ** (np.arange(n + 1) / n)
        edges[-1] = top
    if hi > top:
        n = int(math.ceil((hi - top) / step))
        edges = np.append(edges, top + (hi - top) * (np.arange(1, n + 1) / n))
        edges[-1] = hi
    return edges


def _rsc_cap(reservoir):
    """The panel width at which the RSC is comfortably analytic for a
    16-node Gauss rule, as (p, alpha, lo, hi): a panel whose nearest point
    lies d from p may be clip(alpha*d, lo, hi) wide. With lo = 0 a panel
    that reaches p is held to hi alone, since no width would do there."""
    if isinstance(reservoir, BroadbandReservoir):
        exponential = isinstance(reservoir.cutoff, ExponentialCutoff)
        scale = (2.0 if exponential else 1.0) * reservoir.omega_x
        # non-integer exponents put a branch point at omega = 0, so panel
        # widths must shrink in proportion to the distance from it
        if abs(reservoir.eta - round(reservoir.eta)) > 1e-12:
            return 0.0, 0.6, 0.0, scale
        return 0.0, 1.0, scale, scale
    # a line's poles lie kappa off the real axis at omega_c, so half of
    # kappa there keeps even the 8-node rule well inside their ellipse;
    # away from it widths grow by the same ratio as from a branch point
    return reservoir.omega_c, 0.6, 0.5 * reservoir.kappa, math.inf


def _side_cuts(d0, d3, cap):
    # the distances from p that cut [d0, d3] on one side of it, ascending:
    # equal steps of at most lo up to lo/alpha, then equal ratios of at most
    # 1 + alpha up to hi/alpha, then equal steps of at most hi
    _, alpha, lo, hi = cap
    d1 = min(max(lo / alpha, d0), d3)
    d2 = min(max(hi / alpha, d1), d3)
    cuts = []
    stretches = ((d0, d1, lo, False), (d1, d2, alpha, True), (d2, d3, hi, False))
    for s, e, step, geometric in stretches:
        if e <= s:
            continue
        n = math.log(e / s) / math.log1p(step) if geometric else (e - s) / step
        n = max(1, math.ceil(n))
        f = np.arange(1, n + 1) / n
        d = s * (e / s) ** f if geometric else s + (e - s) * f
        d[-1] = e
        cuts.append(d)
    return np.concatenate(cuts)[:-1]  # the last cut is d3 itself


def _graded_points(edges, cap):
    """Points that split every panel between the sorted edges wider than
    the width cap (see _rsc_cap) at its point nearest p, in order, with the
    panel each falls in. A panel splits at p, and each side of it by
    _side_cuts: each part meets the cap at its near end, and none is a
    sliver. A layout has few such panels, so each is cut on its own."""
    p, alpha, lo, hi = cap
    a, b = edges[:-1], edges[1:]
    near = np.maximum(0.0, np.maximum(a - p, p - b))
    limit = np.clip(alpha * near, lo, hi)
    if lo == 0.0:
        limit[near == 0.0] = hi
    wide = np.nonzero(b - a > limit)[0]
    points = [edges[:0]]
    for ai, bi in zip(a[wide].tolist(), b[wide].tolist()):
        left = p - _side_cuts(max(0.0, p - bi), p - ai, cap)[::-1] if ai < p else []
        right = p + _side_cuts(max(0.0, ai - p), bi - p, cap) if bi > p else []
        points.append(np.concatenate([left, [p] if ai < p < bi else [], right]))
    counts = [x.size for x in points[1:]]
    return np.concatenate(points), np.repeat(wide, counts)


def _phase_omega(w0, t, m, u):
    # the frequency at local phase u of half-lobe m, formed only for the RSC
    return (w0 + (math.pi / t) * m) + (2.0 / t) * u


def _phase_rsc(reservoir, w0, t, m, u):
    # The RSC at local phase u of half-lobe m. A Lorentzian line takes its
    # detuning d = omega - omega_c from the half-lobe k nearest its centre,
    # so that rounding omega costs eps of d rather than eps*omega_c, which
    # is eps*omega_c/kappa of the line's value.
    if isinstance(reservoir, NarrowbandReservoir):
        wc = reservoir.omega_c
        k = round((wc - w0) * t / math.pi)
        d = (_phase_omega(w0, t, k, 0.0) - wc) + ((math.pi / t) * (m - k) + (2.0 / t) * u)
        return _line_shape(reservoir, d)
    return evaluate_rsc(reservoir, _phase_omega(w0, t, m, u))


def _first_layout(reservoir, emitter, t, omega_max, rel_tol):
    """A point's panels and their envelope terms (see _envelope_terms):
    blocks of the smallest cap in _CAPS whose envelope runs bound their
    dropped oscillation by a quarter of rel_tol times the rate floor. A cap
    that holds every lobe gives the layout of any larger one, so it ends
    the ladder whatever its bound, as the last cap does."""
    lobes = max(zero_counts(t, emitter.omega0, omega_max))
    budget = 0.25 * rel_tol * _rate_floor(reservoir, emitter, t)
    for cap in _CAPS:
        panels = _build_panels(reservoir, emitter, t, omega_max, cap)
        a, b, _, kind = panels
        terms = _envelope_terms(reservoir, emitter, t, a, b, kind)
        if terms[2] <= budget or cap >= min(lobes, _CAPS[-1]):
            return panels, terms


def _build_panels(reservoir, emitter, t, omega_max, cap):
    """Panel arrays (a, b, m, kind), left to right (see the panel kinds):
    merged blocks of whole lobes, at most cap on each side of the transition
    and of a narrowband line, envelope runs between them, and profile stubs
    beyond the outermost kernel zeros. Runs and stubs step at most the RSC's
    widest cap (stubs also _PHASE_CAP/t), and the points of _graded_points
    split whatever panel is still too wide for the RSC, half-lobes in their
    local phase."""
    w0 = emitter.omega0
    k_left, k_right = zero_counts(t, w0, omega_max)
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

    width = _rsc_cap(reservoir)
    step = width[3]
    stub_step = min(step, _PHASE_CAP / t)
    # the frequency edges of each part but its last, its kind and half-lobes
    parts = []

    def add(kind, edges, m=None):
        n = edges.size - 1
        m = np.zeros(n, dtype=int) if m is None else m
        parts.append((edges[:-1], np.full(n, kind), m))
        return edges[-1]

    def zero(k):
        # the half-lobe edge arithmetic, so that runs meet blocks exactly
        return _phase_omega(w0, t, 2 * k, 0.0)

    def add_run(lo, hi):
        # envelope run from lo to hi, geometric in the distance from w0
        if lo < w0:
            edges = (w0 - _geom_edges(w0 - hi, w0 - lo, step))[::-1]
        else:
            edges = w0 + _geom_edges(lo - w0, hi - w0, step)
        edges[0], edges[-1] = lo, hi
        return add(_SMOOTH, edges)

    z_left = zero(-k_left)
    if z_left > 0.0:
        add(_PROFILE, np.append(0.0, _geom_edges(z_left * 1e-9, z_left, stub_step)))
    for i, (lo, hi) in enumerate(merged):
        if i:
            add_run(zero(merged[i - 1][1]), zero(lo))
        m = np.arange(2 * lo, 2 * hi + 1)
        end = add(_PHASE, _phase_omega(w0, t, m, 0.0), m[:-1])
    if merged[-1][1] < k_right:
        end = add_run(end, omega_max)
    elif end < omega_max:
        end = add(_PROFILE, _geom_edges(end, omega_max, stub_step))
    edges, kind, m = (np.concatenate(arrays) for arrays in zip(*parts))
    edges = np.append(edges, end)

    a, b = edges[:-1].copy(), edges[1:].copy()
    phase = kind == _PHASE
    a[phase], b[phase] = 0.0, _HALF_PI
    points, into = _graded_points(edges, width)
    if not points.size:
        return a, b, m, kind
    # a point in a half-lobe splits it at its local phase, unless that lies
    # within rounding of the half-lobe's edges
    local = points.copy()
    lobe = phase[into]
    mp = m[into[lobe]]
    local[lobe] = (points[lobe] - _phase_omega(w0, t, mp, 0.0)) * (0.5 * t)
    fuzz = 2.0 * _EPS * (w0 * t + math.pi * np.abs(mp))
    keep = np.ones(points.size, dtype=bool)
    keep[lobe] = (local[lobe] > fuzz) & (local[lobe] < _HALF_PI - fuzz)
    local, into = local[keep], into[keep]
    # each point ends one part of its panel and starts the next
    src = np.repeat(np.arange(kind.size), np.bincount(into, minlength=kind.size) + 1)
    at = into + np.arange(1, into.size + 1)
    a, b = a[src], b[src]
    a[at], b[at - 1] = local, local
    return a, b, m[src], kind[src]


def _panel_values(f, a, b):
    # both rules' values of panels [a, b] from one call of f on their 24
    # nodes each, and the values at the nodes
    x, w = _GL_PAIR
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    vals = f((mid + half * x).reshape(-1)).reshape(a.size, x.size)
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
    # half-lobes, from sin of the local phase on the rest. Rounding the
    # small local phase costs eps relative at any m.
    nodes, w, u, table = _HALF_LOBE_RULE
    part = (a != 0.0) | (b != _HALF_PI)
    partial = part.any()
    if partial:
        half = 0.5 * (b - a)[:, None]
        u = 0.5 * (a + b)[:, None] + half * nodes
    mc = m[:, None]
    x2 = _HALF_PI * mc + u
    x2 *= x2
    vals = _phase_rsc(reservoir, w0, t, mc, u) / x2
    odd = (m & 1).astype(bool)
    both = vals @ table
    out = np.where(odd[:, None], both[:, 2:], both[:, :2])
    if partial:
        s = np.sin(u[part] + _HALF_PI * odd[part, None])
        out[part] = ((s * s * vals[part]) @ w) * (2.0 * half[part])
    return out


def _setup(reservoir, emitter, t, cfg):
    # shared by both integrators: defaults, argument checks, the truncated
    # domain and the bound on the tail beyond it
    if cfg is None:
        cfg = QuadratureConfig()
    check_time(t)
    # past this the half-lobe indices (omega - omega0)*t/pi near omega0 and
    # a line's centre are no longer exact floats
    w = max(emitter.omega0, getattr(reservoir, "omega_c", 0.0))
    if w * t >= math.pi * 2.0**53:
        raise ValueError(f"t = {t} is too late: omega*t must stay below pi*2**53")
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


def _evaluate(reservoir, emitter, t, a, b, m, kind, envelope):
    # the value of a layout whose _envelope_terms are envelope, and its
    # error estimate short of the tail: the two rules' difference on every
    # panel, a rounding floor and the far field's bound
    w0 = emitter.omega0
    values = np.empty((a.size, 2))
    phase = kind == _PHASE
    if phase.any():
        values[phase] = _phase_values(reservoir, w0, t, a[phase], b[phase], m[phase])
    full = kind == _PROFILE
    if full.any():
        integrand = _integrand(reservoir, emitter, t)
        values[full], _ = _panel_values(lambda w: integrand(w)[0], a[full], b[full])
    values[kind == _SMOOTH], far, osc = envelope

    value = math.fsum(np.append(values[:, 0], far).tolist())
    # rounding floor: per-panel dot products carry O(eps) relative noise
    refine_err = float(np.sum(np.abs(values[:, 0] - values[:, 1])))
    return value, refine_err + 5e-16 * abs(value) + osc


def decay_rate_numeric(reservoir, emitter, t, cfg=None):
    """Decay rate at time t by zero-aligned Gauss-Legendre panels.

    Each point is one layout (see _first_layout), evaluated once. Returns
    an IntegrationResult, or raises ConvergenceError carrying it if its
    error estimate exceeds rel_tol times its value.
    """
    cfg, omega_max, tail = _setup(reservoir, emitter, t, cfg)
    (a, b, m, kind), envelope = _first_layout(
        reservoir, emitter, t, omega_max, cfg.rel_tol
    )
    value, err = _evaluate(reservoir, emitter, t, a, b, m, kind, envelope)
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
        msg += f"; the tail bound {tail:.3e} alone exceeds the tolerance"
    raise ConvergenceError(msg, result=result)


def decay_rate_numeric_oracle(reservoir, emitter, t, cfg=None, max_level=20):
    """Same integral via a tanh-sinh transform over the truncated domain.

    Structurally independent of the panel scheme (no zero-aligned panels);
    intended for cross-checks and the verification command. Level l, from
    6 to max_level (an integer >= 7), has the nodes j*2**-l and holds every
    node of level l - 1, so each level after 6 evaluates only its odd j.
    """
    if not isinstance(max_level, (int, np.integer)) or max_level < 7:
        raise ValueError(f"max_level must be an integer >= 7, got {max_level!r}")
    cfg, omega_max, tail = _setup(reservoir, emitter, t, cfg)
    f = _integrand(reservoir, emitter, t)
    w0 = emitter.omega0
    half = 0.5 * omega_max
    tol = max(min(cfg.rel_tol, 1e-9), 1e-14)
    # weighted sums over every node so far: of f, of f's first-order phase
    # rounding per unit eps*t, and of |f|
    total = phase = arith = 0.0
    hits = evals = 0
    for level in range(6, max_level + 1):
        h = 0.5**level
        # level 6 takes every j in [-top, top], each later level the odd j
        top = math.floor(6.9 / h)
        step = 1 if level == 6 else 2
        first = -top if step == 1 or top % 2 else 1 - top
        for i in range(first, top + 1, step * _CHUNK):
            u = np.arange(i, min(i + step * _CHUNK, top + 1), step) * h
            with np.errstate(over="ignore"):
                z = 0.5 * math.pi * np.sinh(u)
                weight = 0.5 * math.pi * np.cosh(u) / np.cosh(z) ** 2
                # omega = half*(1 + tanh(z)), formed without the cancellation
                # of 1 + tanh(z) near omega = 0, which cost eps*half of omega
                w = omega_max / (1.0 + np.exp(-2.0 * z))
            ok = np.isfinite(weight) & (weight > 0.0)
            w = w[ok]
            np.clip(w, 0.0, omega_max, out=w)
            weight = weight[ok]
            fw, rsc = f(w)
            # The global phase x = (omega - omega0)*t/2 of a node is formed
            # with an error up to eps*(omega*t/2 + |x|), which moves
            # f = t*sinc(x)**2*R(omega) by t*R*|d sinc**2/dx| per unit of
            # phase, and |d sinc**2/dx| is at most both 2|x|/3 and 4/x**2.
            # 8*eps*|f| covers the rest of each node's arithmetic.
            x = np.abs(w - w0)
            x *= 0.5 * t
            shift = w * (0.5 * t)
            shift += x
            shift *= np.minimum(x * (2.0 / 3.0), 4.0 / np.maximum(x, 1.0) ** 2)
            shift *= rsc
            total += float(np.dot(weight, fw))
            phase += float(np.dot(weight, shift))
            arith += float(np.dot(weight, np.abs(fw)))
            evals += w.size
        value = half * h * total
        if level > 6:
            delta = abs(value - prev)
            hits = hits + 1 if delta <= tol * max(abs(value), 1e-300) else 0
            if hits >= 2:
                break
        prev = value

    result = IntegrationResult(
        value=max(value, 0.0),
        error_estimate=delta + tail + half * h * _EPS * (t * phase + 8.0 * arith),
        panels_used=evals,
        truncation_frequency=omega_max,
    )
    if hits >= 2:
        return result
    raise ConvergenceError(
        f"tanh-sinh scheme not converged at level {max_level}", result=result
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
