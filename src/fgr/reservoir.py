"""Reservoir coupling spectrum (RSC) models and derived scalar quantities.

Two model families are supported: a power-law broadband spectrum with a
high-frequency cutoff, and a Breit-Wigner (Lorentzian) narrowband spectrum.
All frequencies are angular frequencies in one consistent user-chosen unit;
rates are angular-frequency valued (no hbar anywhere).

Every record the package reads or writes is a frozen dataclass; ``to_json``
and ``from_json`` are their one JSON codec, with the tags of ``TAGS``.
"""

from __future__ import annotations

import functools
import math
import numbers
import typing
import warnings
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "ExponentialCutoff",
    "PowerLorentzCutoff",
    "CutoffKind",
    "BroadbandReservoir",
    "NarrowbandReservoir",
    "EmitterSpec",
    "MODEL_TYPES",
    "CUTOFF_KINDS",
    "TAGS",
    "to_json",
    "from_json",
    "evaluate_rsc",
    "golden_rule_rate",
    "golden_rule_rate_approx",
    "zeno_slope",
    "cutoff_constant",
]


def _require_finite(spec):
    # the range checks below compare with `>`, which infinities pass
    for f in fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, numbers.Real) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class ExponentialCutoff:
    """exp(-omega/omega_x) high-frequency roll-off."""

    def profile(self, x):
        """Roll-off factor at x = omega/omega_x."""
        return np.exp(-np.asarray(x, dtype=float))


@dataclass(frozen=True)
class PowerLorentzCutoff:
    """[1 + (omega/omega_x)**2]**(-mu) high-frequency roll-off.

    mu > 1/2 keeps the profile integrable. Values below 4 fall outside the
    range typical of atomic transitions and only trigger a warning.
    """

    mu: float

    def __post_init__(self):
        _require_finite(self)
        if not self.mu > 0.5:
            raise ValueError(f"mu must be > 1/2, got {self.mu}")
        if self.mu < 4.0:
            warnings.warn(
                f"PowerLorentzCutoff with mu={self.mu} < 4 is outside the "
                "usual physical range",
                stacklevel=3,
            )

    def profile(self, x):
        x = np.asarray(x, dtype=float)
        return (1.0 + x * x) ** (-self.mu)


CutoffKind = ExponentialCutoff | PowerLorentzCutoff


@dataclass(frozen=True)
class BroadbandReservoir:
    """Power-law RSC: coupling * omega * (omega/omega_x)**(eta-1) * F(omega).

    Attributes
    ----------
    coupling : float
        Dimensionless coupling strength (> 0, weak-coupling regime expected).
    eta : float
        Spectral exponent, >= 0. Values > 1 produce an off-resonant tail
        contribution to the decay rate.
    omega_x : float
        Cutoff angular frequency, > 0.
    cutoff : ExponentialCutoff or PowerLorentzCutoff
        High-frequency roll-off shape.
    """

    coupling: float
    eta: float
    omega_x: float
    cutoff: CutoffKind = field(default_factory=ExponentialCutoff)

    def __post_init__(self):
        _require_finite(self)
        if not self.coupling > 0.0:
            raise ValueError(f"coupling must be > 0, got {self.coupling}")
        if not self.eta >= 0.0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")
        if not self.omega_x > 0.0:
            raise ValueError(f"omega_x must be > 0, got {self.omega_x}")
        if isinstance(self.cutoff, ExponentialCutoff):
            # the quadrature's tail bounds take this total mass as a float
            try:
                mass = zeno_slope(self)
            except OverflowError:
                mass = math.inf
            if not math.isfinite(mass):
                raise ValueError(
                    "eta must keep the RSC mass coupling*omega_x**2*Gamma(eta+1) "
                    f"finite, got eta={self.eta}"
                )

    def scale_frequency(self, emitter):
        """Frequency that makes time dimensionless: omega0 for broadband."""
        return emitter.omega0


@dataclass(frozen=True)
class NarrowbandReservoir:
    """Breit-Wigner RSC: (kappa/pi) * g**2 / ((omega-omega_c)**2 + kappa**2).

    Attributes
    ----------
    g : float
        Coupling strength (angular frequency), > 0.
    kappa : float
        Half-width of the resonance (angular frequency), > 0.
    omega_c : float
        Center frequency of the resonance, > 0.
    """

    g: float
    kappa: float
    omega_c: float

    def __post_init__(self):
        _require_finite(self)
        if not self.g > 0.0:
            raise ValueError(f"g must be > 0, got {self.g}")
        if not self.kappa > 0.0:
            raise ValueError(f"kappa must be > 0, got {self.kappa}")
        if not self.omega_c > 0.0:
            raise ValueError(f"omega_c must be > 0, got {self.omega_c}")

    @property
    def quality_factor(self):
        return self.omega_c / (2.0 * self.kappa)

    def scale_frequency(self, emitter):
        """Frequency that makes time dimensionless: kappa for narrowband."""
        return self.kappa


@dataclass(frozen=True)
class EmitterSpec:
    """Two-level emitter with transition frequency omega0 > 0."""

    omega0: float

    def __post_init__(self):
        _require_finite(self)
        if not self.omega0 > 0.0:
            raise ValueError(f"omega0 must be > 0, got {self.omega0}")


# the tag tables of the serialised form (see ``to_json``)
MODEL_TYPES = {"broadband": BroadbandReservoir, "narrowband": NarrowbandReservoir}
CUTOFF_KINDS = {"exponential": ExponentialCutoff, "power_lorentz": PowerLorentzCutoff}
TAGS = {
    **{cls: ("type", tag) for tag, cls in MODEL_TYPES.items()},
    **{cls: ("kind", tag) for tag, cls in CUTOFF_KINDS.items()},
}

# how a refusal names what each scalar annotation admits
_SCALARS = {float: "a number", int: "an integer", str: "a string"}

# the resolved field annotations of a record class, several times dearer to
# resolve than a record is to read
_hints = functools.cache(typing.get_type_hints)


def to_json(spec):
    """The JSON object of a record: its tag from TAGS, if it has one, then
    every field, a nested record as its own object and None as null."""
    out = dict([TAGS[type(spec)]]) if type(spec) in TAGS else {}
    for f in fields(spec):
        value = getattr(spec, f.name)
        out[f.name] = to_json(value) if is_dataclass(value) else value
    return out


def from_json(tp, value, path):
    """The value of annotation ``tp`` read from JSON; the inverse of to_json.

    ``tp`` is float (which admits an integer), int, str, a record, a union
    of records tagged in TAGS, or one of these ``| None``; no bool passes
    as a number. A record refuses keys that name no field and may leave out
    only fields that have a default and are not tagged. Raises ConfigError
    with the dotted path, below ``path``, of the value refused.
    """
    members = typing.get_args(tp) or (tp,)
    if value is None and type(None) in members:
        return None
    members = [m for m in members if m is not type(None)]
    cls = members[0]
    if cls in _SCALARS:
        admitted = (int, float) if cls is float else cls
        if isinstance(value, bool) or not isinstance(value, admitted):
            raise ConfigError(path, f"expected {_SCALARS[cls]}, got {value!r}")
        return float(value) if cls is float else value
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {value!r}")
    key = TAGS[cls][0] if cls in TAGS else None
    if key is not None:
        table = {TAGS[m][1]: m for m in members}
        tag = value.get(key)
        if not (isinstance(tag, str) and tag in table):
            raise ConfigError(f"{path}.{key}", f"{tag!r} is not one of {sorted(table)}")
        cls = table[tag]
    unknown = set(value) - {f.name for f in fields(cls)} - {key}
    if unknown:
        raise ConfigError(path, f"unknown fields {sorted(unknown)}")
    kwargs = {}
    for f in fields(cls):
        hint = _hints(cls)[f.name]
        if f.name in value:
            kwargs[f.name] = from_json(hint, value[f.name], f"{path}.{f.name}")
        elif f.default is f.default_factory is MISSING or any(
            m in TAGS for m in typing.get_args(hint) or (hint,)
        ):
            raise ConfigError(f"{path}.{f.name}", "missing required field")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        # constructors name the field they refuse first
        name = str(exc).split(" ", 1)[0]
        raise ConfigError(f"{path}.{name}" if name in kwargs else path, str(exc)) from exc


# the log of a float a little below the largest one, e**709 = 8.2e307
_LOG_HUGE = 709.0


def evaluate_rsc(reservoir, omega):
    """Reservoir coupling spectrum at omega (scalar or array), omega >= 0.

    Returns a value (or array) in frequency units, nonnegative and
    continuous in omega.
    """
    # a scalar as a float64, which rounds as an array does at a tenth of the cost
    w = np.float64(omega) if isinstance(omega, numbers.Real) else np.asarray(omega, dtype=float)
    # a 0-d input's bounds by comparison and max(), far cheaper than the
    # reductions on a numpy scalar
    scalar = w.ndim == 0
    if (w < 0.0) if scalar else (w.min(initial=0.0) < 0.0):
        raise ValueError("omega must be >= 0")
    if isinstance(reservoir, BroadbandReservoir):
        x = w / reservoir.omega_x
        scale = reservoir.coupling * reservoir.omega_x
        eta = reservoir.eta
        # coupling * omega * (omega/omega_x)**(eta-1) rewritten with a single
        # power so that eta < 1 stays finite at omega = 0
        top = max(float(x), 1.0) if scalar else x.max(initial=1.0)
        if eta * math.log(top) + math.log(max(scale, 1.0)) < _LOG_HUGE:
            out = scale * x**eta * reservoir.cutoff.profile(x)
        else:
            # scale * x**eta may overflow (for the exponential cutoff at
            # eta >~ 130 below the quadrature's omega_max, past 235*omega_x
            # at eta = 130), and a large mu's profile fall below the normal
            # floats: there take the continued RSC's root form, which does not
            with np.errstate(over="ignore", invalid="ignore"):
                profile = reservoir.cutoff.profile(x)
                out = scale * x**eta * profile
            keep = np.isfinite(out) & (profile >= np.finfo(float).tiny)
            out = np.where(keep, out, _rsc_ray(reservoir, w, 0.0).real)
    elif isinstance(reservoir, NarrowbandReservoir):
        out = _line_shape(reservoir, w - reservoir.omega_c)
    else:
        raise TypeError(f"unsupported reservoir type: {type(reservoir).__name__}")
    if scalar:
        return float(out)
    return out


def _line_shape(reservoir, d):
    # the Breit-Wigner RSC of a narrowband reservoir at d = omega - omega_c,
    # for callers that can form d more exactly than omega
    return (reservoir.kappa / math.pi) * reservoir.g**2 / (d * d + reservoir.kappa**2)


def _rsc_ray(reservoir, s, theta):
    # The RSC continued analytically to omega = s*e**(-i*theta), s >= 0, on
    # the principal branch of each power, so that at theta = 0 it is
    # evaluate_rsc to rounding: a line everywhere, the broadband families for
    # theta <= pi/4, where Re x**2 > -1 keeps the power-Lorentz factor on its
    # branch. x = omega/omega_x has the modulus r = s/omega_x and the angle
    # -theta, so each factor's modulus and phase are real functions of r.
    if isinstance(reservoir, NarrowbandReservoir):
        w = s * complex(math.cos(theta), -math.sin(theta))
        return _line_shape(reservoir, w - reservoir.omega_c)
    r = s / reservoir.omega_x
    # |x|**eta * |F(x)| is taken as (|x|**(eta/p) * |F(x)|**(1/p))**p with
    # p = max(eta, 1), whose base stays finite where |x|**eta would overflow
    # (near the exponential cutoff's peak at eta*omega_x for eta >~ 130)
    eta = reservoir.eta
    p = max(eta, 1.0)
    if isinstance(reservoir.cutoff, ExponentialCutoff):
        root, phase = np.exp(r * (-math.cos(theta) / p)), r * math.sin(theta)
    else:
        r2 = r * r
        re, im = 1.0 + r2 * math.cos(2.0 * theta), r2 * -math.sin(2.0 * theta)
        mu = reservoir.cutoff.mu
        root, phase = np.hypot(re, im) ** (-mu / p), np.arctan2(im, re) * -mu
    # e**(i*phase) = (1 + i*u)**2/(1 + u**2) with u = tan(phase/2): numpy's
    # float64 tan is vectorised, and its sin and cos cost 5x as much (AVX-512)
    u = np.tan(0.5 * (phase - eta * theta))
    modulus = (reservoir.coupling * reservoir.omega_x) * (r ** (eta / p) * root) ** p
    modulus /= 1.0 + u * u
    out = np.empty(np.shape(s), dtype=complex)
    out.real, out.imag = modulus * (1.0 - u * u), 2.0 * modulus * u
    return out


def golden_rule_rate(reservoir, emitter):
    """Long-time decay rate 2*pi*R(omega0), exact for the given model."""
    return 2.0 * math.pi * evaluate_rsc(reservoir, emitter.omega0)


def golden_rule_rate_approx(reservoir, emitter):
    """Broadband golden-rule rate with the cutoff factor dropped.

    2*pi * coupling * omega0 * (omega0/omega_x)**(eta-1); this is the rate
    the closed-form regime expressions are written in terms of. Its ratio
    to golden_rule_rate is exactly 1/F(omega0).
    """
    if not isinstance(reservoir, BroadbandReservoir):
        raise TypeError("golden_rule_rate_approx is defined for broadband reservoirs only")
    w0 = emitter.omega0
    return (
        2.0
        * math.pi
        * reservoir.coupling
        * w0
        * (w0 / reservoir.omega_x) ** (reservoir.eta - 1.0)
    )


def _power_lorentz_moment(eta, mu):
    # integral of x**eta * (1 + x*x)**(-mu) over [0, inf), for
    # mu > (eta+1)/2: the Beta-function value B(a, mu - a)/2, a = (eta+1)/2
    a = 0.5 * (eta + 1.0)
    try:
        return 0.5 * math.gamma(a) * math.gamma(mu - a) / math.gamma(mu)
    except OverflowError:
        # Gamma overflows from ~171.6 on; the ratio stays representable
        return 0.5 * math.exp(math.lgamma(a) + math.lgamma(mu - a) - math.lgamma(mu))


def zeno_slope(reservoir):
    """Short-time rate slope A = integral of R over [0, inf), in closed form.

    Raises ValueError if R is not integrable (power-Lorentz cutoff with
    mu <= (eta+1)/2).
    """
    if isinstance(reservoir, NarrowbandReservoir):
        k, wc = reservoir.kappa, reservoir.omega_c
        return reservoir.g**2 * (0.5 + math.atan(wc / k) / math.pi)
    if not isinstance(reservoir, BroadbandReservoir):
        raise TypeError(f"unsupported reservoir type: {type(reservoir).__name__}")
    lam, eta, wx = reservoir.coupling, reservoir.eta, reservoir.omega_x
    if isinstance(reservoir.cutoff, ExponentialCutoff):
        return lam * math.gamma(eta + 1.0) * wx**2
    mu = reservoir.cutoff.mu
    if not mu > 0.5 * (eta + 1.0):
        raise ValueError(
            f"R is not integrable: power-Lorentz cutoff needs mu > (eta+1)/2, "
            f"got mu={mu}, eta={eta}"
        )
    return lam * wx**2 * _power_lorentz_moment(eta, mu)


def cutoff_constant(cutoff):
    """Dimensionless profile mass C = (1/omega_x) * integral of F over [0, inf).

    Exponential: exactly 1. Power-Lorentz: the exact Beta-function value
    (sqrt(pi)/2) * Gamma(mu - 1/2) / Gamma(mu).
    """
    if isinstance(cutoff, ExponentialCutoff):
        return 1.0
    if isinstance(cutoff, PowerLorentzCutoff):
        return _power_lorentz_moment(0.0, cutoff.mu)
    raise TypeError(f"unsupported cutoff type: {type(cutoff).__name__}")
