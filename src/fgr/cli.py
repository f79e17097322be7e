"""Command-line front end: rate curves, onset reports, figure data, verification.

Configs are JSON (schema below); curve output is CSV with a fixed column
set, onset reports and figure markers are JSON. All output is
deterministic: identical configs produce byte-identical files.

Config schema (version 1)::

    {
      "schema_version": 1,          # optional, the integer 1
      "unit": "omega0" | "rad_per_s",   # optional, omega0 by default
      "model": {"type": TYPE, ...},   # TYPE and its fields, see below
      "emitter": {"omega0": ...},
      "time_grid": {"t_min": ..., "t_max": ..., "points_per_decade": ...},
      "quadrature": {...},          # optional, QuadratureConfig fields
      "onset_epsilon": ...,         # optional
      "output": {"path": ..., "format": ...}   # optional
    }

Model types and their fields: broadband with coupling, eta, omega_x and
"cutoff": {"kind": KIND, ...}, where KIND is exponential (no fields) or
power_lorentz (mu); narrowband with g, kappa, omega_c. Every object, the
top level included, is read by the fields of its record (``RunConfig``
for the top level): a key that names none of them is refused, and a field
may be left out only where it has a default and is not tagged, so the
model and its cutoff are always required. All numbers must be finite. The
output format is csv for ``rate`` and json for ``onset``; when it is
omitted the command's own format is used.

Exit codes: 0 ok, 1 config error, 2 partial convergence, 3 onset not
found, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .analytic import onset_time_broadband, onset_time_narrowband
from .errors import ConfigError, ConvergenceError, UnconvergedPointError
from .onset import empirical_onset
from .quadrature import (
    QuadratureConfig,
    decay_rate_numeric,
    decay_rate_numeric_oracle,
    rate_curve,
)
from .reservoir import (
    BroadbandReservoir,
    EmitterSpec,
    NarrowbandReservoir,
    from_json,
    golden_rule_rate,
    zeno_slope,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PARTIAL = 2
EXIT_NO_ONSET = 3
EXIT_VERIFY = 4

CSV_COLUMNS = ("t", "t_dimensionless", "gamma_ratio", "abs_err_est", "regime", "flagged")

_FIGURES = ("fig1", "fig2", "fig3")
_FIG1_ETAS = (0.5, 1.0, 1.5, 2.0, 3.0)
# fig2/fig3: omega_c = 1 and g = 1e-3 omega_c, over kappa*t in [1e-3, 1e3]
_NARROW_OMEGA_C = 1.0
_NARROW_G = 1e-3
_NARROW_KT = (1e-3, 1e3)
_FIG2_QS = (1.0, 10.0, 100.0, 1000.0)
_FIG3_Q = 10.0
_FIG3_DETUNINGS = (0.0, 0.4, 1.0, 2.0, 5.0)  # in units of kappa

# fgr verify: the rel_tol of both integrators, and the largest relative
# difference between them that passes
_VERIFY_REL_TOL = 1e-8
_VERIFY_THRESHOLD = 1e-6


@dataclass(frozen=True)
class TimeGridSpec:
    t_min: float
    t_max: float
    points_per_decade: int

    def __post_init__(self):
        if not 0.0 < self.t_min < self.t_max < math.inf:
            raise ValueError("time grid requires 0 < t_min < t_max < inf")
        if self.points_per_decade < 1:
            raise ValueError("points_per_decade must be >= 1")

    def times(self):
        decades = math.log10(self.t_max / self.t_min)
        n = max(2, int(round(decades * self.points_per_decade)) + 1)
        return np.geomspace(self.t_min, self.t_max, n)


@dataclass(frozen=True)
class OutputSpec:
    """Output file; ``format`` None means the writing command's own."""

    path: str
    format: str | None = None

    def __post_init__(self):
        if self.format not in (None, "csv", "json"):
            raise ValueError(f"unsupported output format {self.format!r}")


@dataclass(frozen=True)
class RunConfig:
    model: BroadbandReservoir | NarrowbandReservoir
    emitter: EmitterSpec
    time_grid: TimeGridSpec
    quadrature: QuadratureConfig = field(default_factory=QuadratureConfig)
    onset_epsilon: float | None = None
    output: OutputSpec | None = None
    unit: str = "omega0"
    schema_version: int = 1

    def __post_init__(self):
        if self.schema_version != 1:
            raise ValueError(f"schema_version must be 1, got {self.schema_version!r}")
        if self.unit not in ("omega0", "rad_per_s"):
            raise ValueError(f"unit must be omega0 or rad_per_s, got {self.unit!r}")
        if self.onset_epsilon is not None and not 0.0 < self.onset_epsilon < math.inf:
            raise ValueError(
                f"onset_epsilon must be finite and > 0, got {self.onset_epsilon}"
            )

    @classmethod
    def from_json_dict(cls, data, path="config"):
        return from_json(cls, data, path)

    def output_path(self, fmt, default):
        """Where a command that writes ``fmt`` puts its output."""
        if self.output is None:
            return default
        if self.output.format not in (None, fmt):
            raise ConfigError(
                "config.output.format",
                f"this command writes {fmt}, got {self.output.format!r}",
            )
        return self.output.path


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(path, str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from exc
    return RunConfig.from_json_dict(data)


def _format_float(x):
    return repr(float(x))


def write_curve_csv(path, curve, scale, extra_columns=None):
    """Write a curve as CSV with full round-trip float precision.

    extra_columns: optional list of (name, constant_value) appended after
    the fixed column set.
    """
    extra = extra_columns or []
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(CSV_COLUMNS) + [name for name, _ in extra])
        for i, t in enumerate(curve.times):
            row = [
                _format_float(t),
                _format_float(t * scale),
                _format_float(curve.ratios[i]),
                _format_float(curve.error_estimates[i]),
                curve.regime_labels[i],
                "true" if curve.flagged[i] else "false",
            ]
            row.extend(_format_float(v) for _, v in extra)
            writer.writerow(row)


def _default_epsilon(model):
    # calibrated so the detector agrees with the closed-form onset times:
    # ratio(1/kappa) = 1 - 1/e for narrowband, ratio(t_F) ~ 2 for
    # tail-dominated broadband
    if isinstance(model, NarrowbandReservoir):
        return 1.0 - math.exp(-1.0)
    return 1.0 if model.eta > 1.0 else 1.0 - math.exp(-1.0)


def cmd_rate(config):
    """Compute a rate curve and write it as CSV."""
    out_path = config.output_path("csv", "rate_curve.csv")
    curve = rate_curve(
        config.model, config.emitter, config.time_grid.times(), config.quadrature
    )
    write_curve_csv(out_path, curve, config.model.scale_frequency(config.emitter))
    return EXIT_PARTIAL if bool(np.any(curve.flagged)) else EXIT_OK


def cmd_onset(config, epsilon=None, stream=None):
    """Detect the empirical onset time and report it against the formula.

    Exits EXIT_PARTIAL, with no empirical onset in the report, when the
    suffix that would qualify holds flagged points."""
    stream = stream or sys.stdout
    out_path = config.output_path("json", None)
    model, emitter = config.model, config.emitter
    if isinstance(model, NarrowbandReservoir):
        t_f_analytic = onset_time_narrowband(model)
    else:
        t_f_analytic = onset_time_broadband(model, emitter)
    if epsilon is not None:
        config = replace(config, onset_epsilon=epsilon)
    eps = config.onset_epsilon or _default_epsilon(model)

    curve = rate_curve(model, emitter, config.time_grid.times(), config.quadrature)
    try:
        t_emp, unconverged = empirical_onset(curve, eps), None
    except UnconvergedPointError as exc:
        t_emp, unconverged = None, exc
    converged = t_emp is not None and not bool(np.any(curve.flagged))
    payload = {
        "t_f_analytic": t_f_analytic,
        "t_f_empirical": t_emp,
        "epsilon": eps,
        "agreement_factor": (t_emp / t_f_analytic) if t_emp is not None else None,
        "converged": converged,
        "unit": config.unit,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        stream.write(text)
    if unconverged is not None:
        print(f"error: {unconverged}", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK if t_emp is not None else EXIT_NO_ONSET


def _write_markers(outdir, figure_id, markers):
    path = os.path.join(outdir, "markers.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"figure": figure_id, **markers}, indent=2, sort_keys=True))
        fh.write("\n")


def cmd_figure(figure_id, outdir=".", overrides=None):
    """Emit the data behind one of the three reference figures.

    Every curve is integrated numerically by ``rate_curve``, as ``fgr rate``
    does, so each row carries its own error estimate; a flagged row makes
    the exit code EXIT_PARTIAL. One CSV per curve plus markers.json with
    the reference lines, which come from the closed forms. ``overrides``
    may set points_per_decade and rel_tol for every figure, and for fig1
    also etas, coupling, omega_x, t_min and t_max; a tail_epsilon key is
    ignored, as the integral's cut follows rel_tol.
    """
    if figure_id not in _FIGURES:
        raise ConfigError("figure_id", f"unknown figure {figure_id!r}")
    overrides = overrides or {}
    ppd = int(overrides.get("points_per_decade", 16))
    cfg = QuadratureConfig(rel_tol=float(overrides.get("rel_tol", 1e-8)))

    # (file name, model, emitter, times, extra columns) per curve
    curves = []
    if figure_id == "fig1":
        coupling = float(overrides.get("coupling", 1e-3))
        omega_x = float(overrides.get("omega_x", 250.0))
        emitter = EmitterSpec(1.0)
        t_min = float(overrides.get("t_min", 1e-4))
        t_max = float(overrides.get("t_max", 1e5))
        grid = TimeGridSpec(t_min, t_max, ppd).times()
        vertical = []
        for eta in overrides.get("etas", _FIG1_ETAS):
            model = BroadbandReservoir(coupling=coupling, eta=eta, omega_x=omega_x)
            curves.append((f"fig1_eta_{eta:g}.csv", model, emitter, grid, None))
            vertical.append({"eta": eta, "t_f": onset_time_broadband(model, emitter)})
        markers = {
            "horizontal_lines": [{"gamma_ratio": 2.0, "applies_to": "eta>1"}],
            "vertical_lines": vertical,
        }
    else:
        omega_c = _NARROW_OMEGA_C
        kt = TimeGridSpec(*_NARROW_KT, ppd).times()

        def narrow(q):
            return NarrowbandReservoir(
                g=_NARROW_G, kappa=omega_c / (2.0 * q), omega_c=omega_c
            )

        if figure_id == "fig2":
            vertical = []
            for q in _FIG2_QS:
                model = narrow(q)
                times = kt / model.kappa
                curves.append(
                    (f"fig2_q_{q:g}.csv", model, EmitterSpec(omega_c), times, None)
                )
                vertical.append({"q": q, "t_f": onset_time_narrowband(model)})
            markers = {
                "horizontal_lines": [{"gamma_ratio": 1.0 / math.e}],
                "vertical_lines": vertical,
            }
        else:
            model = narrow(_FIG3_Q)
            curves = [
                (
                    f"fig3_detuning_{d:g}.csv",
                    model,
                    EmitterSpec(omega_c + d * model.kappa),
                    kt / model.kappa,
                    [("delta_over_kappa", d)],
                )
                for d in _FIG3_DETUNINGS
            ]
            markers = {"horizontal_lines": [], "vertical_lines": []}

    # made only once every override has been checked
    os.makedirs(outdir, exist_ok=True)
    status = EXIT_OK
    for name, model, emitter, times, extra in curves:
        curve = rate_curve(model, emitter, times, cfg)
        if bool(np.any(curve.flagged)):
            status = EXIT_PARTIAL
        write_curve_csv(
            os.path.join(outdir, name), curve, model.scale_frequency(emitter), extra
        )
    _write_markers(outdir, figure_id, markers)
    return status


def _verify_cases():
    emitter = EmitterSpec(1.0)
    cases = []
    for eta in (0.5, 1.0, 2.0, 3.0):
        model = BroadbandReservoir(coupling=1e-3, eta=eta, omega_x=250.0)
        for t in (4e-6, 0.1, 10.0):
            cases.append((f"broadband eta={eta:g} w0t={t:g}", model, emitter, t))
    narrow = [
        (10.0, 1e-3, 0.0),
        (10.0, 1.0, 0.0),
        (10.0, 100.0, 0.0),
        (10.0, 1.0, 2.0),
        (10.0, 1.0, 5.0),
        (1000.0, 1e-3, 0.0),
        (1000.0, 1.0, 0.0),
        (1.0, 1.0, 0.0),
    ]
    for q, kt, detuning in narrow:
        omega_c = 2.0 * q  # kappa = 1
        model = NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=omega_c)
        em = EmitterSpec(omega_c + detuning)
        cases.append(
            (f"narrowband Q={q:g} kt={kt:g} d/k={detuning:g}", model, em, kt)
        )
    return cases


def cmd_verify(stream=None):
    """Run the oracle-equivalence and regime-consistency checks.

    Each oracle point is computed by the panel integrator and by the
    contour reference (``decay_rate_numeric_oracle``), whose panels lie on
    a ray in the complex plane (they share only the 16/8 Gauss-Legendre
    pair, the per-model record of the golden rule, the rate floor's terms
    and the Gauss-Jacobi pair at a branch point at omega = 0, their panel
    evaluation, the tail bounds, the argument checks and the stepping
    arithmetic), and passes if they agree to _VERIFY_THRESHOLD
    relative. The short-time and golden-rule limits are then checked on the
    panel integrator's values.
    """
    stream = stream or sys.stdout
    cfg = QuadratureConfig(rel_tol=_VERIFY_REL_TOL)
    cases = _verify_cases()

    failures = 0

    def report(name, ok, detail):
        nonlocal failures
        if not ok:
            failures += 1
        stream.write(f"{'PASS' if ok else 'FAIL'} {name}: {detail}\n")

    # the main integrator's value per case, reused by the short-time law
    mains = {}
    for name, model, em, t in cases:
        try:
            main = mains[name] = decay_rate_numeric(model, em, t, cfg)
            oracle = decay_rate_numeric_oracle(model, em, t, cfg)
            rel = abs(main.value - oracle.value) / max(abs(main.value), 1e-300)
            report(f"oracle {name}", rel <= _VERIFY_THRESHOLD, f"rel diff {rel:.3e}")
        except ConvergenceError as exc:
            report(f"oracle {name}", False, str(exc))

    # short-time law: rate/(slope*t) -> 1 deep in the short-time regime
    for name, model, em, t in cases:
        scale = (
            model.omega_x if isinstance(model, BroadbandReservoir) else model.kappa
        )
        if scale * t > 1e-3:
            continue
        label = f"short-time law {name}"
        if name not in mains:
            report(label, False, "main integrator did not converge")
            continue
        dev = abs(mains[name].value / (zeno_slope(model) * t) - 1.0)
        report(label, dev < 1e-2, f"|rate/(A t) - 1| = {dev:.3e}")

    # long-time law: ratio -> 1 well past the onset time
    for eta in (0.5, 1.0, 2.0):
        model = BroadbandReservoir(coupling=1e-3, eta=eta, omega_x=250.0)
        em = EmitterSpec(1.0)
        t = 30.0 * onset_time_broadband(model, em)
        label = f"golden-rule limit eta={eta:g}"
        try:
            main = decay_rate_numeric(model, em, t, cfg)
        except ConvergenceError as exc:
            report(label, False, str(exc))
            continue
        ratio = main.value / golden_rule_rate(model, em)
        report(label, abs(ratio - 1.0) < 0.25, f"ratio at 30*t_F = {ratio:.4f}")

    stream.write(f"{len(cases)} oracle points, {failures} failures\n")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fgr",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rate = sub.add_parser("rate", help="compute a rate-ratio curve (CSV)")
    p_rate.add_argument("-c", "--config", required=True)

    p_onset = sub.add_parser("onset", help="detect the golden-rule onset time")
    p_onset.add_argument("-c", "--config", required=True)
    p_onset.add_argument("--epsilon", type=float, default=None)

    p_fig = sub.add_parser("figure", help="emit reference-figure data")
    p_fig.add_argument("figure_id", choices=_FIGURES)
    p_fig.add_argument("-o", "--outdir", default=".")
    p_fig.add_argument(
        "--points-per-decade", type=int, default=None, dest="points_per_decade"
    )

    sub.add_parser("verify", help="run the numerical cross-check suite")

    args = parser.parse_args(argv)

    try:
        if args.command == "rate":
            return cmd_rate(load_config(args.config))
        if args.command == "onset":
            return cmd_onset(load_config(args.config), epsilon=args.epsilon)
        if args.command == "figure":
            overrides = {}
            if args.points_per_decade is not None:
                overrides["points_per_decade"] = args.points_per_decade
            return cmd_figure(args.figure_id, args.outdir, overrides)
        if args.command == "verify":
            return cmd_verify()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
