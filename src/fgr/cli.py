"""Command-line front end: rate curves, onset reports, figure data, verification.

Configs are JSON (schema below); curve output is CSV with a fixed column
set, onset reports and figure markers are JSON. All output is
deterministic: identical configs produce byte-identical files.

Config schema (version 1)::

    {
      "schema_version": 1,
      "unit": "omega0" | "rad_per_s",
      "model": {"type": TYPE, ...},   # TYPE and its fields, see below
      "emitter": {"omega0": ...},
      "time_grid": {"t_min": ..., "t_max": ..., "points_per_decade": ...},
      "quadrature": {...},          # optional, QuadratureConfig fields
      "onset_epsilon": ...,         # optional
      "output": {"path": ..., "format": ...}   # optional
    }

Model types and their fields: broadband with coupling, eta, omega_x and
"cutoff": {"kind": KIND, ...}, where KIND is exponential (no fields) or
power_lorentz (mu); narrowband with g, kappa, omega_c. All numbers must be
finite, and every object refuses keys that name none of its fields. The
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
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .analytic import (
    narrowband_rate_detuned,
    onset_time_broadband,
    onset_time_narrowband,
)
from .errors import ConvergenceError
from .onset import empirical_onset
from .quadrature import (
    QuadratureConfig,
    curve_from_ratios,
    decay_rate_numeric,
    decay_rate_numeric_oracle,
    rate_curve,
)
from .reservoir import (
    CUTOFF_KINDS,
    MODEL_TYPES,
    BroadbandReservoir,
    EmitterSpec,
    NarrowbandReservoir,
    golden_rule_rate,
    zeno_slope,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PARTIAL = 2
EXIT_NO_ONSET = 3
EXIT_VERIFY = 4

CSV_COLUMNS = ("t", "t_dimensionless", "gamma_ratio", "abs_err_est", "regime", "flagged")

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


class ConfigError(ValueError):
    """Configuration validation failure with a dotted field path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


# accepted JSON types and their description, per requested kind
_KINDS = {
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    str: (str, "a string"),
    dict: (dict, "an object"),
}


def _require(mapping, key, path, kind):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}", "missing required field")
    value = mapping[key]
    types, description = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{path}.{key}", f"expected {description}, got {value!r}")
    return float(value) if kind is float else value


# JSON kind of a section field, from its annotation (a string, since
# annotations are postponed); "X | None" also admits null
_FIELD_KINDS = {"float": float, "int": int, "str": str}


def _refuse_unknown(data, cls, path, tag_key=None):
    unknown = set(data) - {f.name for f in fields(cls)} - {tag_key}
    if unknown:
        raise ConfigError(path, f"unknown fields {sorted(unknown)}")


def _from_fields(cls, data, path, tag_key=None):
    # a config section from its dataclass fields: a field may be left out
    # exactly when it has a default (the cutoff is always required, as an
    # object tagged by its kind), and a key that names no field is refused
    _refuse_unknown(data, cls, path, tag_key)
    kwargs = {}
    for f in fields(cls):
        if f.name == "cutoff":
            cutoff_d = _require(data, f.name, path, dict)
            kwargs[f.name] = _tagged(cutoff_d, "kind", CUTOFF_KINDS, f"{path}.{f.name}")
        elif f.name in data or (f.default is MISSING and f.default_factory is MISSING):
            kind, optional, _ = f.type.partition(" | None")
            if not (optional and data.get(f.name) is None):
                kwargs[f.name] = _require(data, f.name, path, _FIELD_KINDS[kind])
    try:
        return cls(**kwargs)
    except ValueError as exc:
        # constructors name the field they refuse first
        name = str(exc).split(" ", 1)[0]
        field_path = f"{path}.{name}" if name in kwargs else path
        raise ConfigError(field_path, str(exc)) from exc


def _tagged(data, key, table, path):
    # inverse of to_dict(): the class that data[key] names in the tag table
    tag = _require(data, key, path, str)
    if tag not in table:
        raise ConfigError(
            f"{path}.{key}", f"unknown {key} {tag!r}, expected one of {sorted(table)}"
        )
    return _from_fields(table[tag], data, path, tag_key=key)


def _section(data, key, path, cls):
    return _from_fields(cls, _require(data, key, path, dict), f"{path}.{key}")


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
    quadrature: QuadratureConfig
    onset_epsilon: float | None = None
    output: OutputSpec | None = None
    unit: str = "omega0"
    schema_version: int = 1

    @classmethod
    def from_json_dict(cls, data, path="config"):
        if not isinstance(data, dict):
            raise ConfigError(path, "top level must be an object")
        _refuse_unknown(data, cls, path)
        version = data.get("schema_version", 1)
        if version != 1:
            raise ConfigError(f"{path}.schema_version", f"unsupported version {version}")
        unit = data.get("unit", "omega0")
        if unit not in ("omega0", "rad_per_s"):
            raise ConfigError(f"{path}.unit", f"unknown unit {unit!r}")

        onset_epsilon = data.get("onset_epsilon")
        if onset_epsilon is not None:
            onset_epsilon = _require(data, "onset_epsilon", path, float)
            if not 0.0 < onset_epsilon < math.inf:
                raise ConfigError(
                    f"{path}.onset_epsilon",
                    f"must be finite and > 0, got {onset_epsilon}",
                )
        model_d = _require(data, "model", path, dict)
        return cls(
            model=_tagged(model_d, "type", MODEL_TYPES, f"{path}.model"),
            emitter=_section(data, "emitter", path, EmitterSpec),
            time_grid=_section(data, "time_grid", path, TimeGridSpec),
            quadrature=(
                _section(data, "quadrature", path, QuadratureConfig)
                if "quadrature" in data
                else QuadratureConfig()
            ),
            onset_epsilon=onset_epsilon,
            output=(
                _section(data, "output", path, OutputSpec)
                if data.get("output") is not None
                else None
            ),
            unit=unit,
            schema_version=1,
        )

    def to_json_dict(self):
        out = {
            "schema_version": self.schema_version,
            "unit": self.unit,
            "model": self.model.to_dict(),
            "emitter": asdict(self.emitter),
            "time_grid": asdict(self.time_grid),
            "quadrature": asdict(self.quadrature),
        }
        if self.onset_epsilon is not None:
            out["onset_epsilon"] = self.onset_epsilon
        if self.output is not None:
            out["output"] = asdict(self.output)
        return out

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
    """Detect the empirical onset time and report it against the formula."""
    stream = stream or sys.stdout
    out_path = config.output_path("json", None)
    model, emitter = config.model, config.emitter
    if isinstance(model, NarrowbandReservoir):
        t_f_analytic = onset_time_narrowband(model)
    else:
        t_f_analytic = onset_time_broadband(model, emitter)
    eps = epsilon if epsilon is not None else config.onset_epsilon
    if eps is None:
        eps = _default_epsilon(model)
    if not 0.0 < eps < math.inf:
        raise ConfigError("epsilon", f"must be finite and > 0, got {eps}")

    curve = rate_curve(model, emitter, config.time_grid.times(), config.quadrature)
    t_emp = empirical_onset(curve, eps)
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
    return EXIT_OK if t_emp is not None else EXIT_NO_ONSET


def _write_markers(outdir, figure_id, markers):
    path = os.path.join(outdir, "markers.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"figure": figure_id, **markers}, indent=2, sort_keys=True))
        fh.write("\n")


def cmd_figure(figure_id, outdir=".", overrides=None):
    """Emit the data behind one of the three reference figures.

    The broadband sweep is integrated numerically; the narrowband sweeps
    use the closed forms they plot. One CSV per curve plus markers.json
    with the reference lines. ``overrides`` may set points_per_decade for
    every figure, and for fig1 also etas, coupling, omega_x, t_min, t_max,
    rel_tol and tail_epsilon.
    """
    overrides = overrides or {}
    os.makedirs(outdir, exist_ok=True)
    ppd = int(overrides.get("points_per_decade", 16))
    status = EXIT_OK

    if figure_id == "fig1":
        coupling = float(overrides.get("coupling", 1e-3))
        omega_x = float(overrides.get("omega_x", 250.0))
        emitter = EmitterSpec(1.0)
        t_min = float(overrides.get("t_min", 1e-4))
        t_max = float(overrides.get("t_max", 1e5))
        grid = TimeGridSpec(t_min, t_max, ppd).times()
        cfg = QuadratureConfig(
            rel_tol=float(overrides.get("rel_tol", 1e-8)),
            tail_epsilon=float(overrides.get("tail_epsilon", 1e-12)),
        )
        vertical = []
        for eta in overrides.get("etas", _FIG1_ETAS):
            model = BroadbandReservoir(coupling=coupling, eta=eta, omega_x=omega_x)
            curve = rate_curve(model, emitter, grid, cfg)
            if bool(np.any(curve.flagged)):
                status = EXIT_PARTIAL
            name = os.path.join(outdir, f"fig1_eta_{eta:g}.csv")
            write_curve_csv(name, curve, model.scale_frequency(emitter))
            t_f = onset_time_broadband(model, emitter)
            vertical.append({"eta": eta, "t_f": t_f})
        markers = {
            "horizontal_lines": [{"gamma_ratio": 2.0, "applies_to": "eta>1"}],
            "vertical_lines": vertical,
        }
    elif figure_id in ("fig2", "fig3"):
        omega_c = _NARROW_OMEGA_C
        kt = TimeGridSpec(*_NARROW_KT, ppd).times()

        def narrow(q):
            return NarrowbandReservoir(
                g=_NARROW_G, kappa=omega_c / (2.0 * q), omega_c=omega_c
            )

        # (file name, model, emitter, extra columns) per closed-form curve
        if figure_id == "fig2":
            sweep = []
            vertical = []
            for q in _FIG2_QS:
                model = narrow(q)
                sweep.append((f"fig2_q_{q:g}.csv", model, EmitterSpec(omega_c), None))
                vertical.append({"q": q, "t_f": onset_time_narrowband(model)})
            markers = {
                "horizontal_lines": [{"gamma_ratio": 1.0 / math.e}],
                "vertical_lines": vertical,
            }
        else:
            model = narrow(_FIG3_Q)
            sweep = [
                (
                    f"fig3_detuning_{d:g}.csv",
                    model,
                    EmitterSpec(omega_c + d * model.kappa),
                    [("delta_over_kappa", d)],
                )
                for d in _FIG3_DETUNINGS
            ]
            markers = {"horizontal_lines": [], "vertical_lines": []}
        for name, model, emitter, extra in sweep:
            times = kt / model.kappa
            ratios = np.array(
                [narrowband_rate_detuned(model, emitter, float(t)) for t in times]
            )
            curve = curve_from_ratios(model, emitter, times, ratios, np.zeros_like(times))
            write_curve_csv(
                os.path.join(outdir, name), curve, model.scale_frequency(emitter), extra
            )
    else:
        raise ConfigError("figure_id", f"unknown figure {figure_id!r}")
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
    """Run the oracle-equivalence and regime-consistency checks."""
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
    p_fig.add_argument("figure_id", choices=("fig1", "fig2", "fig3"))
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
