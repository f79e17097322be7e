"""CLI behaviour: config handling, CSV schema, exit codes, figures, verify."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from fgr import cli
from fgr.cli import (
    CSV_COLUMNS,
    EXIT_CONFIG,
    EXIT_NO_ONSET,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_VERIFY,
    ConfigError,
    RunConfig,
    cmd_figure,
    cmd_onset,
    cmd_rate,
    cmd_verify,
    load_config,
    main,
)
from fgr.analytic import narrowband_rate_detuned
from fgr.errors import ConvergenceError
from fgr.quadrature import QuadratureConfig, decay_rate_numeric, decay_rate_numeric_oracle
from fgr.reservoir import EmitterSpec, NarrowbandReservoir, golden_rule_rate, to_json

NARROW_CONFIG = {
    "schema_version": 1,
    "unit": "omega0",
    "model": {"type": "narrowband", "g": 1.0, "kappa": 1.0, "omega_c": 20.0},
    "emitter": {"omega0": 20.0},
    "time_grid": {"t_min": 0.5, "t_max": 2.0, "points_per_decade": 4},
}

BROAD_CONFIG = {
    "schema_version": 1,
    "unit": "omega0",
    "model": {
        "type": "broadband",
        "coupling": 1e-3,
        "eta": 2.0,
        "omega_x": 250.0,
        "cutoff": {"kind": "exponential"},
    },
    "emitter": {"omega0": 1.0},
    "time_grid": {"t_min": 0.1, "t_max": 10.0, "points_per_decade": 2},
}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


POWER_LORENTZ_MODEL = dict(BROAD_CONFIG["model"], cutoff={"kind": "power_lorentz", "mu": 4.0})


class TestConfigParsing:
    @pytest.mark.parametrize(
        "extra",
        [
            {},
            {"output": {"path": "out.csv", "format": "csv"}, "onset_epsilon": 0.75},
            {"output": {"path": "out.csv"}},
            {"output": None, "onset_epsilon": None},
        ],
        ids=["bare", "output-epsilon", "output-no-format", "nulls"],
    )
    @pytest.mark.parametrize(
        "config",
        [BROAD_CONFIG, dict(BROAD_CONFIG, model=POWER_LORENTZ_MODEL), NARROW_CONFIG],
        ids=["exponential", "power_lorentz", "narrowband"],
    )
    def test_round_trip_is_identical(self, config, extra):
        cfg = RunConfig.from_json_dict({**config, **extra})
        encoded = json.loads(json.dumps(to_json(cfg)))
        again = RunConfig.from_json_dict(encoded)
        assert cfg == again and to_json(again) == encoded

    def test_missing_field_diagnostic(self):
        broken = dict(NARROW_CONFIG)
        broken["model"] = {"type": "narrowband", "g": 1.0, "kappa": 1.0}
        with pytest.raises(ConfigError) as excinfo:
            RunConfig.from_json_dict(broken)
        assert "model.omega_c" in str(excinfo.value)
        # the cutoff has a library default but is required in a config
        broken = json.loads(json.dumps(BROAD_CONFIG))
        del broken["model"]["cutoff"]
        with pytest.raises(ConfigError) as excinfo:
            RunConfig.from_json_dict(broken)
        assert "model.cutoff" in str(excinfo.value)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema_version": 1,\n  "unit": }', encoding="utf-8")
        with pytest.raises(ConfigError) as excinfo:
            load_config(str(path))
        assert ":2:" in str(excinfo.value)

    def test_unknown_model_type(self):
        broken = dict(NARROW_CONFIG)
        broken["model"] = {"type": "squareband"}
        with pytest.raises(ConfigError):
            RunConfig.from_json_dict(broken)

    def test_non_finite_number_rejected(self, tmp_path):
        # JSON 1e999 parses to inf
        text = json.dumps(NARROW_CONFIG).replace('"kappa": 1.0', '"kappa": 1e999')
        path = tmp_path / "inf.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="kappa must be finite"):
            load_config(str(path))
        assert main(["rate", "-c", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "section, key, value, field",
        [
            ("quadrature", "nodes_per_panel", 16, "config.quadrature"),
            ("quadrature", "abs_tol", 0.0, "config.quadrature"),
            ("quadrature", "rel_tol", "1e999", "config.quadrature.rel_tol"),
            ("quadrature", "rel_tol", '"1e-8"', "config.quadrature.rel_tol"),
            ("quadrature", "max_panels", 64, "config.quadrature"),
            ("time_grid", "points_per_decade", 1.5, "config.time_grid.points_per_decade"),
            ("time_grid", "t_mid", 1.0, "config.time_grid"),
            (None, "onset_epsilon", "true", "config.onset_epsilon"),
            (None, "onset_epsilon", '"0.5"', "config.onset_epsilon"),
            (None, "onset_epsilon", "1e999", "config.onset_epsilon"),
            (None, "quadrture", "{}", "config"),
            (None, "schema_version", "true", "config.schema_version"),
            (None, "schema_version", "1.0", "config.schema_version"),
            (None, "schema_version", "2", "config.schema_version"),
            (None, "unit", '"furlong"', "config.unit"),
        ],
        ids=[
            "nodes_per_panel-unknown", "abs_tol-unknown", "rel_tol-inf", "rel_tol-string", "max_panels-unknown",
            "points_per_decade-float",
            "time_grid-unknown", "onset_epsilon-bool", "onset_epsilon-string",
            "onset_epsilon-inf", "top_level-unknown", "schema_version-bool",
            "schema_version-float", "schema_version-2", "unit-unknown",
        ],
    )
    def test_bad_field_names_its_path(self, tmp_path, section, key, value, field):
        # value is JSON text, so 1e999 reaches the parser as written
        data = json.loads(json.dumps(NARROW_CONFIG))
        out = tmp_path / "curve.csv"
        data["output"] = {"path": str(out)}
        data.setdefault("quadrature", {})
        (data[section] if section else data)[key] = "@"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data).replace('"@"', str(value)), encoding="utf-8")
        with pytest.raises(ConfigError) as excinfo:
            load_config(str(path))
        assert excinfo.value.path == field
        assert main(["rate", "-c", str(path)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("eta", [170.0, 200.0])
    def test_overflowing_exponent_names_eta(self, tmp_path, eta):
        data = json.loads(json.dumps(BROAD_CONFIG))
        data["model"]["eta"] = eta
        out = tmp_path / "curve.csv"
        data["output"] = {"path": str(out)}
        with pytest.raises(ConfigError) as excinfo:
            RunConfig.from_json_dict(data)
        assert excinfo.value.path == "config.model.eta"
        assert main(["rate", "-c", write_config(tmp_path, data)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("command", ["rate", "onset"])
    def test_overflowing_rate_names_eta(self, tmp_path, capsys, command):
        # eta = 150 is accepted, but (omega_x/omega0)**(eta-1) overflows and
        # the golden-rule rate underflows to 0: an error, not a traceback
        data = json.loads(json.dumps(BROAD_CONFIG))
        data["model"]["eta"] = 150.0
        out = tmp_path / "out"
        data["output"] = {"path": str(out)}
        assert main([command, "-c", write_config(tmp_path, data)]) == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "eta=150.0" in err

    def test_invalid_values_rejected(self):
        broken = json.loads(json.dumps(NARROW_CONFIG))
        broken["model"]["kappa"] = -1.0
        with pytest.raises(ConfigError):
            RunConfig.from_json_dict(broken)


class TestCmdRate:
    def test_row_count_and_header(self, tmp_path):
        data = dict(NARROW_CONFIG)
        out = tmp_path / "curve.csv"
        data["output"] = {"path": str(out), "format": "csv"}
        code = cmd_rate(RunConfig.from_json_dict(data))
        assert code == EXIT_OK
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == CSV_COLUMNS
        # 0.5 to 2.0 at 4 points/decade: round(log10(4)*4)+1 = 3 rows
        assert len(rows) == 1 + 3

    def test_tail_epsilon_key_is_ignored(self, tmp_path):
        # an old config's tail_epsilon loads with a FutureWarning and
        # changes no byte of the curve
        outs = []
        for quadrature in ({}, {"tail_epsilon": 1e-15}):
            data = json.loads(json.dumps(NARROW_CONFIG))
            data["quadrature"] = quadrature
            out = tmp_path / f"curve{len(outs)}.csv"
            data["output"] = {"path": str(out)}
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(["rate", "-c", write_config(tmp_path, data)]) == EXIT_OK
            assert [w.category for w in caught] == [FutureWarning] * len(quadrature)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_line_from_tiny_times(self, tmp_path):
        # the line's cut stays finite from t_min = 1e-160, where it once
        # divided by a product that had underflowed to 0
        data = {
            "schema_version": 1,
            "unit": "omega0",
            "model": {"type": "narrowband", "g": 1e-3, "kappa": 0.05, "omega_c": 1.0},
            "emitter": {"omega0": 1.0},
            "time_grid": {"t_min": 1e-160, "t_max": 1e-150, "points_per_decade": 1},
            "output": {"path": str(tmp_path / "curve.csv")},
        }
        assert main(["rate", "-c", write_config(tmp_path, data)]) == EXIT_OK

    def test_dimensionless_column_monotone(self, tmp_path):
        data = dict(BROAD_CONFIG)
        out = tmp_path / "curve.csv"
        data["output"] = {"path": str(out), "format": "csv"}
        cmd_rate(RunConfig.from_json_dict(data))
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        xs = [float(r["t_dimensionless"]) for r in rows]
        assert all(a < b for a, b in zip(xs, xs[1:]))

    def test_byte_identical_reruns(self, tmp_path):
        data = dict(NARROW_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        d1 = dict(data, output={"path": str(out1), "format": "csv"})
        d2 = dict(data, output={"path": str(out2), "format": "csv"})
        cmd_rate(RunConfig.from_json_dict(d1))
        cmd_rate(RunConfig.from_json_dict(d2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_round_trip_floats_in_csv(self, tmp_path):
        data = dict(NARROW_CONFIG)
        out = tmp_path / "curve.csv"
        data["output"] = {"path": str(out), "format": "csv"}
        cmd_rate(RunConfig.from_json_dict(data))
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            assert float(row["gamma_ratio"]) == float(row["gamma_ratio"])
            assert row["flagged"] == "false"

    def test_json_format_rejected(self, tmp_path):
        data = dict(NARROW_CONFIG)
        out = tmp_path / "curve.json"
        data["output"] = {"path": str(out), "format": "json"}
        with pytest.raises(ConfigError, match="output.format"):
            cmd_rate(RunConfig.from_json_dict(data))
        assert main(["rate", "-c", write_config(tmp_path, data)]) == EXIT_CONFIG
        assert not out.exists()

    def test_partial_convergence_exit_code(self, tmp_path):
        data = json.loads(json.dumps(BROAD_CONFIG))
        data["quadrature"] = {"rel_tol": 1e-16}
        out = tmp_path / "curve.csv"
        data["output"] = {"path": str(out), "format": "csv"}
        code = cmd_rate(RunConfig.from_json_dict(data))
        assert code == EXIT_PARTIAL
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["flagged"] == "true" for r in rows)
        assert all(float(r["gamma_ratio"]) > 0.0 for r in rows)

    @pytest.mark.parametrize("eta, code", [(2.19, EXIT_OK), (4.19, EXIT_PARTIAL)])
    def test_heavy_tail_near_an_edge(self, tmp_path, eta, code):
        # eta just below 2*mu - 1, where the RSC mass diverges: the cut goes
        # out until the tail fits the tolerance, and every row converges.
        # Just below 2*mu + 1, where the rate itself diverges, the tail is
        # still heavy 40 decades out, so every row is written and flagged
        data = json.loads(json.dumps(BROAD_CONFIG))
        data["model"].update(eta=eta, cutoff={"kind": "power_lorentz", "mu": 1.6})
        out = tmp_path / "curve.csv"
        data["output"] = {"path": str(out), "format": "csv"}
        with pytest.warns(UserWarning):
            assert main(["rate", "-c", write_config(tmp_path, data)]) == code
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        flagged = "false" if code == EXIT_OK else "true"
        assert len(rows) == 5 and all(r["flagged"] == flagged for r in rows)


class TestCmdOnset:
    def test_narrowband_report(self, tmp_path):
        data = {
            "schema_version": 1,
            "unit": "rad_per_s",
            "model": {
                "type": "narrowband",
                "g": 1e12,
                "kappa": 1.75e13,
                "omega_c": 3.5e14,
            },
            "emitter": {"omega0": 3.5e14},
            "time_grid": {"t_min": 1e-16, "t_max": 1e-11, "points_per_decade": 12},
            "output": {"path": str(tmp_path / "report.json"), "format": "json"},
        }
        code = cmd_onset(RunConfig.from_json_dict(data))
        assert code == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["t_f_analytic"] == pytest.approx(5.71e-14, rel=2e-3)
        assert report["converged"] is True
        assert 0.5 < report["agreement_factor"] < 2.0

    def test_csv_format_rejected(self, tmp_path):
        data = dict(NARROW_CONFIG)
        out = tmp_path / "report.csv"
        data["output"] = {"path": str(out), "format": "csv"}
        with pytest.raises(ConfigError, match="output.format"):
            cmd_onset(RunConfig.from_json_dict(data))
        assert main(["onset", "-c", write_config(tmp_path, data)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("raw", ["inf", "nan"])
    def test_non_finite_epsilon_exit_code(self, tmp_path, monkeypatch, capsys, raw):
        def no_points(*args, **kwargs):
            raise AssertionError("a point was computed")

        monkeypatch.setattr(cli, "rate_curve", no_points)
        data = json.loads(json.dumps(NARROW_CONFIG))
        out = tmp_path / "report.json"
        data["output"] = {"path": str(out), "format": "json"}
        path = write_config(tmp_path, data)
        assert main(["onset", "-c", path, "--epsilon", raw]) == EXIT_CONFIG
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == "" and "epsilon" in captured.err

    def test_omitted_format_writes_json(self, tmp_path):
        data = json.loads(json.dumps(NARROW_CONFIG))
        data["time_grid"] = {"t_min": 1e-2, "t_max": 1e3, "points_per_decade": 8}
        data["output"] = {"path": str(tmp_path / "report.json")}
        assert cmd_onset(RunConfig.from_json_dict(data)) == EXIT_OK
        assert json.loads((tmp_path / "report.json").read_text())["converged"] is True

    def test_onset_not_found_exit_code(self):
        data = json.loads(json.dumps(NARROW_CONFIG))
        data["time_grid"] = {"t_min": 1e-3, "t_max": 1.0, "points_per_decade": 4}
        data["onset_epsilon"] = 1e-3
        stream = io.StringIO()
        code = cmd_onset(RunConfig.from_json_dict(data), stream=stream)
        assert code == EXIT_NO_ONSET
        report = json.loads(stream.getvalue())
        assert report["t_f_empirical"] is None

    def test_flagged_suffix_reports_no_onset(self, tmp_path, capsys):
        # rel_tol 1e-16 lies below the 5e-16 rounding floor of every
        # estimate, so all 6 points are flagged, and the suffix that
        # qualifies at epsilon 10 is too: no onset and exit 2
        data = json.loads(json.dumps(BROAD_CONFIG))
        data["model"]["cutoff"] = {"kind": "power_lorentz", "mu": 1.6}
        data["time_grid"] = {"t_min": 5.0, "t_max": 1000.0, "points_per_decade": 2}
        data["quadrature"] = {"rel_tol": 1e-16}
        data["onset_epsilon"] = 10.0
        out = tmp_path / "report.json"
        data["output"] = {"path": str(out), "format": "json"}
        with pytest.warns(UserWarning):
            code = main(["onset", "-c", write_config(tmp_path, data)])
        assert code == EXIT_PARTIAL
        report = json.loads(out.read_text())
        assert report["t_f_empirical"] is None and report["converged"] is False
        assert report["agreement_factor"] is None
        err = capsys.readouterr().err
        # the first point lies outside the band, the other 5 form the suffix
        assert err.startswith(
            "error: 5 of the 5 points of the qualifying suffix from t = 14.42"
        )
        assert "Traceback" not in err

    def test_epsilon_override(self):
        data = json.loads(json.dumps(NARROW_CONFIG))
        data["time_grid"] = {"t_min": 1e-2, "t_max": 1e3, "points_per_decade": 8}
        stream = io.StringIO()
        code = cmd_onset(RunConfig.from_json_dict(data), epsilon=0.9, stream=stream)
        assert code == EXIT_OK
        report = json.loads(stream.getvalue())
        assert report["epsilon"] == 0.9

    def test_broadband_analytic_times(self):
        for eta, expected in ((0.5, 1.0), (3.0, 9947.183943243459)):
            data = json.loads(json.dumps(BROAD_CONFIG))
            data["model"]["eta"] = eta
            data["time_grid"] = {"t_min": 1.0, "t_max": 100.0, "points_per_decade": 2}
            stream = io.StringIO()
            cmd_onset(RunConfig.from_json_dict(data), stream=stream)
            report = json.loads(stream.getvalue())
            assert report["t_f_analytic"] == pytest.approx(expected, rel=1e-12)


def assert_row_rule(model, emitter, t, ratio, err):
    """A line's numerical rate against its whole-line closed form.

    The model's spectrum lives on omega >= 0, so the closed form, which
    integrates the Lorentzian over the whole axis, exceeds the true ratio
    by the line's mass on omega < 0, M- = g^2 (1/2 - atan(omega_c/kappa)/pi),
    seen through the sinc^2 profile: at most t/2pi, and at most
    2/(pi t delta^2) with |delta| >= omega0 there.
    """
    closed = narrowband_rate_detuned(model, emitter, t)
    gamma0 = golden_rule_rate(model, emitter)
    m_minus = model.g**2 * (0.5 - math.atan(model.omega_c / model.kappa) / math.pi)
    slack = err + 4e-16 * closed
    gap = closed - ratio
    assert gap >= -slack, (t, gap, slack)
    bound = min(t, 4.0 / (t * emitter.omega0**2)) * m_minus / gamma0 + slack
    assert gap <= bound, (t, gap, bound)


class TestCmdFigure:
    def test_narrowband_rows_are_integrated(self, tmp_path):
        # every fig2/fig3 row lies below its whole-line closed form by no
        # more than the line's mass on omega < 0 allows, and within the
        # summed estimates of the contour reference at rel_tol 1e-12
        ref_cfg = QuadratureConfig(rel_tol=1e-12)
        q_of = {f"fig2_q_{q:g}.csv": q for q in cli._FIG2_QS}
        q_of.update({f"fig3_detuning_{d:g}.csv": cli._FIG3_Q for d in cli._FIG3_DETUNINGS})
        rows = 0
        for figure_id in ("fig2", "fig3"):
            outdir = tmp_path / figure_id
            assert cmd_figure(figure_id, str(outdir), {"points_per_decade": 4}) == EXIT_OK
            for name in sorted(n for n in os.listdir(outdir) if n.endswith(".csv")):
                kappa = cli._NARROW_OMEGA_C / (2.0 * q_of[name])
                model = NarrowbandReservoir(
                    g=cli._NARROW_G, kappa=kappa, omega_c=cli._NARROW_OMEGA_C
                )
                with open(outdir / name, newline="", encoding="utf-8") as fh:
                    for row in csv.DictReader(fh):
                        d = float(row.get("delta_over_kappa", 0.0))
                        emitter = EmitterSpec(model.omega_c + d * kappa)
                        t, ratio = float(row["t"]), float(row["gamma_ratio"])
                        err = float(row["abs_err_est"])
                        assert row["flagged"] == "false" and err > 0.0
                        assert_row_rule(model, emitter, t, ratio, err)
                        ref = decay_rate_numeric_oracle(model, emitter, t, ref_cfg)
                        gamma0 = golden_rule_rate(model, emitter)
                        gap = abs(ratio - ref.value / gamma0)
                        assert gap <= err + ref.error_estimate / gamma0, (name, t)
                        rows += 1
        assert rows == 225

    def test_far_detuned_closed_form(self):
        # |delta|/kappa = 1e9: the visibility (1 - r^2)/(1 + r^2) rounds to -1.0
        model, emitter = NarrowbandReservoir(1e-3, 1e-9, 1.0), EmitterSpec(2.0)
        res = decay_rate_numeric(model, emitter, 1.0)
        gamma0 = golden_rule_rate(model, emitter)
        assert_row_rule(
            model, emitter, 1.0, res.value / gamma0, res.error_estimate / gamma0
        )

    def test_fig2_outputs(self, tmp_path):
        code = cmd_figure("fig2", str(tmp_path), {"points_per_decade": 4})
        assert code == EXIT_OK
        names = sorted(os.listdir(tmp_path))
        assert names == [
            "fig2_q_1.csv",
            "fig2_q_10.csv",
            "fig2_q_100.csv",
            "fig2_q_1000.csv",
            "markers.json",
        ]
        markers = json.loads((tmp_path / "markers.json").read_text())
        assert markers["horizontal_lines"][0]["gamma_ratio"] == pytest.approx(1.0 / math.e)
        assert len(markers["vertical_lines"]) == 4

    def test_fig1_outputs(self, tmp_path):
        overrides = {
            "points_per_decade": 1,
            "t_min": 0.1,
            "t_max": 10.0,
            "etas": (0.5, 1.0, 1.5, 2.0, 3.0),
        }
        code = cmd_figure("fig1", str(tmp_path), overrides)
        assert code == EXIT_OK
        csvs = [n for n in os.listdir(tmp_path) if n.endswith(".csv")]
        assert len(csvs) == 5
        markers = json.loads((tmp_path / "markers.json").read_text())
        assert len(markers["vertical_lines"]) == 5
        etas = {v["eta"] for v in markers["vertical_lines"]}
        assert etas == {0.5, 1.0, 1.5, 2.0, 3.0}

    def test_fig3_outputs_with_detuning_column(self, tmp_path):
        code = cmd_figure("fig3", str(tmp_path), {"points_per_decade": 4})
        assert code == EXIT_OK
        csvs = sorted(n for n in os.listdir(tmp_path) if n.endswith(".csv"))
        assert len(csvs) == 5
        with open(tmp_path / "fig3_detuning_5.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["delta_over_kappa"]) == 5.0 for r in rows)
        # anti-Zeno enhancement visible in the data
        assert max(float(r["gamma_ratio"]) for r in rows) > 1.5

    def test_unknown_figure(self, tmp_path):
        outdir = tmp_path / "fig9"
        with pytest.raises(ConfigError):
            cmd_figure("fig9", str(outdir))
        assert not outdir.exists()

    def test_bad_grid_makes_no_directory(self, tmp_path):
        outdir = tmp_path / "out"
        argv = ["figure", "fig1", "-o", str(outdir), "--points-per-decade", "0"]
        assert main(argv) == EXIT_CONFIG
        assert not outdir.exists()


class TestCmdVerify:
    def test_reduced_point_set_passes(self):
        stream = io.StringIO()
        code = cmd_verify(stream=stream)
        lines = stream.getvalue().strip().splitlines()
        assert code == EXIT_OK
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1] == "20 oracle points, 0 failures"

    @pytest.mark.parametrize("calls_before_failure", [0, 20])
    def test_non_converged_point_is_a_failure(self, monkeypatch, capsys, calls_before_failure):
        # the 20 oracle points take the first 20 main-integrator calls (the
        # short-time law reuses them), the golden-rule limits the next 3
        real = cli.decay_rate_numeric
        calls = []

        def failing_after(*args):
            calls.append(args)
            if len(calls) > calls_before_failure:
                raise ConvergenceError("forced failure")
            return real(*args)

        monkeypatch.setattr(cli, "decay_rate_numeric", failing_after)
        assert main(["verify"]) == EXIT_VERIFY
        lines = capsys.readouterr().out.splitlines()
        failed = [line for line in lines if line.startswith("FAIL")]
        assert len(calls) == 23
        assert lines[-1] == f"20 oracle points, {len(failed)} failures"
        assert all(line.startswith("FAIL golden-rule limit") for line in failed[-3:])
        if calls_before_failure == 0:
            # every oracle point, the 6 short-time-law points, the 3 limits
            assert len(failed) == 20 + 6 + 3
            assert sum("short-time law" in line for line in failed) == 6
        else:
            assert len(failed) == 3


class TestMain:
    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        assert main(["rate", "-c", str(path)]) == EXIT_CONFIG

    def test_missing_file_exit_code(self):
        assert main(["rate", "-c", "/nonexistent/cfg.json"]) == EXIT_CONFIG

    def test_rate_through_main(self, tmp_path):
        data = dict(NARROW_CONFIG)
        out = tmp_path / "c.csv"
        data["output"] = {"path": str(out), "format": "csv"}
        path = write_config(tmp_path, data)
        assert main(["rate", "-c", path]) == EXIT_OK
        assert out.exists()

    def test_figure_through_main(self, tmp_path):
        out = tmp_path / "figs"
        code = main(["figure", "fig3", "-o", str(out), "--points-per-decade", "2"])
        assert code == EXIT_OK
        assert (out / "markers.json").exists()


def test_import_loads_no_scipy():
    # the runtime depends on numpy alone; scipy is a test-only dependency
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "import sys, fgr, fgr.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
