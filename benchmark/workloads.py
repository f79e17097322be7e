"""The three benchmark workloads: inputs made from the seed, one timed pass
over a fixed operation set, and the check of every output.

The seed's only effect on the curve workloads is to move every time grid
by a quarter, a half or three quarters of one grid step in log t;
``refs/`` holds the reference curves for each of these offsets, so every
seed is checked. Which late points miss their own error estimates depends
on the grid, so ``success_frac`` is fixed for a seed but differs between
offsets (on narrowband_onset by about 1 %).

On ``verify_hard`` the points are fixed parameter points in a fixed
order, and the seed changes nothing: in a shuffled order, a small point's
latency depended on how much memory the point before it had just
released, and that moved p50 by up to 20 % between seeds.
"""

from __future__ import annotations

import collections
import csv
import json
import os
import shutil
import tempfile
import time
import warnings
from dataclasses import dataclass, field

import fgr
from fgr import cli, quadrature

POINTS_PER_DECADE = 16
GRID_OFFSETS = (1, 2, 3)
STEP = 10.0 ** (1.0 / POINTS_PER_DECADE)
REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

# The paper's Fig. 1, with the parameters `fgr figure fig1` uses.
FIG1_ETAS = (0.5, 1.0, 1.5, 2.0, 3.0)
FIG1_COUPLING = 1e-3
FIG1_OMEGA_X = 250.0
FIG1_RANGE = (1e-4, 1e5)  # omega0 * t

# (Q, detuning / kappa): the resonant Q sweep and the detuned Q = 10 sweep
# of the paper's Figs. 2 and 3, integrated numerically through `fgr onset`.
NARROW_CURVES = (
    (1.0, 0.0), (10.0, 0.0), (100.0, 0.0), (1000.0, 0.0),
    (10.0, 0.4), (10.0, 1.0), (10.0, 2.0), (10.0, 5.0),
)
NARROW_RANGE = (1e-3, 1e3)  # kappa * t
NARROW_OMEGA_C = 1.0
NARROW_G = 1e-3

CURVE_REL_TOL = 1e-8  # the default of `fgr figure` and `fgr onset`
TAIL_EPSILON = 1e-12
VERIFY_REL_TOL = 1e-10


def grid_offset(seed):
    """Grid offset of a seed, in quarters of a grid step: 1, 2 or 3.

    The paper's own grid (offset 0) is left out. On it the adaptive loop
    never runs, while every other offset has one late eta = 0.5 fig1 point
    that widens its zero-aligned block to ~105k panels, which moves peak
    memory from 128 to 198 MB; leaving it out keeps every seed on the same
    code paths.
    """
    return 1 + seed % 3


def _shift(offset):
    return STEP ** (offset / 4)


def fig1_overrides(offset):
    """Overrides for ``cmd_figure("fig1", ...)`` on the shifted grid."""
    s = _shift(offset)
    return {
        "etas": list(FIG1_ETAS),
        "coupling": FIG1_COUPLING,
        "omega_x": FIG1_OMEGA_X,
        "t_min": FIG1_RANGE[0] * s,
        "t_max": FIG1_RANGE[1] * s,
        "points_per_decade": POINTS_PER_DECADE,
        "rel_tol": CURVE_REL_TOL,
        "tail_epsilon": TAIL_EPSILON,
    }


def narrow_config(q, detuning, offset, report_path):
    """`fgr onset` config for one narrowband curve on the shifted grid."""
    kappa = NARROW_OMEGA_C / (2.0 * q)
    s = _shift(offset)
    return {
        "schema_version": 1,
        "unit": "omega0",
        "model": {"type": "narrowband", "g": NARROW_G, "kappa": kappa,
                  "omega_c": NARROW_OMEGA_C},
        "emitter": {"omega0": NARROW_OMEGA_C + detuning * kappa},
        "time_grid": {"t_min": NARROW_RANGE[0] / kappa * s,
                      "t_max": NARROW_RANGE[1] / kappa * s,
                      "points_per_decade": POINTS_PER_DECADE},
        "quadrature": {"rel_tol": CURVE_REL_TOL, "tail_epsilon": TAIL_EPSILON},
        "output": {"path": report_path, "format": "json"},
    }


def verify_points():
    """(label, model, emitter, t): the 20 `fgr verify` oracle points plus
    CLI-accepted points that suite leaves out."""
    pts = []
    em = fgr.EmitterSpec(1.0)
    for eta in (0.5, 1.0, 2.0, 3.0):
        model = fgr.BroadbandReservoir(coupling=1e-3, eta=eta, omega_x=250.0)
        for t in (4e-6, 0.1, 10.0):
            pts.append((f"broadband eta={eta:g} w0t={t:g}", model, em, t))
    narrow = [(10.0, 1e-3, 0.0), (10.0, 1.0, 0.0), (10.0, 100.0, 0.0),
              (10.0, 1.0, 2.0), (10.0, 1.0, 5.0), (1000.0, 1e-3, 0.0),
              (1000.0, 1.0, 0.0), (1.0, 1.0, 0.0),
              (1000.0, 10.0, 0.0), (1000.0, 1000.0, 0.0)]
    for q, kt, d in narrow:
        model = fgr.NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=2.0 * q)
        pts.append((f"narrowband Q={q:g} kt={kt:g} d/k={d:g}", model,
                    fgr.EmitterSpec(2.0 * q + d), kt))
    with warnings.catch_warnings():
        # mu < 4 is accepted with a warning; these points are meant to be hard
        warnings.simplefilter("ignore")
        heavy = [(4.0, 1.0, t) for t in (0.1, 10.0, 100.0)]
        heavy += [(4.0, 2.0, t) for t in (0.1, 10.0, 100.0)]
        heavy += [(1.6, 2.0, 10.0)]
        for mu, eta, t in heavy:
            model = fgr.BroadbandReservoir(
                coupling=1e-3, eta=eta, omega_x=250.0,
                cutoff=fgr.PowerLorentzCutoff(mu=mu))
            pts.append((f"power-Lorentz mu={mu:g} eta={eta:g} w0t={t:g}",
                        model, em, t))
    return pts


def load_refs(workload, offset):
    """Reference curves of one workload and grid offset (see make_refs.py)."""
    with open(os.path.join(REFS_DIR, f"{workload}-offset{offset}.json"),
              encoding="utf-8") as fh:
        doc = json.load(fh)
    # where each reference value comes from: the main integrator confirmed
    # by the oracle, or an independent mpmath evaluation where it was not
    doc["sources"] = dict(collections.Counter(
        src for curve in doc["curves"] for src in curve["source"]))
    for curve in doc["curves"]:
        curve["points"] = [
            {"t": t, "value": v, "error": e}
            for t, v, e in zip(curve["t"], curve["value"], curve["error"])
        ]
    return doc


@dataclass
class Outcome:
    """One attempted operation. ``wrong`` marks an output the program
    reported as converged that misses its check by more than both error
    estimates and the requested tolerance (see ``_judge``); any wrong
    output makes the run report ``correct: false``."""

    name: str
    ok: bool
    wrong: bool = False
    reason: str = ""


@dataclass
class PassResult:
    wall: float
    outcomes: list = field(default_factory=list)


def _judge(name, value, check, error_sum, rel_tol):
    """Compare an output with its check value. Beyond ``error_sum`` the
    operation fails. Beyond it by more than the requested ``rel_tol`` of the
    value as well, the output also counts as wrong: it misses the accuracy
    the caller asked for, not only its own error estimate."""
    diff = abs(value - check)
    if diff <= error_sum:
        return Outcome(name, True)
    wrong = diff > error_sum + rel_tol * abs(check)
    # the ratio tells a round-off flip (just above 1) from a real miss
    return Outcome(name, False, wrong,
                   f"differs by {diff:.3e}, error sum {error_sum:.3e}, "
                   f"ratio {diff / error_sum:.3g}")


def _point_outcome(name, rec, ref, rel_tol):
    """Check one probed curve point against its reference."""
    if rec is None:
        return Outcome(name, False, reason="not computed")
    if rec.main_status != "ok":
        return Outcome(name, False, reason=rec.main_status)
    if abs(rec.t - ref["t"]) > 1e-12 * ref["t"]:
        return Outcome(name, False, True, f"t {rec.t!r} != ref {ref['t']!r}")
    return _judge(name, rec.main.value, ref["value"],
                  rec.main.error_estimate + ref["error"], rel_tol)


class Fig1Broadband:
    """`fgr figure fig1`: 5 exponential-cutoff curves, 725 points, CSVs."""

    name = "fig1_broadband"
    probe_points = True  # record each point rate_curve computes

    def __init__(self, seed, workdir):
        offset = grid_offset(seed)
        self.workdir = workdir
        self.overrides = fig1_overrides(offset)
        self.refs = load_refs(self.name, offset)
        self.n_points = sum(len(c["points"]) for c in self.refs["curves"])

    def warmup(self):
        # The heaviest point (eta = 0.5, index 142: ~105k panels on every
        # offset) takes the allocator to its high-water mark. After a
        # lighter warm-up the first pass ran 6-8 % slower than the second.
        model = fgr.BroadbandReservoir(FIG1_COUPLING, FIG1_ETAS[0], FIG1_OMEGA_X)
        cfg = fgr.QuadratureConfig(rel_tol=self.overrides["rel_tol"],
                                   tail_epsilon=self.overrides["tail_epsilon"])
        fgr.decay_rate_numeric(model, fgr.EmitterSpec(1.0),
                               self.refs["curves"][0]["t"][142], cfg)

    def run_pass(self, rec):
        outdir = tempfile.mkdtemp(dir=self.workdir)
        try:
            t0 = time.perf_counter()
            try:
                cli.cmd_figure("fig1", outdir, dict(self.overrides))
                error = ""
            except Exception as exc:  # a crash fails every point not written
                error = f"{type(exc).__name__}: {exc}"
            result = PassResult(time.perf_counter() - t0)
            result.outcomes = self._check(outdir, error)
        finally:
            shutil.rmtree(outdir)
        return result

    def _check(self, outdir, error):
        # the CSVs are the user-visible output: every row is checked
        out = []
        for curve in self.refs["curves"]:
            eta = curve["eta"]
            rows = []
            path = os.path.join(outdir, f"fig1_eta_{eta:g}.csv")
            if os.path.exists(path):
                with open(path, encoding="utf-8", newline="") as fh:
                    rows = list(csv.DictReader(fh))
            gamma0 = curve["gamma0"]
            for i, ref in enumerate(curve["points"]):
                name = f"eta={eta:g} i={i}"
                if i >= len(rows):
                    out.append(Outcome(name, False, reason=error or "row missing"))
                    continue
                row = rows[i]
                t = float(row["t"])
                if row["flagged"] != "false":
                    out.append(Outcome(name, False, reason="flagged"))
                elif abs(t - ref["t"]) > 1e-12 * ref["t"]:
                    out.append(Outcome(name, False, True, f"t {t!r} != ref"))
                else:
                    out.append(_judge(
                        name, float(row["gamma_ratio"]), ref["value"] / gamma0,
                        float(row["abs_err_est"]) + ref["error"] / gamma0,
                        CURVE_REL_TOL))
        return out


class NarrowbandOnset:
    """`fgr onset` on 8 Lorentzian configs: 776 points and 8 onset reports."""

    name = "narrowband_onset"
    probe_points = True

    def __init__(self, seed, workdir):
        offset = grid_offset(seed)
        self.refs = load_refs(self.name, offset)
        self.n_points = sum(len(c["points"]) for c in self.refs["curves"])
        self.jobs = []  # (config path, report path)
        for i, (q, d) in enumerate(NARROW_CURVES):
            report = os.path.join(workdir, f"onset-{i}.json")
            path = os.path.join(workdir, f"config-{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(narrow_config(q, d, offset, report), fh)
            self.jobs.append((path, report))

    def warmup(self):
        config = cli.load_config(self.jobs[3][0])  # Q = 1000, the heaviest
        fgr.decay_rate_numeric(config.model, config.emitter,
                               float(config.time_grid.times()[-1]),
                               config.quadrature)

    def run_pass(self, rec):
        codes = []
        t0 = time.perf_counter()
        for path, _ in self.jobs:
            rec.next_curve()
            try:
                codes.append(cli.cmd_onset(cli.load_config(path)))
            except Exception as exc:
                codes.append(f"{type(exc).__name__}: {exc}")
        result = PassResult(time.perf_counter() - t0)
        for i, ((_, report), code) in enumerate(zip(self.jobs, codes)):
            result.outcomes.extend(self._check_curve(i, rec, report, code))
            if os.path.exists(report):
                os.remove(report)
        return result

    def _check_curve(self, i, rec, report, code):
        curve = self.refs["curves"][i]
        label = f"Q={curve['q']:g} d/k={curve['detuning']:g}"
        points = rec.curve_points(i)
        out = [
            _point_outcome(f"{label} i={j}",
                           points[j] if j < len(points) else None, ref,
                           CURVE_REL_TOL)
            for j, ref in enumerate(curve["points"])
        ]
        name = f"{label} onset"
        if code != cli.EXIT_OK:
            out.append(Outcome(name, False, reason=f"exit {code}"))
            return out
        with open(report, encoding="utf-8") as fh:
            payload = json.load(fh)
        t_emp, t_ref = payload["t_f_empirical"], curve["onset"]
        if not payload["converged"]:
            out.append(Outcome(name, False, reason="report not converged"))
        elif not t_ref / STEP * (1 - 1e-9) <= t_emp <= t_ref * STEP * (1 + 1e-9):
            out.append(Outcome(name, False, True,
                               f"onset {t_emp!r} vs reference {t_ref!r}"))
        else:
            out.append(Outcome(name, True))
        return out


class VerifyHard:
    """Main integrator and tanh-sinh oracle on every point, at rel_tol 1e-10."""

    name = "verify_hard"
    probe_points = False  # the pass times each main-plus-oracle pair itself

    def __init__(self, seed, workdir):
        self.points = verify_points()  # fixed: there is no grid to move
        self.cfg = fgr.QuadratureConfig(rel_tol=VERIFY_REL_TOL)
        self.n_points = len(self.points)

    def warmup(self):
        model = fgr.BroadbandReservoir(coupling=1e-3, eta=2.0, omega_x=250.0)
        em = fgr.EmitterSpec(1.0)
        fgr.decay_rate_numeric(model, em, 10.0, self.cfg)
        fgr.decay_rate_numeric_oracle(model, em, 10.0, self.cfg)

    def run_pass(self, rec):
        t0 = time.perf_counter()
        for label, model, em, t in self.points:
            with rec.point(t) as p:
                # module attributes, so that traced runs see both calls
                p.main_status, p.main = _call(quadrature.decay_rate_numeric,
                                              model, em, t, self.cfg)
                p.oracle_status, p.oracle = _call(
                    quadrature.decay_rate_numeric_oracle, model, em, t, self.cfg)
        result = PassResult(time.perf_counter() - t0)
        for (label, *_), p in zip(self.points, rec.points):
            result.outcomes.append(self._check(label, p))
        return result

    @staticmethod
    def _check(label, p):
        if p.main_status != "ok" or p.oracle_status != "ok":
            return Outcome(label, False,
                           reason=f"main {p.main_status}, oracle {p.oracle_status}")
        return _judge(label, p.main.value, p.oracle.value,
                      p.main.error_estimate + p.oracle.error_estimate,
                      VERIFY_REL_TOL)


def _call(fn, *args):
    """Run one integrator; return (status, IntegrationResult or best result)."""
    try:
        return "ok", fn(*args)
    except fgr.ConvergenceError as exc:
        return "not converged", exc.result
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}", None


WORKLOADS = {w.name: w for w in (Fig1Broadband, NarrowbandOnset, VerifyHard)}
