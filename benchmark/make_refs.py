"""Generate the reference curves in refs/ for the two curve workloads.

Run from the repository root (needs mpmath, from the ``test`` extra):

    python3 benchmark/make_refs.py

It writes one file per curve workload and grid offset; each covers every
seed that maps to that offset.

Each curve point is integrated by ``decay_rate_numeric`` at the workload's
own rel_tol (1e-8) and checked against the tanh-sinh oracle at rel_tol
1e-12. The oracle is capped at level ORACLE_MAX_LEVEL so that late-time
points, which it cannot resolve, cost little. Where the oracle converges,
the reference is the main value and its error the larger of the main
estimate and the oracle's difference (``source`` "oracle"). Where it does
not, the reference is an independent 25-digit mpmath evaluation of the same
rate (``source`` "mpmath", see ``exact_rate``) and its error the rounding of
that value to a float; the main value is then only compared with it, and
the comparison counted in the provenance. ``oracle_rel_diff`` is None where
the oracle did not converge.

BLAS runs on one thread, as in run.py. A rerun reproduces ``t`` and
``value`` exactly; the oracle's last bits, and so some ``error`` and
``oracle_rel_diff`` entries, have varied between processes at the 1e-15
relative level.

The main integrator is not run at rel_tol 1e-12 here. Where it needs
refinement rounds to get there, its results were found wrong by far more
than their estimates, against a 30-digit time-domain integral of the same
rate (fig1, offset 2: eta = 3 at omega0 t = 60.43 off by 4e-10 relative
with a 4e-13 estimate; eta = 1.5 at omega0 t = 220.7 off by 1.2e-8 with
a 9e-14 estimate), while the rel_tol 1e-8 results agreed within theirs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import sys
import time

from run import BLAS_VARS

for _var in BLAS_VARS:
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import mpmath as mp  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import fgr  # noqa: E402
from fgr import cli  # noqa: E402

import workloads as wl  # noqa: E402

ORACLE_REL_TOL = 1e-12
ORACLE_MAX_LEVEL = 16
MP_DIGITS = 25


def _geom(lo, hi, n=40):
    return [lo * (hi / lo) ** (mp.mpf(k) / n) for k in range(n + 1)]


def _exact_broadband(model, omega0, t):
    """Exponential-cutoff rate from its time-domain form
    2 Re int_0^t (1 - s/t) C(s) exp(-i omega0 s) ds, with the reservoir
    correlation C(s) = coupling omega_x^2 Gamma(eta+1) (1 - i omega_x s)^-(eta+1).
    The path 0 -> t is deformed to 0 -> t(1-i) -> t, on which the integrand
    decays instead of oscillating; the triangle between the paths holds no
    singularity (the branch cut of C runs from -i/omega_x down the imaginary
    axis)."""
    lam, wx, w0, t = (mp.mpf(x) for x in (model.coupling, model.omega_x, omega0, t))
    nu = mp.mpf(model.eta) + 1
    pref = lam * wx**2 * mp.gamma(nu)

    def f(s):
        return (1 - s / t) * pref * (1 - 1j * wx * s) ** (-nu) * mp.exp(-1j * w0 * s)

    rot = mp.expjpi(mp.mpf(-1) / 4)
    ray = mp.quad(lambda r: f(r * rot) * rot, [0] + _geom(mp.mpf("1e-9"), t * mp.sqrt(2)))
    side = mp.quad(lambda y: f(t - 1j * y) * -1j, [0] + _geom(mp.mpf("1e-9"), t))
    return 2 * mp.re(ray - side)


def _exact_narrowband(model, omega0, t):
    """Lorentzian rate (2/t) int_0^inf R(w) (1 - cos((w - w0) t)) / (w - w0)^2 dw,
    as the whole-line integral in closed form minus the part over w < 0. In
    that part the cosine term is rotated onto the positive imaginary axis,
    where it decays; no pole lies in the quadrant swept."""
    g, k, wc, w0, t = (mp.mpf(x) for x in (model.g, model.kappa, model.omega_c, omega0, t))
    z = k + 1j * (wc - w0)
    whole = 2 * g**2 / t * mp.re(t / z - (1 - mp.exp(-z * t)) / z**2)

    def rsc(w):
        return (k / mp.pi) * g**2 / ((w - wc) ** 2 + k**2)

    scale = wc + k
    flat = mp.quad(lambda w: rsc(w) / (w - w0) ** 2,
                   [-mp.inf, -100 * scale, -10 * scale, -scale, 0])
    wave = -1j * mp.quad(lambda y: rsc(1j * y) * mp.exp(-y * t) / (1j * y - w0) ** 2,
                         [0] + _geom(min(1 / t, w0) * mp.mpf("1e-6"), 60 / t + 100 * scale, 60))
    return whole - 2 / t * (flat - mp.re(wave * mp.exp(-1j * w0 * t)))


def exact_rate(model, emitter, t):
    """The rate at t to about MP_DIGITS digits, untruncated, by a path that
    shares no code with the program."""
    if isinstance(model, fgr.BroadbandReservoir) and not isinstance(
            model.cutoff, fgr.ExponentialCutoff):
        raise TypeError("exact_rate covers the exponential cutoff only")
    with mp.workdps(MP_DIGITS):
        if isinstance(model, fgr.NarrowbandReservoir):
            return float(_exact_narrowband(model, emitter.omega0, t))
        return float(_exact_broadband(model, emitter.omega0, t))


def _curve_ref(model, emitter, times, cfg, counts):
    oracle_cfg = dataclasses.replace(cfg, rel_tol=ORACLE_REL_TOL)
    out = {"t": [], "value": [], "error": [], "source": [], "oracle_rel_diff": []}
    for t in times:
        t = float(t)
        try:
            res = fgr.decay_rate_numeric(model, emitter, t, cfg)
        except fgr.ConvergenceError as exc:
            res = exc.result
            counts["main_not_converged"] += 1
        try:
            orc = fgr.decay_rate_numeric_oracle(model, emitter, t, oracle_cfg,
                                                max_level=ORACLE_MAX_LEVEL)
        except fgr.ConvergenceError:
            value = exact_rate(model, emitter, t)
            error, rel, source = abs(value) * 2.0**-52, None, "mpmath"
            diff = abs(res.value - value)
            within = diff <= res.error_estimate + error
            counts["mpmath_main_within_estimate" if within
                   else "mpmath_main_beyond_estimate"] += 1
            counts["mpmath_max_rel_diff"] = max(counts["mpmath_max_rel_diff"],
                                                diff / value)
        else:
            diff = abs(orc.value - res.value)
            value, rel, source = res.value, diff / res.value, "oracle"
            error = max(res.error_estimate, diff)
            within = diff <= orc.error_estimate + res.error_estimate
            counts["oracle_within_estimates" if within else "oracle_beyond_estimates"] += 1
            counts["oracle_max_rel_diff"] = max(counts["oracle_max_rel_diff"], rel)
        out["t"].append(t)
        out["value"].append(value)
        out["error"].append(error)
        out["source"].append(source)
        out["oracle_rel_diff"].append(rel)
    return out


def fig1_curves(offset, counts):
    ov = wl.fig1_overrides(offset)
    times = cli.TimeGridSpec(ov["t_min"], ov["t_max"], ov["points_per_decade"]).times()
    cfg = fgr.QuadratureConfig(rel_tol=ov["rel_tol"], tail_epsilon=ov["tail_epsilon"])
    emitter = fgr.EmitterSpec(1.0)
    curves = []
    for eta in ov["etas"]:
        model = fgr.BroadbandReservoir(ov["coupling"], eta, ov["omega_x"])
        curve = {"eta": eta, "gamma0": fgr.golden_rule_rate(model, emitter)}
        curve.update(_curve_ref(model, emitter, times, cfg, counts))
        curves.append(curve)
    return curves


def narrow_curves(offset, counts):
    curves = []
    for q, d in wl.NARROW_CURVES:
        config = cli.RunConfig.from_json_dict(wl.narrow_config(q, d, offset, "unused"))
        cfg = config.quadrature
        times = config.time_grid.times()
        gamma0 = fgr.golden_rule_rate(config.model, config.emitter)
        curve = {"q": q, "detuning": d, "gamma0": gamma0}
        curve.update(_curve_ref(config.model, config.emitter, times, cfg, counts))
        ratios = np.array(curve["value"]) / gamma0
        ref_curve = fgr.RateCurve(times=times, ratios=ratios,
                                  error_estimates=np.array(curve["error"]) / gamma0,
                                  regime_labels=("",) * len(times))
        curve["epsilon"] = 1.0 - math.exp(-1.0)  # the `fgr onset` default
        curve["onset"] = fgr.empirical_onset(ref_curve, curve["epsilon"])
        curves.append(curve)
    return curves


CURVE_MAKERS = {"fig1_broadband": fig1_curves, "narrowband_onset": narrow_curves}


def main():
    os.makedirs(wl.REFS_DIR, exist_ok=True)
    for name, make in CURVE_MAKERS.items():
        for offset in wl.GRID_OFFSETS:
            t0 = time.perf_counter()
            counts = {"main_not_converged": 0, "oracle_within_estimates": 0,
                      "oracle_beyond_estimates": 0, "oracle_max_rel_diff": 0.0,
                      "mpmath_main_within_estimate": 0,
                      "mpmath_main_beyond_estimate": 0, "mpmath_max_rel_diff": 0.0}
            curves = make(offset, counts)
            doc = {
                "workload": name,
                "offset": offset,
                "provenance": {
                    "generator": "benchmark/make_refs.py",
                    "integrator": "fgr.decay_rate_numeric",
                    "rel_tol": wl.CURVE_REL_TOL,
                    "oracle": "fgr.decay_rate_numeric_oracle",
                    "oracle_rel_tol": ORACLE_REL_TOL,
                    "oracle_max_level": ORACLE_MAX_LEVEL,
                    "unconverged_oracle_fallback": f"mpmath {MP_DIGITS} digits",
                    "counts": counts,
                    "fgr": fgr.__version__,
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                    "scipy": scipy.__version__,
                    "mpmath": mp.__version__,
                    "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
                    "seconds": round(time.perf_counter() - t0, 1),
                },
                "curves": curves,
            }
            path = os.path.join(wl.REFS_DIR, f"{name}-offset{offset}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
            print(f"{path}: {counts} in {doc['provenance']['seconds']} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
