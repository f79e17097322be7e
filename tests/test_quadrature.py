"""Decay-rate quadrature: limits, invariances, oracle equivalence, budgets."""

import json
import math
import os

import mpmath as mp
import numpy as np
import pytest

from fgr.errors import ConvergenceError
from fgr.quadrature import (
    _PHASE,
    _ZERO_CAP,
    IntegrationResult,
    QuadratureConfig,
    _build_panels,
    _phase_omega,
    _tail_mass,
    decay_rate_numeric,
    decay_rate_numeric_oracle,
    rate_curve,
    truncation_frequency,
)
from fgr.reservoir import (
    BroadbandReservoir,
    EmitterSpec,
    NarrowbandReservoir,
    PowerLorentzCutoff,
    evaluate_rsc,
    golden_rule_rate,
    zeno_slope,
)

EM = EmitterSpec(1.0)
CFG = QuadratureConfig()


def bb(eta, omega_x=250.0, coupling=1e-3, cutoff=None):
    if cutoff is None:
        return BroadbandReservoir(coupling=coupling, eta=eta, omega_x=omega_x)
    return BroadbandReservoir(coupling=coupling, eta=eta, omega_x=omega_x, cutoff=cutoff)


def nb_resonant(q, kappa=1.0, g=1.0):
    omega_c = 2.0 * q * kappa
    return NarrowbandReservoir(g=g, kappa=kappa, omega_c=omega_c), EmitterSpec(omega_c)


class TestConfigValidation:
    def test_defaults_valid(self):
        cfg = QuadratureConfig()
        assert cfg.rel_tol == 1e-8 and cfg.max_panels == 200_000

    def test_rejects_no_tolerance(self):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=0.0)

    def test_rejects_bad_panel_counts(self):
        with pytest.raises(ValueError):
            QuadratureConfig(max_panels=0)

    def test_result_invariants(self):
        with pytest.raises(ValueError):
            IntegrationResult(value=-1.0, error_estimate=0.0, panels_used=1, truncation_frequency=1.0)


class TestZenoLimit:
    @pytest.mark.parametrize("eta", [0.5, 1.0, 2.0])
    def test_broadband_short_time_slope(self, eta):
        r = bb(eta)
        t = 1e-3 / r.omega_x
        res = decay_rate_numeric(r, EM, t, CFG)
        assert abs(res.value / (zeno_slope(r) * t) - 1.0) < 1e-2

    def test_narrowband_short_time_slope(self):
        model, em = nb_resonant(q=10.0)
        t = 1e-3 / model.kappa
        res = decay_rate_numeric(model, em, t, CFG)
        assert abs(res.value / (zeno_slope(model) * t) - 1.0) < 1e-2


class TestGoldenRuleLimit:
    def test_broadband_sub_ohmic_long_time(self):
        r = bb(0.5)
        res = decay_rate_numeric(r, EM, 1e3, CFG)
        assert abs(res.value / golden_rule_rate(r, EM) - 1.0) < 0.02

    def test_narrowband_inverse_e_anchor(self):
        model, em = nb_resonant(q=1000.0)
        res = decay_rate_numeric(model, em, 1.0 / model.kappa, CFG)
        ratio = res.value / golden_rule_rate(model, em)
        assert abs(ratio - math.exp(-1.0)) / math.exp(-1.0) < 5e-3


class TestOracleEquivalence:
    @pytest.mark.parametrize(
        "eta,t",
        [(0.5, 4e-6), (0.5, 10.0), (1.0, 0.1), (2.0, 1.0), (3.0, 10.0)],
    )
    def test_broadband(self, eta, t):
        r = bb(eta)
        a = decay_rate_numeric(r, EM, t, CFG)
        b = decay_rate_numeric_oracle(r, EM, t, CFG)
        assert abs(a.value - b.value) / a.value < 1e-8

    @pytest.mark.parametrize("q,kt,d", [(10.0, 1.0, 0.0), (10.0, 1.0, 5.0), (1000.0, 1e-3, 0.0)])
    def test_narrowband(self, q, kt, d):
        model, em = nb_resonant(q=q)
        em = EmitterSpec(em.omega0 + d * model.kappa)
        a = decay_rate_numeric(model, em, kt / model.kappa, CFG)
        b = decay_rate_numeric_oracle(model, em, kt / model.kappa, CFG)
        assert abs(a.value - b.value) / a.value < 1e-8

    def test_power_lorentz_cutoff(self):
        r = bb(1.5, cutoff=PowerLorentzCutoff(mu=4.0))
        a = decay_rate_numeric(r, EM, 5.0, CFG)
        b = decay_rate_numeric_oracle(r, EM, 5.0, CFG)
        assert abs(a.value - b.value) / a.value < 1e-8


class TestInvariances:
    @pytest.mark.parametrize("t", [1e-3, 1.0, 1e3])
    def test_broadband_coupling_scale(self, t):
        a = decay_rate_numeric(bb(2.0, coupling=1e-3), EM, t, CFG)
        b = decay_rate_numeric(bb(2.0, coupling=1e-2), EM, t, CFG)
        ra = a.value / golden_rule_rate(bb(2.0, coupling=1e-3), EM)
        rb = b.value / golden_rule_rate(bb(2.0, coupling=1e-2), EM)
        assert abs(ra - rb) <= 1e-12 * abs(ra)

    def test_narrowband_coupling_scale(self):
        m1, em = nb_resonant(q=10.0, g=1.0)
        m2, _ = nb_resonant(q=10.0, g=10.0)
        a = decay_rate_numeric(m1, em, 1.0, CFG).value / golden_rule_rate(m1, em)
        b = decay_rate_numeric(m2, em, 1.0, CFG).value / golden_rule_rate(m2, em)
        assert abs(a - b) <= 1e-12 * abs(a)

    @pytest.mark.parametrize(
        "model,em,t",
        [
            (bb(0.5), EM, 0.3),
            (bb(3.0), EM, 20.0),
            (NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=20.0), EmitterSpec(25.0), 2.0),
        ],
    )
    def test_nonnegative(self, model, em, t):
        assert decay_rate_numeric(model, em, t, CFG).value >= 0.0

    # the references are 25-digit mpmath values from
    # benchmark/make_refs.py::exact_rate, which shares no code with the
    # integrators
    EXACT_REFERENCES = pytest.mark.parametrize(
        "model,em,t,reference",
        [
            (bb(2.0), EM, 0.1, 0.020412734391204283),
            (bb(0.5), EM, 30.0, 0.09871843110693507),
            (
                NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=20.0),
                EmitterSpec(20.0),
                1.0,
                0.7357292394136496,
            ),
        ],
        ids=["eta2-w0t0.1", "eta0.5-w0t30", "narrowband-kt1"],
    )

    @EXACT_REFERENCES
    def test_exact_reference_within_error_estimate(self, model, em, t, reference):
        res = decay_rate_numeric(model, em, t, CFG)
        assert abs(res.value - reference) <= res.error_estimate

    @EXACT_REFERENCES
    def test_oracle_exact_reference_within_error_estimate(self, model, em, t, reference):
        res = decay_rate_numeric_oracle(model, em, t, CFG)
        assert abs(res.value - reference) <= res.error_estimate

    # late fig1 points, where rounding the global phase (omega - omega0)*t/2
    # of the sinc kernel would cost about eps*omega0*t; the references are
    # the 25-digit mpmath values of benchmark/refs (grid offset 1)
    LATE_FIG1 = [
        (eta, w0t) for eta in (0.5, 1.0, 2.0, 3.0) for w0t in (3278.1, 18434.2, 43714.4)
    ]

    @pytest.mark.parametrize("eta,w0t", LATE_FIG1)
    def test_late_fig1_within_error_estimate(self, eta, w0t):
        path = os.path.join(
            os.path.dirname(__file__), "..", "benchmark", "refs", "fig1_broadband-offset1.json"
        )
        with open(path) as fh:
            curve = next(c for c in json.load(fh)["curves"] if c["eta"] == eta)
        i = min(range(len(curve["t"])), key=lambda k: abs(curve["t"][k] - w0t))
        assert curve["source"][i] == "mpmath" and abs(curve["t"][i] - w0t) < 0.1
        res = decay_rate_numeric(bb(eta), EM, curve["t"][i], CFG)
        assert abs(res.value - curve["value"][i]) <= res.error_estimate + curve["error"][i]


class TestErrors:
    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            decay_rate_numeric(bb(1.0), EM, 0.0, CFG)
        with pytest.raises(ValueError):
            decay_rate_numeric_oracle(bb(1.0), EM, -1.0, CFG)

    def test_divergent_integral_rejected(self):
        with pytest.warns(UserWarning):
            cutoff = PowerLorentzCutoff(mu=0.6)
        r = bb(2.5, cutoff=cutoff)
        with pytest.raises(ValueError, match="diverges"):
            decay_rate_numeric(r, EM, 1.0, CFG)

    def test_convergence_error_carries_best_result(self):
        cfg = QuadratureConfig(rel_tol=1e-16, max_panels=64)
        with pytest.raises(ConvergenceError) as excinfo:
            decay_rate_numeric(bb(2.0), EM, 1.0, cfg)
        best = excinfo.value.result
        assert isinstance(best, IntegrationResult)
        reference = decay_rate_numeric(bb(2.0), EM, 1.0, CFG).value
        assert best.value == pytest.approx(reference, rel=1e-6)


class TestTruncation:
    def test_exponential_cutoff_formula(self):
        r = bb(1.0)
        w = truncation_frequency(r, EM, 1.0, CFG)
        expected = 250.0 * math.log(1.0 / CFG.tail_epsilon) + 10.0 * 250.0
        assert w == pytest.approx(expected, rel=1e-12)

    def test_power_lorentz_capped(self):
        r = bb(1.0, cutoff=PowerLorentzCutoff(mu=4.0))
        w = truncation_frequency(r, EM, 1.0, CFG)
        assert w <= 1e3 * r.omega_x + 1e-9

    def test_exponential_tail_mass_bounds_gammainc(self):
        # the closed-form tail mass against the exact upper incomplete gamma
        # Gamma(eta+1, omega_max/omega_x): never below it (but for rounding),
        # never above 1.5x, and within 1% at the default tail_epsilon for eta <= 10
        epsilons = [1e-300, 1e-100, 1e-30, 1e-16, 1e-12, 1e-4, 0.1, 0.999]
        with mp.workdps(30):
            for eta in np.arange(0.0, 170.125, 0.25):
                r = BroadbandReservoir(coupling=1.0, eta=float(eta), omega_x=1.0)
                for eps in epsilons:
                    cfg = QuadratureConfig(tail_epsilon=eps)
                    x = truncation_frequency(r, EM, 1.0, cfg)
                    ratio = _tail_mass(r, x) / mp.gammainc(eta + 1.0, x)
                    assert 1.0 - 1e-12 <= ratio <= 1.5, (eta, eps, ratio)
                    if eps == 1e-12 and eta <= 10.0:
                        assert ratio <= 1.01, (eta, ratio)

    @pytest.mark.parametrize(
        "eta, t, reference",
        [
            # 25-digit mpmath values of the time-domain identity
            (20.0, 1e-3, 1.323441904073873e16),
            (20.0, 1.0, 12810440419563.117),
            (40.0, 1e-3, 1.3644222988792526e45),
            (40.0, 1.0, 1.0462654906993125e42),
        ],
    )
    def test_peak_beyond_default_cut(self, eta, t, reference):
        # the spectral peak eta*omega_x lies past omega_x*(ln(1/eps) + 10),
        # so the cut moves out and the tail no longer swamps the estimate
        r = bb(eta)
        assert truncation_frequency(r, EM, t, CFG) > 1.5 * eta * r.omega_x
        res = decay_rate_numeric(r, EM, t, CFG)
        assert abs(res.value - reference) <= res.error_estimate

    def test_tail_is_negligible(self):
        # the neglected contribution above the cut (RSC mass times the
        # profile envelope there) is far below the tolerance budget
        r = bb(3.0)
        t = 1.0
        w = truncation_frequency(r, EM, t, CFG)
        grid = np.geomspace(w, 10.0 * w, 20001)
        tail_mass = float(np.trapezoid(evaluate_rsc(r, grid), grid))
        bound = tail_mass * min(t, 4.0 / (t * (w - EM.omega0) ** 2))
        assert bound < 1e-10 * decay_rate_numeric(r, EM, t, CFG).value


class TestPanels:
    @pytest.mark.parametrize("zero_cap", [10_000, 40_000])
    def test_panels_tile_the_domain(self, zero_cap):
        # high-Q late-time point whose zero block has ~1e4 lobes per side,
        # where a block edge counted apart from its neighbour's can lose a lobe
        model = NarrowbandReservoir(g=1e-3, kappa=5e-4, omega_c=1.0)
        t = 14467.883254733497
        omega_max = truncation_frequency(model, EM, t, CFG)
        a, b, m, kind = _build_panels(model, EM, t, omega_max, zero_cap)
        # phase panels carry local phase edges; compare them as frequencies
        phase = kind == _PHASE
        assert phase.any()
        a = np.where(phase, _phase_omega(EM.omega0, t, m, a), a)
        b = np.where(phase, _phase_omega(EM.omega0, t, m, b), b)
        assert a[0] == 0.0
        assert b[-1] == pytest.approx(omega_max, rel=1e-9)
        assert np.all(b > a)
        np.testing.assert_allclose(a[1:], b[:-1], rtol=1e-9, atol=0.0)


class TestRefinement:
    # every other tier-1 point converges in the first round; these two
    # reach the refinement branches of decay_rate_numeric

    def test_widened_zero_block(self):
        # late eta = 0.5 point where the dropped oscillation dominates the
        # first round, so the zero-aligned block grows fourfold
        model, t = bb(0.5), 77736.50302387758
        omega_max = truncation_frequency(model, EM, t, CFG)
        first = _build_panels(model, EM, t, omega_max, _ZERO_CAP)[0].size
        res = decay_rate_numeric(model, EM, t, CFG)
        assert res.panels_used > 2 * first
        # 25-digit mpmath value of the time-domain identity
        reference = 0.09894920211783992
        assert res.value == pytest.approx(reference, rel=1e-8)
        assert abs(res.value - reference) <= res.error_estimate

    def test_bisection(self):
        model = NarrowbandReservoir(g=1e-3, kappa=0.05, omega_c=1.0)
        cfg = QuadratureConfig(rel_tol=1e-12)
        t = 0.02
        omega_max = truncation_frequency(model, EM, t, cfg)
        first = _build_panels(model, EM, t, omega_max, _ZERO_CAP)[0].size
        res = decay_rate_numeric(model, EM, t, cfg)
        assert first < res.panels_used < 2 * first
        oracle = decay_rate_numeric_oracle(model, EM, t, cfg)
        assert res.value == pytest.approx(oracle.value, rel=1e-10)
        # 25-digit mpmath value of the closed-form Lorentzian identity
        reference = 1.9678612671256706e-08
        assert abs(res.value - reference) <= res.error_estimate


class TestRateCurve:
    def test_single_point_matches_direct_call(self):
        r = bb(1.0)
        curve = rate_curve(r, EM, [2.0], CFG)
        direct = decay_rate_numeric(r, EM, 2.0, CFG)
        assert curve.ratios[0] == direct.value / golden_rule_rate(r, EM)
        assert len(curve) == 1
        # every point of a curve is the direct call's result, bit for bit
        r = bb(2.0)
        grid = np.geomspace(0.01, 100.0, 13)
        curve = rate_curve(r, EM, grid, CFG)
        gamma0 = golden_rule_rate(r, EM)
        for i, t in enumerate(grid):
            direct = decay_rate_numeric(r, EM, float(t), CFG)
            assert curve.ratios[i] == direct.value / gamma0
            assert curve.error_estimates[i] == direct.error_estimate / gamma0
        assert not curve.flagged.any()

    def test_threaded_matches_serial_bitwise(self):
        # rate_curve keeps no mutable module state, so callers that compute
        # curves from several threads at once get the serial bytes back
        from concurrent.futures import ThreadPoolExecutor

        r = bb(2.0)
        grids = [np.geomspace(0.01, 100.0, 13), np.geomspace(0.02, 50.0, 7)]
        serial = [rate_curve(r, EM, g, CFG) for g in grids]
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(lambda g: rate_curve(r, EM, g, CFG), grids))
        for s, c in zip(serial, threaded):
            assert np.array_equal(s.ratios, c.ratios)
            assert np.array_equal(s.error_estimates, c.error_estimates)

    def test_regime_labels_and_metadata(self):
        r = bb(2.0)
        curve = rate_curve(r, EM, [4e-6, 0.1, 1e3], CFG)
        assert curve.regime_labels == ("cutoff", "intermediate", "resonant")
        assert curve.model_metadata["t_scale"] == 1.0
        assert curve.model_metadata["model"]["type"] == "broadband"

    def test_narrowband_labels(self):
        model, em = nb_resonant(q=10.0)
        curve = rate_curve(model, em, [1e-3, 1.0, 1e3], CFG)
        assert curve.regime_labels == ("zeno", "crossover", "fermi")

    def test_flagged_points_kept(self):
        cfg = QuadratureConfig(rel_tol=1e-16, max_panels=64)
        r = bb(2.0)
        curve = rate_curve(r, EM, [0.5, 1.0], cfg)
        assert bool(np.all(curve.flagged))
        assert np.all(curve.ratios > 0.0)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            rate_curve(bb(1.0), EM, [2.0, 1.0], CFG)
        with pytest.raises(ValueError):
            rate_curve(bb(1.0), EM, [], CFG)

    def test_fast_growing_spectrum_curve_shape(self):
        # rise from zero, a large transient overshoot above the long-time
        # value, then 1/t relaxation back to it
        r = bb(2.0)
        grid = np.geomspace(1e-8, 1e4, 37)
        curve = rate_curve(r, EM, grid, CFG)
        peak = int(np.argmax(curve.ratios))
        assert 0 < peak < len(curve) - 1
        assert curve.ratios[0] < 1.0
        assert curve.ratios[peak] > 10.0
        assert abs(curve.ratios[-1] - 1.0) < 0.05
        assert np.all(np.diff(curve.ratios[: peak + 1]) > 0.0)
        tail = curve.ratios[peak:]
        assert np.all(np.diff(tail) < 0.0)
        assert np.all(tail > 1.0)
