"""Closed-form regime expressions, onset formulas, and narrowband ratios."""

import math

import mpmath as mp
import numpy as np
import pytest

from fgr.analytic import (
    CUTOFF_MAX,
    RESONANT_MIN,
    BroadbandRateParts,
    Regime,
    broadband_rate_analytic,
    broadband_resonant_part,
    broadband_tail_part,
    classify_regime,
    narrowband_rate_detuned,
    narrowband_rate_resonant,
    onset_time_broadband,
    onset_time_narrowband,
)
from fgr.errors import RegimeSeparationError
from fgr.quadrature import QuadratureConfig, decay_rate_numeric
from fgr.reservoir import (
    BroadbandReservoir,
    EmitterSpec,
    NarrowbandReservoir,
    golden_rule_rate_approx,
)

EM = EmitterSpec(1.0)


def bb(eta, omega_x=250.0, coupling=1e-3):
    return BroadbandReservoir(coupling=coupling, eta=eta, omega_x=omega_x)


class TestClassifyRegime:
    def test_deep_cutoff(self):
        assert classify_regime(bb(2.0), EM, 1e-3 / 250.0) is Regime.CUTOFF

    def test_deep_resonant(self):
        assert classify_regime(bb(2.0), EM, 1e3) is Regime.RESONANT

    def test_intermediate_example(self):
        # omega_x*t = 25, omega0*t = 0.1
        assert classify_regime(bb(0.5), EM, 0.1) is Regime.INTERMEDIATE

    def test_boundaries_deterministic(self):
        t_c = CUTOFF_MAX / 250.0
        assert classify_regime(bb(1.0), EM, t_c) is Regime.INTERMEDIATE
        assert classify_regime(bb(1.0), EM, math.nextafter(t_c, 0.0)) is Regime.CUTOFF
        t_r = RESONANT_MIN
        assert classify_regime(bb(1.0), EM, t_r) is Regime.INTERMEDIATE
        assert classify_regime(bb(1.0), EM, math.nextafter(t_r, math.inf)) is Regime.RESONANT

    def test_insufficient_scale_separation(self):
        with pytest.raises(RegimeSeparationError):
            classify_regime(bb(1.0, omega_x=50.0), EM, 1.0)


class TestBroadbandResonantPart:
    def test_resonant_regime_returns_golden_rule(self):
        for eta in (0.3, 1.0, 2.4):
            r = bb(eta)
            assert broadband_resonant_part(r, EM, 1e3, Regime.RESONANT) == pytest.approx(
                golden_rule_rate_approx(r, EM), rel=1e-15
            )

    def test_cutoff_regime_frozen_value(self):
        r = bb(2.0)
        g0 = golden_rule_rate_approx(r, EM)
        got = broadband_resonant_part(r, EM, 1e-4, Regime.CUTOFF)
        assert got / g0 == pytest.approx(3.9788735772973836e-3, rel=1e-12)

    def test_intermediate_regime_value_against_reference(self):
        # eta=0.5, omega0*t = 0.1; reference evaluated at 40-digit precision
        # on the same binary time value (~1.9582427699)
        r = bb(0.5)
        g0 = golden_rule_rate_approx(r, EM)
        got = broadband_resonant_part(r, EM, 0.1, Regime.INTERMEDIATE)
        with mp.workdps(40):
            x = mp.mpf(0.1)
            ref = float((1 / (3 * mp.pi)) * (1 + mp.pi / x) ** mp.mpf(1.5) * x)
        assert got / g0 == pytest.approx(ref, rel=1e-13)


class TestBroadbandTailPart:
    def test_vanishes_below_eta_one(self):
        r = bb(0.5)
        for regime in Regime:
            assert broadband_tail_part(r, EM, 1.0, regime) == 0.0

    def test_resonant_eta_two_frozen_value(self):
        r = bb(2.0)
        g0 = golden_rule_rate_approx(r, EM)
        got = broadband_tail_part(r, EM, 1e3, Regime.RESONANT)
        assert got / g0 == pytest.approx(7.957747154594768e-2, rel=1e-12)

    def test_resonant_eta_one_frozen_value(self):
        r = bb(1.0)
        g0 = golden_rule_rate_approx(r, EM)
        got = broadband_tail_part(r, EM, 1e3, Regime.RESONANT)
        assert got / g0 == pytest.approx(1.7575355963312165e-3, rel=1e-12)

    def test_intermediate_equals_resonant_expression(self):
        r = bb(2.5)
        assert broadband_tail_part(r, EM, 7.0, Regime.INTERMEDIATE) == broadband_tail_part(
            r, EM, 7.0, Regime.RESONANT
        )

    def test_eta_one_dispatch_and_divergence(self):
        # the 1/(eta-1) prefactor diverges while the log branch stays finite
        t = 1e3
        g_log = broadband_tail_part(bb(1.0), EM, t, Regime.RESONANT)
        assert math.isfinite(g_log) and g_log > 0.0
        prev = None
        for eps in (1e-2, 1e-4, 1e-6):
            g = broadband_tail_part(bb(1.0 + eps), EM, t, Regime.RESONANT)
            assert g > g_log
            if prev is not None:
                assert g > 10.0 * prev  # grows roughly like 1/(eta-1)
            prev = g
        # within the dispatch tolerance the log branch is selected
        assert broadband_tail_part(bb(1.0 + 1e-12), EM, t, Regime.RESONANT) == pytest.approx(
            g_log, rel=1e-9
        )


class TestBroadbandTotal:
    def test_resonant_identity_with_onset_time(self):
        # (total/g0 - 1) * t equals the onset time exactly for eta > 1
        for eta in (1.5, 2.0, 3.0):
            r = bb(eta)
            g0 = golden_rule_rate_approx(r, EM)
            t_f = onset_time_broadband(r, EM)
            for t in (1e2, 1e3, 1e4):
                parts = broadband_rate_analytic(r, EM, t)
                if parts.regime is not Regime.RESONANT:
                    continue
                assert (parts.total / g0 - 1.0) * t == pytest.approx(t_f, rel=1e-12)

    def test_resonant_total_is_golden_rule_below_eta_one(self):
        r = bb(0.5)
        parts = broadband_rate_analytic(r, EM, 1e3)
        assert parts.total == pytest.approx(golden_rule_rate_approx(r, EM), rel=1e-15)
        assert parts.tail_part == 0.0

    @pytest.mark.parametrize(
        "parts", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -1e-300)]
    )
    def test_parts_refuse_non_finite(self, parts):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            BroadbandRateParts(*parts, Regime.RESONANT)

    def test_total_at_onset_time_doubles_for_eta_above_one(self):
        for eta in (1.5, 2.0, 3.0):
            r = bb(eta)
            t_f = onset_time_broadband(r, EM)
            parts = broadband_rate_analytic(r, EM, t_f)
            assert parts.total / golden_rule_rate_approx(r, EM) == pytest.approx(2.0, rel=1e-12)


class TestOnsetTimeBroadband:
    def test_below_eta_one(self):
        assert onset_time_broadband(bb(0.5), EM) == 1.0

    def test_eta_two_frozen_value(self):
        assert onset_time_broadband(bb(2.0), EM) == pytest.approx(79.57747154594767, rel=1e-13)

    def test_eta_three_frozen_value(self):
        assert onset_time_broadband(bb(3.0), EM) == pytest.approx(9947.183943243459, rel=1e-13)

    def test_eta_one_frozen_value(self):
        assert onset_time_broadband(bb(1.0), EM) == pytest.approx(
            math.log(250.0) / math.pi, rel=1e-13
        )

    def test_requires_cutoff_above_transition(self):
        em = EmitterSpec(300.0)
        with pytest.raises(ValueError):
            onset_time_broadband(bb(2.0), em)

    @pytest.mark.parametrize(
        "formula",
        [
            onset_time_broadband,
            lambda r, em: broadband_tail_part(r, em, 1.0, Regime.INTERMEDIATE),
            lambda r, em: broadband_tail_part(r, em, 1e-4, Regime.CUTOFF),
        ],
        ids=["onset_time", "tail_part-intermediate", "tail_part-cutoff"],
    )
    def test_overflowing_power_names_eta(self, formula):
        # (omega_x/omega0)**(eta -/+ 1) passes the largest float at eta = 150
        with pytest.raises(ValueError, match="eta=150.0"):
            formula(bb(150.0), EM)


class TestNarrowbandResonant:
    def test_inverse_e_anchor(self):
        nb = NarrowbandReservoir(g=1.0, kappa=2.0, omega_c=20.0)
        assert narrowband_rate_resonant(nb, 0.5) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_short_time_slope(self):
        nb = NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=20.0)
        for x in (1e-8, 1e-5, 1e-3):
            assert narrowband_rate_resonant(nb, x) == pytest.approx(
                x / 2.0, rel=2.0 * x / 3.0 + 1e-13
            )

    def test_long_time_limit(self):
        nb = NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=20.0)
        assert narrowband_rate_resonant(nb, 1e6) == pytest.approx(1.0, rel=1e-5)

    def test_strictly_increasing_and_bounded(self):
        nb = NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=20.0)
        ts = np.geomspace(1e-6, 1e3, 400)
        vals = np.array([narrowband_rate_resonant(nb, float(t)) for t in ts])
        assert np.all(np.diff(vals) > 0.0)
        assert np.all((vals > 0.0) & (vals < 1.0))
        # deviation from the long-time value decreases monotonically
        dev = 1.0 - vals
        assert np.all(np.diff(dev) < 0.0)

    def test_against_reference_evaluation(self):
        nb = NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=20.0)
        with mp.workdps(40):
            for x in (1e-7, 1e-4, 4e-3, 0.1, 1.0, 30.0):
                ref = float(1 - (1 - mp.exp(-mp.mpf(x))) / mp.mpf(x))
                assert narrowband_rate_resonant(nb, x) == pytest.approx(ref, rel=1e-13)


class TestNarrowbandDetuned:
    def test_reduces_to_resonant_at_zero_detuning(self):
        nb = NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=20.0)
        em = EmitterSpec(20.0)
        for x in np.geomspace(1e-6, 1e3, 120):
            a = narrowband_rate_detuned(nb, em, float(x))
            b = narrowband_rate_resonant(nb, float(x))
            assert a == pytest.approx(b, abs=1e-12, rel=1e-12)

    def test_detuning_parity_exact(self):
        nb = NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=20.0)
        for d in (0.4, 1.0, 2.0, 5.0):
            for x in (1e-5, 0.3, 2.0, 50.0):
                plus = narrowband_rate_detuned(nb, EmitterSpec(20.0 + d), x)
                minus = narrowband_rate_detuned(nb, EmitterSpec(20.0 - d), x)
                assert plus == minus

    def test_visibility_zero_at_detuning_equal_width(self):
        # V=0 leaves 1 - sinc(kt) e^-kt
        nb = NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=20.0)
        em = EmitterSpec(21.0)
        for x in (0.3, 1.0, 4.0):
            expected = 1.0 - math.sin(x) / x * math.exp(-x)
            assert narrowband_rate_detuned(nb, em, x) == pytest.approx(expected, rel=1e-13)

    def test_long_time_limit_any_detuning(self):
        nb = NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=20.0)
        for d in (0.0, 1.0, 5.0):
            assert narrowband_rate_detuned(nb, EmitterSpec(20.0 + d), 1e7) == pytest.approx(
                1.0, rel=1e-6
            )

    def test_against_reference_evaluation(self):
        nb = NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=20.0)
        with mp.workdps(50):
            for r in (0.0, 0.4, 1.0, 2.0, 5.0, 30.0):
                em = EmitterSpec(20.0 + r)
                for x in (1e-8, 1e-5, 1e-3, 0.05, 1.0, 20.0):
                    xm, rm = mp.mpf(x), mp.mpf(r)
                    v = (1 - rm**2) / (1 + rm**2)
                    s = mp.sin(rm * xm) / (rm * xm) if r else mp.mpf(1)
                    ref = float(
                        1
                        - v * (1 - mp.cos(rm * xm) * mp.exp(-xm)) / xm
                        - (1 - v) * s * mp.exp(-xm)
                    )
                    got = narrowband_rate_detuned(nb, em, x)
                    assert got == pytest.approx(ref, rel=5e-13, abs=1e-250)

    def test_zeno_slope_with_detuning(self):
        # short-time ratio is kt*(1+(d/k)^2)/2
        nb = NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=20.0)
        em = EmitterSpec(23.0)
        x = 1e-6
        assert narrowband_rate_detuned(nb, em, x) == pytest.approx(
            x * (1.0 + 9.0) / 2.0, rel=1e-6
        )


class TestOnsetTimeNarrowband:
    def test_plasmonic_value(self):
        nb = NarrowbandReservoir(g=1e12, kappa=1.75e13, omega_c=3.5e14)
        assert nb.quality_factor == pytest.approx(10.0)
        assert onset_time_narrowband(nb) == pytest.approx(5.71e-14, rel=2e-3)

    def test_linear_in_quality_factor(self):
        omega_c = 3.5e14
        t1 = onset_time_narrowband(NarrowbandReservoir(g=1.0, kappa=omega_c / 20.0, omega_c=omega_c))
        t2 = onset_time_narrowband(NarrowbandReservoir(g=1.0, kappa=omega_c / 40.0, omega_c=omega_c))
        assert t2 == pytest.approx(2.0 * t1, rel=1e-14)

    def test_high_q_cavity_value(self):
        nb = NarrowbandReservoir(g=1.0, kappa=3.5e14 / 2e8, omega_c=3.5e14)
        assert onset_time_narrowband(nb) == pytest.approx(5.7e-7, rel=5e-3)

    def test_independent_of_coupling(self):
        a = NarrowbandReservoir(g=1.0, kappa=2.0, omega_c=20.0)
        b = NarrowbandReservoir(g=9.0, kappa=2.0, omega_c=20.0)
        assert onset_time_narrowband(a) == onset_time_narrowband(b)


CFG = QuadratureConfig()


class TestConsistencyWithQuadrature:
    """Closed-form totals against the integrated rate in each regime.

    The closed forms carry sharp-cutoff prefactors; with the exponential
    cutoff they stay within a factor 2 of the integral in the regimes
    listed here, while the short-time expressions for fast-growing spectra
    deviate by a predictable moment ratio (checked separately below).
    """

    @pytest.mark.parametrize(
        "eta,t",
        [
            (0.5, 4e-6),
            (1.0, 4e-6),
            (0.5, 0.1),
            (1.0, 0.1),
            (1.5, 0.1),
            (2.0, 0.1),
        ],
    )
    def test_within_factor_two(self, eta, t):
        r = bb(eta)
        parts = broadband_rate_analytic(r, EM, t)
        num = decay_rate_numeric(r, EM, t, CFG).value
        assert 0.5 <= num / parts.total <= 2.0

    @pytest.mark.parametrize("eta", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_resonant_within_quarter(self, eta):
        r = bb(eta)
        t = 30.0 * onset_time_broadband(r, EM)
        parts = broadband_rate_analytic(r, EM, t)
        assert parts.regime is Regime.RESONANT
        num = decay_rate_numeric(r, EM, t, CFG).value
        assert abs(num / parts.total - 1.0) <= 0.25

    @pytest.mark.parametrize("eta", [1.5, 2.0, 3.0])
    def test_short_time_moment_ratio(self, eta):
        # sharp-cutoff moments understate the short-time slope by
        # (eta+1)*Gamma(eta+1) for the exponential roll-off
        r = bb(eta)
        t = 4e-6
        parts = broadband_rate_analytic(r, EM, t)
        num = decay_rate_numeric(r, EM, t, CFG).value
        predicted = (eta + 1.0) * math.gamma(eta + 1.0)
        assert num / parts.total == pytest.approx(predicted, rel=0.1)
