"""Onset detection, survival probability, classification, and tail fits."""

import math

import numpy as np
import pytest
from scipy import optimize

from fgr.analytic import narrowband_rate_detuned, narrowband_rate_resonant
from fgr.errors import FitWindowError, GridCoverageError, UnconvergedPointError
from fgr.onset import (
    OUTSIDE_PERTURBATIVE,
    PERTURBATIVE_OK,
    DecayClassification,
    RateCurve,
    empirical_onset,
    survival_probability,
    tail_slope_fit,
    zeno_classifier,
)
from fgr.reservoir import EmitterSpec, NarrowbandReservoir


def make_curve(times, ratios, flagged=None, t_scale=1.0, labels=None):
    times = np.asarray(times, dtype=float)
    return RateCurve(
        times=times,
        ratios=np.asarray(ratios, dtype=float),
        error_estimates=np.zeros_like(times),
        regime_labels=labels or ("test",) * times.size,
        model_metadata={"t_scale": t_scale},
        flagged=flagged,
    )


def narrowband_curve(detuning_over_kappa=0.0, kt_min=1e-3, kt_max=1e3, ppd=32, kappa=1.0, q=10.0):
    omega_c = 2.0 * q * kappa
    nb = NarrowbandReservoir(g=1.0, kappa=kappa, omega_c=omega_c)
    em = EmitterSpec(omega_c + detuning_over_kappa * kappa)
    n = int(round(math.log10(kt_max / kt_min) * ppd)) + 1
    kts = np.geomspace(kt_min, kt_max, n)
    ratios = [narrowband_rate_detuned(nb, em, float(x) / kappa) for x in kts]
    return make_curve(kts / kappa, ratios, t_scale=1.0 / kappa)


class TestEmpiricalOnset:
    def test_constant_curve_returns_first_point(self):
        curve = make_curve([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        assert empirical_onset(curve, 0.5) == 1.0

    def test_not_found_when_last_point_outside(self):
        curve = make_curve([1.0, 2.0, 3.0], [1.0, 1.0, 5.0])
        assert empirical_onset(curve, 0.5) is None

    def test_suffix_not_first_crossing(self):
        # enters the band, leaves again, then settles: the onset is after
        # the final excursion
        times = [1.0, 2.0, 3.0, 4.0, 5.0]
        ratios = [0.99, 1.8, 0.99, 1.01, 1.0]
        curve = make_curve(times, ratios)
        assert empirical_onset(curve, 0.1) == 3.0

    def test_narrowband_detector_matches_characteristic_time(self):
        curve = narrowband_curve(ppd=64)
        eps = 1.0 - math.exp(-1.0)
        t_star = empirical_onset(curve, eps)
        # |ratio - 1| = (1 - e^-kt)/(kt) crosses eps exactly at kt = 1
        assert t_star == pytest.approx(1.0, rel=10 ** (1 / 64.0) - 1.0 + 1e-9)

    @pytest.mark.parametrize("eps", [0.1, 0.3, 1.0 - math.exp(-1.0)])
    def test_against_root_finder_oracle(self, eps):
        curve = narrowband_curve(ppd=64)
        x_star = optimize.brentq(lambda x: (1.0 - math.exp(-x)) / x - eps, 1e-9, 60.0)
        t_star = empirical_onset(curve, eps)
        step = 10 ** (1 / 64.0)
        assert x_star / step <= t_star <= x_star * step

    def test_monotone_in_epsilon(self):
        curve = narrowband_curve(ppd=24)
        onsets = [empirical_onset(curve, eps) for eps in (0.05, 0.1, 0.3, 0.6, 0.9)]
        assert all(a >= b for a, b in zip(onsets, onsets[1:]))

    def test_refinement_invariance(self):
        coarse = narrowband_curve(ppd=16)
        fine = narrowband_curve(ppd=32)
        eps = 0.25
        t_coarse = empirical_onset(coarse, eps)
        t_fine = empirical_onset(fine, eps)
        spacing = t_coarse * (10 ** (1 / 16.0) - 1.0)
        assert abs(t_fine - t_coarse) <= spacing + 1e-12

    def test_flagged_point_in_suffix_raises(self):
        flagged = np.array([False, False, True, False])
        curve = make_curve([1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 1.0, 1.0], flagged=flagged)
        with pytest.raises(UnconvergedPointError, match="1 of the 3 points .* t = 2.0 "):
            empirical_onset(curve, 0.1)

    def test_flagged_point_before_suffix_is_fine(self):
        flagged = np.array([True, False, False, False])
        curve = make_curve([1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 1.0, 1.0], flagged=flagged)
        assert empirical_onset(curve, 0.1) == 3.0

    def test_epsilon_validation(self):
        curve = make_curve([1.0], [1.0])
        with pytest.raises(ValueError):
            empirical_onset(curve, 0.0)


class TestSurvivalProbability:
    def test_no_decay(self):
        point = survival_probability(5.0, 0.0)
        assert point.value == 1.0
        assert point.flag == PERTURBATIVE_OK

    def test_validity_threshold(self):
        point = survival_probability(1.0, 0.5)
        assert point.value == 0.5
        assert point.flag == OUTSIDE_PERTURBATIVE
        assert survival_probability(1.0, 0.1).flag == PERTURBATIVE_OK

    def test_no_clamp_below_zero(self):
        point = survival_probability(2.0, 1.0)
        assert point.value == -1.0
        assert point.flag == OUTSIDE_PERTURBATIVE

    def test_quadratic_short_time_decay(self):
        # rate = A*t gives decay probability A*t^2
        a = 0.3
        for t in (1e-3, 1e-2):
            point = survival_probability(t, a * t)
            assert 1.0 - point.value == pytest.approx(a * t * t, rel=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            survival_probability(0.0, 1.0)
        with pytest.raises(ValueError):
            survival_probability(1.0, -1.0)


class TestZenoClassifier:
    @pytest.mark.parametrize("d", [0.0, 0.4])
    def test_zeno_only_at_small_detuning(self, d):
        curve = narrowband_curve(detuning_over_kappa=d)
        assert zeno_classifier(curve) is DecayClassification.ZENO_ONLY

    @pytest.mark.parametrize("d", [2.0, 5.0])
    def test_anti_zeno_beyond_width(self, d):
        curve = narrowband_curve(detuning_over_kappa=d)
        assert zeno_classifier(curve) is DecayClassification.ANTI_ZENO

    def test_boundary_detuning_not_flipped_by_small_overshoot(self):
        # at detuning == width the ratio exceeds 1 by at most ~1.4%,
        # which stays below the classification threshold
        curve = narrowband_curve(detuning_over_kappa=1.0)
        assert float(np.max(curve.ratios)) < 1.0 + 0.015
        assert zeno_classifier(curve) is DecayClassification.ZENO_ONLY

    @pytest.mark.parametrize("d", [0.4, 5.0])
    def test_parity_in_detuning(self, d):
        plus = narrowband_curve(detuning_over_kappa=d)
        minus = narrowband_curve(detuning_over_kappa=-d)
        assert zeno_classifier(plus) is zeno_classifier(minus)

    def test_coverage_error(self):
        curve = narrowband_curve(kt_min=0.1, kt_max=10.0)
        with pytest.raises(GridCoverageError):
            zeno_classifier(curve)

    def test_missing_scale_metadata(self):
        curve = make_curve([1.0, 2.0], [1.0, 1.0])
        object.__setattr__(curve, "model_metadata", {})
        with pytest.raises(GridCoverageError):
            zeno_classifier(curve)


class TestTailSlopeFit:
    def test_exact_power_law(self):
        times = np.geomspace(1.0, 1e3, 60)
        curve = make_curve(times, 1.0 + 0.37 / times)
        slope = tail_slope_fit(curve, (1.0, 1e3))
        assert slope == pytest.approx(-1.0, abs=1e-6)

    def test_narrowband_resonant_tail(self):
        nb = NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=20.0)
        times = np.geomspace(10.0, 1e3, 40)
        ratios = [narrowband_rate_resonant(nb, float(t)) for t in times]
        curve = make_curve(times, ratios)
        slope = tail_slope_fit(curve, (10.0, 1e3))
        assert slope == pytest.approx(-1.0, abs=0.05)

    def test_insufficient_points(self):
        times = np.geomspace(1.0, 10.0, 5)
        curve = make_curve(times, 1.0 + 1.0 / times)
        with pytest.raises(FitWindowError):
            tail_slope_fit(curve, (1.0, 10.0))

    def test_window_validation(self):
        curve = make_curve([1.0, 2.0], [2.0, 1.5])
        with pytest.raises(ValueError):
            tail_slope_fit(curve, (3.0, 2.0))


class TestRateCurveValidation:
    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError):
            make_curve([2.0, 1.0], [1.0, 1.0])

    @pytest.mark.parametrize("ratio", [-0.1, math.nan, math.inf])
    def test_rejects_negative_ratio(self, ratio):
        # NaN fails too: a one-point NaN curve had an onset at its only time
        with pytest.raises(ValueError, match="ratios must be finite and nonnegative"):
            make_curve([1.0, 2.0], [1.0, ratio])

    @pytest.mark.parametrize("error", [-1e-9, math.nan, math.inf])
    def test_rejects_bad_error_estimate(self, error):
        with pytest.raises(ValueError, match="error estimates must be finite"):
            RateCurve(times=[1.0], ratios=[1.0], error_estimates=[error], regime_labels=("a",))

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError, match="times must be finite"):
            make_curve([1.0, t], [1.0, 1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            RateCurve(
                times=np.array([1.0, 2.0]),
                ratios=np.array([1.0]),
                error_estimates=np.array([0.0, 0.0]),
                regime_labels=("a", "b"),
            )

    def test_len(self):
        assert len(make_curve([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])) == 3
