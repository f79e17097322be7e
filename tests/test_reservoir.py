"""Reservoir model values against closed forms and quadrature oracles."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from fgr.analytic import (
    Regime,
    broadband_resonant_part,
    broadband_tail_part,
    classify_regime,
    narrowband_rate_detuned,
    narrowband_rate_resonant,
    onset_time_broadband,
)
from fgr.errors import ConvergenceError
from fgr.kernel import kernel_zeros, spectral_profile
from fgr.onset import RateCurve, empirical_onset, survival_probability
from fgr.quadrature import (
    QuadratureConfig,
    decay_rate_numeric,
    decay_rate_numeric_oracle,
    truncation_frequency,
)
from fgr.reservoir import (
    BroadbandReservoir,
    EmitterSpec,
    ExponentialCutoff,
    NarrowbandReservoir,
    PowerLorentzCutoff,
    _rsc_ray,
    cutoff_constant,
    evaluate_rsc,
    golden_rule_rate,
    golden_rule_rate_approx,
    zeno_slope,
)


def make_pl(mu):
    with pytest.warns(UserWarning) if mu < 4 else _nullcontext():
        return PowerLorentzCutoff(mu=mu)


class _nullcontext:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


class TestEvaluateRsc:
    def test_narrowband_peak_value(self):
        nb = NarrowbandReservoir(g=0.7, kappa=0.3, omega_c=5.0)
        assert evaluate_rsc(nb, 5.0) == pytest.approx(0.7**2 / (math.pi * 0.3), rel=1e-14)

    def test_broadband_vanishes_at_zero_for_positive_eta(self):
        bb = BroadbandReservoir(coupling=1e-3, eta=0.5, omega_x=250.0)
        assert evaluate_rsc(bb, 0.0) == 0.0

    def test_broadband_eta_zero_finite_at_origin(self):
        bb = BroadbandReservoir(coupling=1e-3, eta=0.0, omega_x=250.0)
        assert evaluate_rsc(bb, 0.0) == pytest.approx(1e-3 * 250.0, rel=1e-15)

    def test_broadband_ohmic_value_at_transition(self):
        bb = BroadbandReservoir(coupling=1e-3, eta=1.0, omega_x=250.0)
        assert evaluate_rsc(bb, 1.0) == pytest.approx(1e-3 * math.exp(-1.0 / 250.0), rel=1e-14)

    def test_negative_frequency_rejected(self):
        bb = BroadbandReservoir(coupling=1e-3, eta=1.0, omega_x=250.0)
        with pytest.raises(ValueError):
            evaluate_rsc(bb, -1.0)
        with pytest.raises(ValueError):
            evaluate_rsc(bb, np.array([1.0, -2.0]))

    def test_vectorized_matches_scalar(self):
        bb = BroadbandReservoir(coupling=1e-3, eta=1.5, omega_x=250.0)
        omegas = np.array([0.0, 0.5, 1.0, 100.0, 5000.0])
        vec = evaluate_rsc(bb, omegas)
        assert vec.shape == omegas.shape
        for w, v in zip(omegas, vec):
            assert v == evaluate_rsc(bb, float(w))

    @pytest.mark.parametrize("eta", [130.0, 165.0])
    def test_large_eta_power_overflow(self, eta):
        # (omega/omega_x)**eta overflows past omega_x*exp(709.8/eta), about
        # 235*omega_x at eta = 130; the RSC there is still a normal float.
        # Below, the values keep the bits of the one-power formula.
        bb = BroadbandReservoir(coupling=1e-3, eta=eta, omega_x=250.0)
        omegas = 250.0 * np.array([1e-3, 1.0, eta, 230.0, 300.0, 700.0, 1e4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = evaluate_rsc(bb, omegas)
        x = omegas / 250.0
        n = int(np.sum(eta * np.log(x) < 700.0))
        scale = bb.coupling * bb.omega_x
        assert np.array_equal(got[:n], scale * x[:n] ** eta * np.exp(-x[:n]))
        for xi, value in zip(x[n:], got[n:]):
            exact = scale * mp.mpf(xi) ** eta * mp.exp(-mp.mpf(xi))
            assert value == pytest.approx(float(exact), rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize(
        "reservoir",
        [
            BroadbandReservoir(coupling=1e-3, eta=0.5, omega_x=250.0),
            BroadbandReservoir(coupling=1e-2, eta=3.0, omega_x=100.0),
            BroadbandReservoir(coupling=1e-3, eta=2.0, omega_x=50.0, cutoff=PowerLorentzCutoff(mu=4.0)),
            NarrowbandReservoir(g=1.0, kappa=0.5, omega_c=10.0),
        ],
    )
    def test_nonnegative_everywhere(self, reservoir):
        omegas = np.geomspace(1e-6, 1e4, 300)
        assert np.all(evaluate_rsc(reservoir, omegas) >= 0.0)
        assert evaluate_rsc(reservoir, 0.0) >= 0.0


def _continued_models():
    with pytest.warns(UserWarning):
        heavy = PowerLorentzCutoff(mu=1.6)
    return [
        BroadbandReservoir(coupling=1e-3, eta=0.5, omega_x=250.0),
        BroadbandReservoir(coupling=1e-3, eta=2.0, omega_x=250.0, cutoff=PowerLorentzCutoff(4.0)),
        BroadbandReservoir(coupling=1e-3, eta=1.5, omega_x=250.0, cutoff=heavy),
        NarrowbandReservoir(g=0.7, kappa=0.3, omega_c=5.0),
        BroadbandReservoir(coupling=1e-3, eta=0.01, omega_x=250.0),
        BroadbandReservoir(coupling=1e-3, eta=20.5, omega_x=250.0),
        BroadbandReservoir(coupling=1e-3, eta=150.3, omega_x=250.0),
        BroadbandReservoir(
            coupling=1e-3, eta=150.3, omega_x=250.0, cutoff=PowerLorentzCutoff(79.15)
        ),
    ]


_CONTINUED_IDS = ["exp", "pl4", "pl1.6", "line", "exp0.01", "exp20.5", "exp150.3", "pl79.15"]


class TestContinuedRsc:
    # the RSC continued to the ray omega = s*e**(-i*theta), along which the
    # contour reference integrates into the lower half plane; no step of it
    # warns, even where |x|**eta alone would overflow

    @pytest.mark.parametrize("index", range(8), ids=_CONTINUED_IDS)
    def test_equals_evaluate_rsc_on_the_real_axis(self, index):
        model = _continued_models()[index]
        omega = np.concatenate([[0.0], np.geomspace(1e-12, 1e5, 401)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _rsc_ray(model, omega, 0.0)
            want = evaluate_rsc(model, omega)
        assert np.all(got.imag == 0.0)
        # to rounding: the continuation takes |x|**eta*|F| as a p-th power;
        # below the normal floats (eta = 150.3 from omega ~ 2), to rounding
        # of the smallest normal one
        tiny = np.finfo(float).tiny
        np.testing.assert_allclose(got.real, want, rtol=1e-13, atol=1e-13 * tiny)

    @pytest.mark.parametrize("index", range(8), ids=_CONTINUED_IDS)
    def test_principal_branch_off_the_axis(self, index):
        # against the same formula in mpmath, whose powers take the
        # principal branch, at omega = s*e**(-i*theta) on rays down to
        # theta = pi/4 and at a steeper 1.4
        model = _continued_models()[index]
        with mp.workdps(30), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for theta in (0.1, 0.5, math.pi / 4, 1.4):
                if theta > math.pi / 4 and not isinstance(model, NarrowbandReservoir):
                    continue
                for s in (1e-3, 0.9, 5.0, 300.0, 1e4):
                    w = s * mp.expj(-theta)
                    if isinstance(model, NarrowbandReservoir):
                        d = w - model.omega_c
                        want = model.kappa / mp.pi * model.g**2 / (d * d + model.kappa**2)
                    else:
                        x = w / model.omega_x
                        want = model.coupling * model.omega_x * mp.power(x, model.eta)
                        if isinstance(model.cutoff, ExponentialCutoff):
                            want *= mp.exp(-x)
                        else:
                            want *= mp.power(1 + x * x, -model.cutoff.mu)
                    got = complex(_rsc_ray(model, s, theta))
                    assert abs(got - complex(want)) <= 1e-13 * abs(complex(want)), (theta, s)


class TestGoldenRuleRate:
    def test_narrowband_resonant(self):
        nb = NarrowbandReservoir(g=1.3, kappa=0.4, omega_c=8.0)
        em = EmitterSpec(8.0)
        assert golden_rule_rate(nb, em) == pytest.approx(2.0 * 1.3**2 / 0.4, rel=1e-14)

    def test_narrowband_detuned(self):
        nb = NarrowbandReservoir(g=1.3, kappa=0.4, omega_c=8.0)
        em = EmitterSpec(8.9)
        delta = 0.9
        expected = 2.0 * 0.4 * 1.3**2 / (delta**2 + 0.4**2)
        assert golden_rule_rate(nb, em) == pytest.approx(expected, rel=1e-14)

    def test_exact_vs_approx_ratio_is_cutoff_profile(self):
        em = EmitterSpec(1.0)
        for cutoff, fx in [
            (ExponentialCutoff(), math.exp(-1.0 / 250.0)),
            (PowerLorentzCutoff(mu=4.0), (1.0 + (1.0 / 250.0) ** 2) ** -4.0),
        ]:
            bb = BroadbandReservoir(coupling=1e-3, eta=1.7, omega_x=250.0, cutoff=cutoff)
            ratio = golden_rule_rate(bb, em) / golden_rule_rate_approx(bb, em)
            assert ratio == pytest.approx(fx, rel=1e-13)

    def test_approx_eta_one_drops_cutoff_ratio(self):
        bb = BroadbandReservoir(coupling=1e-3, eta=1.0, omega_x=250.0)
        em = EmitterSpec(1.0)
        assert golden_rule_rate_approx(bb, em) == pytest.approx(2.0 * math.pi * 1e-3, rel=1e-14)

    def test_approx_eta_two_value(self):
        bb = BroadbandReservoir(coupling=1e-3, eta=2.0, omega_x=250.0)
        em = EmitterSpec(1.0)
        assert golden_rule_rate_approx(bb, em) == pytest.approx(
            2.0 * math.pi * 1e-3 / 250.0, rel=1e-14
        )

    def test_approx_rejects_narrowband(self):
        # so do the broadband onset formulas
        nb = NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=10.0)
        with pytest.raises(TypeError):
            golden_rule_rate_approx(nb, EmitterSpec(10.0))
        with pytest.raises(TypeError, match="broadband reservoirs only"):
            onset_time_broadband(nb, EmitterSpec(1.0))


class TestZenoSlope:
    def test_exponential_ohmic(self):
        bb = BroadbandReservoir(coupling=1e-3, eta=1.0, omega_x=250.0)
        assert zeno_slope(bb) == pytest.approx(1e-3 * 250.0**2, rel=1e-14)

    def test_exponential_eta_two_gamma_factor(self):
        bb = BroadbandReservoir(coupling=1e-3, eta=2.0, omega_x=250.0)
        assert zeno_slope(bb) == pytest.approx(2.0 * 1e-3 * 250.0**2, rel=1e-14)

    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.0, 2.0, 3.3])
    def test_matches_trapezoid_oracle(self, eta):
        bb = BroadbandReservoir(coupling=1e-3, eta=eta, omega_x=2.0)
        grid = np.linspace(0.0, 60.0 * bb.omega_x, 2_000_001)
        oracle = np.trapezoid(evaluate_rsc(bb, grid), grid)
        assert abs(zeno_slope(bb) / oracle - 1.0) < 1e-6

    def test_narrowband_closed_form(self):
        nb = NarrowbandReservoir(g=0.8, kappa=0.3, omega_c=7.0)
        expected = 0.8**2 * (0.5 + math.atan(7.0 / 0.3) / math.pi)
        assert zeno_slope(nb) == pytest.approx(expected, rel=1e-14)
        body, _ = integrate.quad(
            lambda w: evaluate_rsc(nb, w), 0.0, 100.0, points=[7.0], limit=200
        )
        tail, _ = integrate.quad(lambda w: evaluate_rsc(nb, w), 100.0, np.inf)
        assert zeno_slope(nb) == pytest.approx(body + tail, rel=1e-9)

    def test_narrowband_high_center_approaches_full_mass(self):
        nb = NarrowbandReservoir(g=2.0, kappa=1.0, omega_c=1e9)
        assert zeno_slope(nb) == pytest.approx(4.0, rel=1e-8)

    def test_power_lorentz_numeric_matches_quad(self):
        bb = BroadbandReservoir(
            coupling=1e-3, eta=1.5, omega_x=3.0, cutoff=PowerLorentzCutoff(mu=4.0)
        )
        oracle, _ = integrate.quad(lambda w: evaluate_rsc(bb, w), 0.0, np.inf, limit=400)
        assert zeno_slope(bb) == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize(
        "eta, mu", [(1.5, 4.0), (2.0, 4.0), (1.0, 4.0), (2.0, 1.6), (0.0, 0.75), (3.3, 6.0),
                    (0.5, 200.0)]
    )
    def test_power_lorentz_closed_form_matches_quad(self, eta, mu):
        # mu = 200 is past where Gamma(mu) overflows a float
        bb = BroadbandReservoir(coupling=1e-3, eta=eta, omega_x=3.0, cutoff=make_pl(mu))
        oracle, _ = integrate.quad(
            lambda x: x**eta * (1.0 + x * x) ** -mu, 0.0, np.inf, epsrel=1e-13, limit=400
        )
        assert zeno_slope(bb) == pytest.approx(1e-3 * 3.0**2 * oracle, rel=1e-11)

    def test_power_lorentz_nonintegrable_raises(self):
        with pytest.warns(UserWarning):
            cutoff = PowerLorentzCutoff(mu=1.0)
        bb = BroadbandReservoir(coupling=1e-3, eta=2.0, omega_x=3.0, cutoff=cutoff)
        with pytest.raises(ValueError, match="integrable"):
            zeno_slope(bb)


class TestCutoffConstant:
    def test_exponential_is_one(self):
        assert cutoff_constant(ExponentialCutoff()) == 1.0

    def test_power_lorentz_mu4_value_and_oracle(self):
        c = cutoff_constant(PowerLorentzCutoff(mu=4.0))
        assert c == pytest.approx(0.49087385212340684, rel=1e-12)
        oracle, _ = integrate.quad(lambda x: (1 + x * x) ** -4.0, 0.0, np.inf)
        assert c == pytest.approx(oracle, rel=1e-10)

    def test_strictly_decreasing_in_mu(self):
        values = []
        for mu in (1.0, 2.0, 4.0, 8.0):
            cutoff = make_pl(mu)
            values.append(cutoff_constant(cutoff))
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("mu", [0.75, 1.5, 2.5, 6.0, 200.0])
    def test_matches_quadrature_oracle(self, mu):
        cutoff = make_pl(mu)
        oracle, _ = integrate.quad(lambda x: (1 + x * x) ** -mu, 0.0, np.inf, limit=200)
        assert cutoff_constant(cutoff) == pytest.approx(oracle, rel=1e-9)


class TestHomogeneity:
    def test_broadband_coupling_scaling(self):
        em = EmitterSpec(1.0)
        base = BroadbandReservoir(coupling=2e-4, eta=1.5, omega_x=250.0)
        scaled = BroadbandReservoir(coupling=6e-4, eta=1.5, omega_x=250.0)
        c = 3.0
        for w in (0.3, 1.0, 700.0):
            assert evaluate_rsc(scaled, w) == pytest.approx(c * evaluate_rsc(base, w), rel=1e-14)
        assert golden_rule_rate(scaled, em) == pytest.approx(
            c * golden_rule_rate(base, em), rel=1e-14
        )
        assert zeno_slope(scaled) == pytest.approx(c * zeno_slope(base), rel=1e-14)

    def test_narrowband_g_squared_scaling(self):
        em = EmitterSpec(11.0)
        base = NarrowbandReservoir(g=0.5, kappa=1.0, omega_c=10.0)
        scaled = NarrowbandReservoir(g=0.5 * math.sqrt(7.0), kappa=1.0, omega_c=10.0)
        for w in (0.0, 10.0, 30.0):
            assert evaluate_rsc(scaled, w) == pytest.approx(7.0 * evaluate_rsc(base, w), rel=1e-13)
        assert golden_rule_rate(scaled, em) == pytest.approx(
            7.0 * golden_rule_rate(base, em), rel=1e-13
        )
        assert zeno_slope(scaled) == pytest.approx(7.0 * zeno_slope(base), rel=1e-13)


class TestValidation:
    def test_field_positivity(self):
        with pytest.raises(ValueError):
            BroadbandReservoir(coupling=0.0, eta=1.0, omega_x=1.0)
        with pytest.raises(ValueError):
            BroadbandReservoir(coupling=1e-3, eta=-0.1, omega_x=1.0)
        with pytest.raises(ValueError):
            NarrowbandReservoir(g=1.0, kappa=0.0, omega_c=1.0)
        with pytest.raises(ValueError):
            EmitterSpec(omega0=-1.0)
        with pytest.raises(ValueError, match="^t must be finite and > 0"):
            truncation_frequency(
                BroadbandReservoir(coupling=1e-3, eta=1.0, omega_x=250.0), EmitterSpec(1.0), 0.0
            )

    @pytest.mark.parametrize("eta", [170.0, 200.0])
    def test_exponential_mass_must_be_finite(self, eta):
        # lambda * omega_x**2 * Gamma(eta+1) overflows: at eta = 170 it is inf,
        # at eta = 200 math.gamma itself raises OverflowError
        with pytest.raises(ValueError, match=r"^eta must keep the RSC mass"):
            BroadbandReservoir(coupling=1e-3, eta=eta, omega_x=250.0)

    def test_power_lorentz_mu_domain(self):
        with pytest.raises(ValueError):
            PowerLorentzCutoff(mu=0.5)
        with pytest.warns(UserWarning):
            PowerLorentzCutoff(mu=2.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "name, build",
        [
            ("coupling", lambda v: BroadbandReservoir(coupling=v, eta=1.0, omega_x=1.0)),
            ("eta", lambda v: BroadbandReservoir(coupling=1e-3, eta=v, omega_x=1.0)),
            ("omega_x", lambda v: BroadbandReservoir(coupling=1e-3, eta=1.0, omega_x=v)),
            ("mu", lambda v: PowerLorentzCutoff(mu=v)),
            ("g", lambda v: NarrowbandReservoir(g=v, kappa=1.0, omega_c=1.0)),
            ("kappa", lambda v: NarrowbandReservoir(g=1.0, kappa=v, omega_c=1.0)),
            ("omega_c", lambda v: NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=v)),
            ("omega0", lambda v: EmitterSpec(omega0=v)),
            ("t", lambda v: decay_rate_numeric(
                BroadbandReservoir(coupling=1e-3, eta=1.0, omega_x=250.0),
                EmitterSpec(1.0), v)),
            ("t", lambda v: decay_rate_numeric_oracle(
                NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=20.0),
                EmitterSpec(20.0), v)),
            ("t", lambda v: truncation_frequency(
                BroadbandReservoir(coupling=1e-3, eta=1.0, omega_x=250.0),
                EmitterSpec(1.0), v, None)),
            ("t", lambda v: spectral_profile(0.3, v)),
            ("t", lambda v: kernel_zeros(v, 1.0, 2.0)),
            ("rel_tol", lambda v: QuadratureConfig(rel_tol=v)),
            ("tail_epsilon", lambda v: QuadratureConfig(tail_epsilon=v)),
            ("t", lambda v: narrowband_rate_resonant(
                NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=20.0), v)),
            ("t", lambda v: narrowband_rate_detuned(
                NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=20.0), EmitterSpec(21.0), v)),
            ("t", lambda v: broadband_resonant_part(
                BroadbandReservoir(coupling=1e-3, eta=2.0, omega_x=250.0),
                EmitterSpec(1.0), v, Regime.INTERMEDIATE)),
            ("t", lambda v: broadband_tail_part(
                BroadbandReservoir(coupling=1e-3, eta=2.0, omega_x=250.0),
                EmitterSpec(1.0), v, Regime.INTERMEDIATE)),
            ("t", lambda v: classify_regime(
                BroadbandReservoir(coupling=1e-3, eta=2.0, omega_x=250.0),
                EmitterSpec(1.0), v)),
            ("t", lambda v: survival_probability(v, 1.0)),
            ("rate", lambda v: survival_probability(1.0, v)),
            ("epsilon", lambda v: empirical_onset(
                RateCurve(times=[1.0], ratios=[1.0], error_estimates=[0.0],
                          regime_labels=("fermi",)), v)),
        ],
        ids=[
            "coupling", "eta", "omega_x", "mu", "g", "kappa", "omega_c", "omega0",
            "decay_rate_numeric-t", "oracle-t", "truncation_frequency-t", "spectral_profile-t", "kernel_zeros-t",
            "rel_tol", "tail_epsilon", "narrowband_rate_resonant-t",
            "narrowband_rate_detuned-t", "broadband_resonant_part-t",
            "broadband_tail_part-t", "classify_regime-t", "survival_probability-t",
            "survival_probability-rate", "empirical_onset-epsilon",
        ],
    )
    def test_rejects_non_finite(self, name, build, value):
        # infinities pass a `> 0` range check; each must be refused up front
        # with a ValueError naming the field, not crash deeper down
        with pytest.raises(ValueError, match=rf"^{name} must be finite"):
            build(value)

    def test_quality_factor(self):
        nb = NarrowbandReservoir(g=1.0, kappa=1.75e13, omega_c=3.5e14)
        assert nb.quality_factor == pytest.approx(10.0, rel=1e-14)
