"""Decay-rate quadrature: limits, invariances, oracle equivalence, budgets."""

import dataclasses
import functools
import json
import logging
import math
import os
import re
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest

from exact import exact_rate as closed_form_rate
from test_cli import BROAD_CONFIG, NARROW_CONFIG

from fgr import quadrature
from fgr.cli import _FIG1_ETAS, RunConfig, TimeGridSpec, _verify_cases
from fgr.errors import ConvergenceError
from fgr.kernel import zero_counts
from fgr.quadrature import (
    _CAPS,
    _EPS,
    _PHASE,
    _PHASE_CAP,
    _PROFILE,
    _SMOOTH,
    IntegrationResult,
    QuadratureConfig,
    _build_panels,
    _first_layout,
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


@pytest.fixture(scope="module")
def exact_rate():
    # 25-digit mpmath rates from benchmark/make_refs.py, which shares no
    # code with fgr
    bench = os.path.join(os.path.dirname(__file__), "..", "benchmark")
    sys.path.insert(0, bench)
    try:
        from make_refs import exact_rate
    finally:
        sys.path.remove(bench)
    return exact_rate


def first_layout_size(model, em, t, cfg):
    omega_max = truncation_frequency(model, em, t, cfg)
    floor = quadrature._rate_floor(model, em, t)
    panels, _ = _first_layout(model, em, t, omega_max, cfg.rel_tol, floor)
    return panels[0].size


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
        assert cfg.rel_tol == 1e-8

    def test_rejects_no_tolerance(self):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=0.0)

    def test_tail_epsilon_is_ignored_with_a_warning(self):
        # the cut follows rel_tol: a tail_epsilon that an old config sets
        # loads, warns, and changes no result
        with pytest.warns(FutureWarning, match="follows rel_tol"):
            old = QuadratureConfig(rel_tol=1e-10, tail_epsilon=1e-15)
        new = QuadratureConfig(rel_tol=1e-10)
        for model, em, t in [(bb(2.0), EM, 1.0), (*nb_resonant(10.0), 0.5)]:
            assert decay_rate_numeric(model, em, t, old) == decay_rate_numeric(model, em, t, new)

    @pytest.mark.parametrize("value,error", [(-1.0, 0.0), (math.nan, 0.0), (1.0, math.nan)])
    def test_result_invariants(self, value, error):
        with pytest.raises(ValueError, match="nonnegative numbers"):
            IntegrationResult(value=value, error_estimate=error, panels_used=1, truncation_frequency=1.0)

    def test_result_keeps_its_fields_exactly(self):
        # a frozen record: every bit comes back, and it compares and hashes
        # by its fields
        fields = (math.nextafter(0.1, 1.0), 5e-324, 2**32 - 1, math.inf)
        res = IntegrationResult(*fields)
        got = (res.value, res.error_estimate, res.panels_used, res.truncation_frequency)
        assert got == fields and type(got[2]) is int
        assert res == IntegrationResult(*fields) and hash(res) == hash(IntegrationResult(*fields))
        assert res != IntegrationResult(0.1, 5e-324, 2**32 - 1, math.inf)
        with pytest.raises(AttributeError):
            res.value = 1.0
        # both integrators hand back Python numbers, not numpy scalars
        for integrate in (decay_rate_numeric, decay_rate_numeric_oracle):
            res = integrate(bb(2.0), EM, 1.0, CFG)
            got = (res.value, res.error_estimate, res.panels_used, res.truncation_frequency)
            assert tuple(map(type, got)) == (float, float, int, float), integrate


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

    @pytest.mark.parametrize("w0t", [0.01, 1.0, 100.0, 1e4])
    @pytest.mark.parametrize("eta", [130.0, 150.0, 165.0])
    def test_broadband_large_eta(self, eta, w0t):
        # (omega/omega_x)**eta overflows below omega_max here, which made
        # the main integrator's value nan
        r = bb(eta)
        a = decay_rate_numeric(r, EM, w0t, CFG)
        b = decay_rate_numeric_oracle(r, EM, w0t, CFG)
        assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate

    def test_power_lorentz_cutoff(self):
        r = bb(1.5, cutoff=PowerLorentzCutoff(mu=4.0))
        a = decay_rate_numeric(r, EM, 5.0, CFG)
        b = decay_rate_numeric_oracle(r, EM, 5.0, CFG)
        assert abs(a.value - b.value) / a.value < 1e-8

    def test_each_node_evaluated_once(self, monkeypatch):
        # each grid's RSC is evaluated in one call on all its nodes, and the
        # two rules of its 16/8 pair share no node, so each node of a grid is
        # evaluated once: one grid for a line, and one on the Zeno side too,
        # where the subtracted kernel's ray ends where the standard one's
        # did and takes its RSC values. The evaluations count both kernels'
        calls = []
        rsc = quadrature._rsc_ray

        def record(reservoir, s, theta):
            calls.append(np.array(s).ravel())
            return rsc(reservoir, s, theta)

        monkeypatch.setattr(quadrature, "_rsc_ray", record)
        cfg = QuadratureConfig(rel_tol=1e-12)
        for model, em, t, kernels in ((*nb_resonant(q=1000.0), 1.0, 1), (bb(0.5), EM, 4e-6, 2)):
            calls.clear()
            res = decay_rate_numeric_oracle(model, em, t, cfg)
            (s,) = calls
            assert np.unique(s).size == s.size
            assert kernels * s.size == res.panels_used


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

    @pytest.mark.parametrize(
        "model,em,t,reference",
        [
            (bb(0.5), EM, 30.0, 0.09871843110693507),
            (NarrowbandReservoir(g=1e-3, kappa=0.05, omega_c=1.0), EM, 0.02, 1.9678612671256706e-08),
            (*nb_resonant(q=1000.0), 1e-3, 0.0009996234699997635),
        ],
        ids=["eta0.5-w0t30", "narrowband-kt1e-3", "narrowband-q1000-kt1e-3"],
    )
    def test_oracle_abscissae_near_zero_keep_their_digits(self, model, em, t, reference):
        # Zeno-side points, where the golden rule and a line's residue
        # cancel to O(kappa*t), and a late eta = 0.5 point
        res = decay_rate_numeric_oracle(model, em, t, QuadratureConfig(rel_tol=1e-12))
        assert abs(res.value - reference) <= res.error_estimate

    # late fig1 points, where rounding the global phase (omega - omega0)*t/2
    # of the sinc kernel would cost about eps*omega0*t; the references are
    # the 25-digit mpmath values of benchmark/refs (grid offset 1)
    LATE_FIG1 = [
        (eta, w0t) for eta in (0.5, 1.0, 2.0, 3.0) for w0t in (3278.1, 18434.2, 43714.4)
    ]

    @pytest.mark.parametrize("eta,w0t", LATE_FIG1)
    def test_late_fig1_within_error_estimate(self, eta, w0t):
        t, value, error = late_fig1_reference(eta, w0t)
        res = decay_rate_numeric(bb(eta), EM, t, CFG)
        assert abs(res.value - value) <= res.error_estimate + error


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

    def test_rejects_times_past_exact_half_lobe_indices(self):
        # omega0*t >= pi*2**53: half-lobe indices are no longer exact floats
        for integrator in (decay_rate_numeric, decay_rate_numeric_oracle):
            with pytest.raises(ValueError, match="t = 1e[+]19"):
                integrator(bb(0.5), EM, 1e19, CFG)
        # a line's centre counts too: omega_c*t = 3e16 at omega0*t = 1.5e15
        model, _ = nb_resonant(q=10.0)
        with pytest.raises(ValueError, match="too late"):
            decay_rate_numeric(model, EM, 1.5e15, CFG)

    def test_latest_accepted_time(self):
        # omega0*t = 2.5e16, just below the limit: the value the integrator
        # gave before the limit existed, without a RuntimeWarning, less
        # 3e-17 since the phase panels take pi/2's low part and 1e-17 since
        # the Gauss-Legendre pair is the Gauss-Jacobi builder's eta = 0 case
        # (its estimate 3e-18 larger, each within the estimates). The first
        # kernel zero rounds to omega = 0 here, so the half-lobe above it is
        # the stub, whose panel at the branch point takes the Gauss-Jacobi
        # pair: 72 panels fewer than the 9-decade stub, for the same value
        # and estimate
        res = decay_rate_numeric(bb(0.5), EM, 2.5e16, CFG)
        assert res == IntegrationResult(
            0.09894929280922661, 3.5565116712916034e-10, 40314, 9407.755278982137
        )

    def test_convergence_error_carries_best_result(self):
        cfg = QuadratureConfig(rel_tol=1e-16)
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
        expected = 250.0 * math.log(1.0 / (1e-4 * CFG.rel_tol)) + 10.0 * 250.0
        assert w == pytest.approx(expected, rel=1e-12)

    @staticmethod
    def power_lorentz_cut(r, t, cfg):
        # The cut starts at eps**(1/p) times omega_x, eps = 1e-4*rel_tol,
        # bit for bit, wherever that stays below 1e3*omega_x, and at
        # 1e3*omega_x as p = eta + 1 - 2*mu rises to 0 and beyond. It goes
        # out by the fewest whole decades whose tail bound is within
        # 1e-3*rel_tol of the rate floor, at most 40. Returns the decades
        # taken.
        p, eps = r.eta + 1.0 - 2.0 * r.cutoff.mu, 1e-4 * cfg.rel_tol
        x = 1e3 * r.omega_x
        if p < -1e-9 and math.log(eps) / p < math.log(1e3):
            x = min(r.omega_x * eps ** (1.0 / p), x)
        budget = 1e-3 * cfg.rel_tol * quadrature._rate_floor(r, EM, t)
        decades = 0
        while decades < 40 and quadrature._tail_bound(r, EM, t, x) > budget:
            x, decades = 10.0 * x, decades + 1
        assert truncation_frequency(r, EM, t, cfg) == x
        return decades

    def test_power_lorentz_cut_extends_by_decades(self):
        # over eta up to the mass edge 2*mu - 1 and up to the integrability
        # edge 2*mu + 1, both tolerances and three decades of t
        taken = set()
        for rel_tol in (1e-8, 1e-12):
            cfg = QuadratureConfig(rel_tol=rel_tol)
            for mu in (4.0, 8.0):
                etas = [np.linspace(0.0, 2.0 * mu + s, 41)[:-1] for s in (-1.0, 1.0)]
                for eta in np.concatenate(etas):
                    r = bb(float(eta), cutoff=PowerLorentzCutoff(mu=mu))
                    for t in (1e-2, 1.0, 1e3):
                        taken.add(self.power_lorentz_cut(r, t, cfg))
        # some cuts stay where they start, others go out, up to 40 decades
        # next to the integrability edge
        assert {0, 1, 40} <= taken
        # a light tail keeps the old cut below 1e3*omega_x
        r = bb(1.0, cutoff=PowerLorentzCutoff(mu=4.0))
        assert self.power_lorentz_cut(r, 1.0, CFG) == 0
        assert truncation_frequency(r, EM, 1.0, CFG) <= 1e3 * r.omega_x
        # p = -0.01: eps**(1/p) would overflow, and the cut starts at
        # 1e3*omega_x; so close to the RSC's mass edge the tail is heavy
        with pytest.warns(UserWarning):
            cutoff = PowerLorentzCutoff(mu=1.6)
        r = bb(2.19, cutoff=cutoff)
        assert self.power_lorentz_cut(r, 1.0, CFG) > 0

    def test_line_cut_at_tiny_times(self):
        # a line's span under the profile's envelope overflows at tiny t, or
        # divides by a product that has underflowed to 0 (from t ~ 1e-155);
        # the flat-profile span, the lesser there, keeps the cut finite, and
        # the point converges and agrees with the contour reference
        model, em = NarrowbandReservoir(1e-3, 0.05, 1.0), EmitterSpec(1.0)
        for t in (1e-300, 1e-200, 1e-155, 1e-150, 1e-100, 1e-20):
            res = decay_rate_numeric(model, em, t, CFG)
            ref = decay_rate_numeric_oracle(model, em, t, CFG)
            assert math.isfinite(truncation_frequency(model, em, t))
            assert abs(res.value - ref.value) <= res.error_estimate + ref.error_estimate, t

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
    def test_mass_edge_converges(self, rel_tol):
        # just below eta = 2*mu - 1 the tail beyond 1e3*omega_x is heavy;
        # the cut goes out until its tail bound is within the budget, and
        # the point converges and agrees with the contour reference. Under
        # a cut held at 1e3*omega_x it ended as a tail-bound ConvergenceError.
        with pytest.warns(UserWarning):
            cutoff = PowerLorentzCutoff(mu=1.6)
        model, t, cfg = bb(2.19, cutoff=cutoff), 10.0, QuadratureConfig(rel_tol=rel_tol)
        res = decay_rate_numeric(model, EM, t, cfg)
        ref = decay_rate_numeric_oracle(model, EM, t, cfg)
        assert abs(res.value - ref.value) <= res.error_estimate + ref.error_estimate
        assert res.truncation_frequency > 1e3 * model.omega_x
        tail = quadrature._tail_bound(model, EM, t, res.truncation_frequency)
        assert tail <= 1e-3 * rel_tol * quadrature._rate_floor(model, EM, t)

    def test_exponential_tail_mass_bounds_gammainc(self):
        # the closed-form tail mass against the exact upper incomplete gamma
        # Gamma(eta+1, omega_max/omega_x): never below it (but for rounding),
        # never above 1.5x, and within 1% at the default cut eps = 1e-12 for
        # eta <= 10; each cut eps = 1e-4*rel_tol is set through rel_tol
        epsilons = [1e-300, 1e-100, 1e-30, 1e-16, 1e-12, 1e-4, 0.1, 0.999]
        with mp.workdps(30):
            for eta in np.arange(0.0, 170.125, 0.25):
                r = BroadbandReservoir(coupling=1.0, eta=float(eta), omega_x=1.0)
                for eps in epsilons:
                    cfg = QuadratureConfig(rel_tol=1e4 * eps)
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
    @pytest.mark.parametrize(
        "model,em,t",
        [
            # high-Q late-time point whose zero block has ~1e4 lobes per side,
            # where a block edge counted apart from its neighbour's can lose a lobe
            (NarrowbandReservoir(g=1e-3, kappa=5e-4, omega_c=1.0), EM, 14467.883254733497),
            # more lobes left of the transition than the cap: a block at omega = 0
            (bb(0.5), EM, 77736.50302387758),
            # a far-detuned line: at the largest cap its block merges with
            # the transition's
            (NarrowbandReservoir(g=1e-3, kappa=1e-5, omega_c=1.0), EmitterSpec(2.0), 1e5),
            # ... or stands apart from it
            (NarrowbandReservoir(g=1e-3, kappa=1e-3, omega_c=5.0), EM, 1e5),
            # an early fractional eta: half-lobes wider than the cap 0.6*omega
            # that grows away from the branch point at omega = 0
            (bb(0.5), EM, 6.7e-4),
            # a line with kappa*t < pi inside the stub below the first zero
            (NarrowbandReservoir(g=1e-3, kappa=0.05, omega_c=1.0), EM, 0.02),
            # power-Lorentz half-lobes wider than 0.6*omega_x and than
            # 0.6*omega, cut to widths that grow past omega_x
            (bb(2.0, omega_x=10.0, cutoff=PowerLorentzCutoff(mu=4.0)), EM, 1e-2),
            (bb(2.5, omega_x=10.0, cutoff=PowerLorentzCutoff(mu=4.0)), EM, 1e-2),
            # a kernel zero on omega = 0, so that a half-lobe wider than the
            # cap there reaches the branch point: its first part is 2*omega_x
            # wide, then the cuts grade away from it (this raised
            # ZeroDivisionError)
            (bb(0.5, omega_x=1.0), EmitterSpec(2.0 * math.pi), 1.0),
        ],
        ids=[
            "resonant-high-q",
            "edge-block",
            "line-block-merged",
            "line-block-apart",
            "fractional-early",
            "line-in-stub",
            "power-lorentz-integer",
            "power-lorentz-fractional",
            "zero-on-the-branch-point",
        ],
    )
    def test_panels_tile_the_domain(self, model, em, t):
        # at the smallest and the largest block half-width
        omega_max = truncation_frequency(model, em, t, CFG)
        for cap in (_CAPS[0], _CAPS[-1]):
            self.check_tiling(model, em, t, omega_max, cap)

    def check_tiling(self, model, em, t, omega_max, cap):
        layout = _build_panels(model, em, t, omega_max, cap, zero_counts(t, em.omega0, omega_max))
        a, b, phase = self.check_layout(model, em, t, omega_max, layout)
        assert phase.any()
        if isinstance(model, NarrowbandReservoir):
            # the line centre lies inside a phase block
            assert np.any(phase & (a <= model.omega_c) & (b >= model.omega_c))

    def check_layout(self, model, em, t, omega_max, layout):
        # the tiling, width caps and run ends of a layout; returns its
        # panels' frequency edges and which are half-lobes
        a, b, m, kind = layout
        # phase panels carry local phase edges; compare them as frequencies
        phase = kind == _PHASE
        width = np.where(phase, (b - a) * (2.0 / t), b - a)
        a = np.where(phase, _phase_omega(em.omega0, t, m, a), a)
        b = np.where(phase, _phase_omega(em.omega0, t, m, b), b)
        self.check_caps(model, em, t, a, b, width, kind)
        assert a[0] == 0.0
        assert b[-1] == pytest.approx(omega_max, rel=1e-9)
        assert np.all(b > a)
        np.testing.assert_allclose(a[1:], b[:-1], rtol=1e-9, atol=0.0)
        # no envelope run reaches omega = 0, and each ends on a kernel zero
        # as the half-lobe edges compute it, bit for bit (or at omega_max)
        smooth = kind == _SMOOTH
        assert np.all(a[smooth] > 0.0)
        ends = np.concatenate(
            [a[smooth & ~np.roll(smooth, 1)], b[smooth & ~np.roll(smooth, -1)]]
        )
        ends = ends[ends != omega_max]
        k = np.round((ends - em.omega0) * t / (2.0 * math.pi))
        assert np.array_equal(ends, _phase_omega(em.omega0, t, 2 * k, 0.0))
        return a, b, phase

    def check_caps(self, model, em, t, a, b, width, kind):
        # Each panel [a, b] is at most clip(alpha*d, lo, hi) wide, d the
        # distance of its nearest point from p (a panel that reaches p at
        # most `at`), and a profile panel at most _PHASE_CAP/t: by
        # construction, up to the rounding of a half-lobe's frequencies.
        p, alpha, lo, hi, at = quadrature._model(model, em).width
        near = np.maximum(0.0, np.maximum(a - p, p - b))
        cap = np.clip(alpha * near, lo, hi)
        cap[near == 0.0] = at
        slack = 16.0 * _EPS * (np.abs(b) + em.omega0)
        assert np.all(width <= cap * (1.0 + 1e-12) + slack)
        profile = kind == _PROFILE
        assert np.all(width[profile] <= _PHASE_CAP / t * (1.0 + 1e-12))

    @pytest.mark.parametrize("grid", ["fig1", "narrowband"])
    def test_curve_layouts(self, grid, monkeypatch):
        # the checks above on every layout that each point of a curve grid
        # takes: fig1's default grid, or the eight narrowband onset curves
        # (Q = 1, 10, 100 and 1000 resonant, Q = 10 detuned by 0.4, 1, 2 and
        # 5 kappa) at kappa*t from 1e-3 to 1e3, 16 points a decade
        if grid == "fig1":
            times = TimeGridSpec(1e-4, 1e5, 16).times()
            points = [(bb(eta), EM, t) for eta in _FIG1_ETAS for t in times]
        else:
            points = []
            for q, d in [(1.0, 0.0), (10.0, 0.0), (100.0, 0.0), (1000.0, 0.0),
                         (10.0, 0.4), (10.0, 1.0), (10.0, 2.0), (10.0, 5.0)]:
                kappa = 0.5 / q
                model = NarrowbandReservoir(g=1e-3, kappa=kappa, omega_c=1.0)
                times = TimeGridSpec(1e-3 / kappa, 1e3 / kappa, 16).times()
                points += [(model, EmitterSpec(1.0 + d * kappa), t) for t in times]
        layouts, build = [], quadrature._build_panels

        def record(*args):
            layouts.append((args, build(*args)))
            return layouts[-1][1]

        monkeypatch.setattr(quadrature, "_build_panels", record)
        for model, em, t in points:
            _outcome(model, em, float(t), CFG)
        assert len(layouts) >= len(points)
        for (model, em, t, omega_max, *_), layout in layouts:
            self.check_layout(model, em, t, omega_max, layout)

    def test_fractional_early_point_stays_small(self):
        # Cutting a too-wide panel into equal parts gives all of it the cap
        # at its near end, the smallest of the cap 0.6*omega there; that made
        # this point 7,899 panels. The layout that bisected each panel until
        # it fit had 123 here.
        res = decay_rate_numeric(bb(0.5), EM, 6.7e-4, CFG)
        assert res.panels_used < 2 * 123

    def test_line_in_stub_value(self):
        # the line-in-stub point above, which the layout that bisected each
        # panel refined and this one converges in its first round
        model = NarrowbandReservoir(g=1e-3, kappa=0.05, omega_c=1.0)
        cfg = QuadratureConfig(rel_tol=1e-12)
        res = decay_rate_numeric(model, EM, 0.02, cfg)
        oracle = decay_rate_numeric_oracle(model, EM, 0.02, cfg)
        assert res.value == pytest.approx(oracle.value, rel=1e-10)
        # 25-digit mpmath value of the closed-form Lorentzian identity
        reference = 1.9678612671256706e-08
        assert abs(res.value - reference) <= res.error_estimate


def _stepping_cases():
    # callers of quadrature._steps, by name: the profile stub the builder
    # lays out from 0 to the first zero z left of omega0 at omega0*t = 10,
    # one uniform stretch; an envelope run from the cap-32 block's edge to
    # omega_max there, which turns uniform at the 2*omega_x cap; the layout
    # of that point, whose stub and runs take one call; the cuts of a
    # half-lobe on both sides of p, under a made-up cap with all three
    # stretches (no model's has: a line's and the power-Lorentz h_hi is inf,
    # and an exponential h_lo is 0 or alpha is 1); and every grid of the
    # contour reference's ray at two points
    t = 10.0
    z = _phase_omega(1.0, t, -2, 0.0)
    step = min(500.0, _PHASE_CAP / t)
    edge = _phase_omega(1.0, t, 64, 0.0)
    omega_max = truncation_frequency(bb(1.0), EM, t, CFG)
    run = quadrature._geom_run(edge - 1.0, omega_max - 1.0, 500.0)
    return {
        "stub": lambda: quadrature._steps(
            [(0.0, 0.0, z)], [(quadrature._PANELS_PER_DECADE, step)], quadrature._RUN_STRETCHES
        ),
        "run-to-uniform": lambda: quadrature._steps([run[0]], [run[1]], quadrature._RUN_STRETCHES),
        "layout": lambda: _build_panels(
            bb(1.0), EM, t, omega_max, _CAPS[0], zero_counts(t, EM.omega0, omega_max)
        ),
        "side-cuts": lambda: quadrature._graded_points(
            np.array([0.0, 30.0]), (10.0, 0.5, 0.1, 2.0, 0.1)
        ),
        "ray-broadband": lambda: decay_rate_numeric_oracle(bb(2.0), EM, t, CFG),
        "ray-line": lambda: decay_rate_numeric_oracle(*nb_resonant(10.0), 1.0, CFG),
    }


STEPPING_CASES = _stepping_cases()


@pytest.mark.parametrize("case", list(STEPPING_CASES))
def test_stepping_contract(case, monkeypatch):
    # Every stretch of every sequence of a _steps call (the bounds[i][j] to
    # bounds[i][j + 1] of row i, step[i][j], geometric[j]) ends on an edge
    # exactly and takes the fewest panels that keep it within its bound:
    # equal steps at most step wide, or equal ratios at most 10**(1/step).
    calls = []
    steps = quadrature._steps

    def spy(bounds, step, geometric):
        edges, counts = steps(bounds, step, geometric)
        calls.append((bounds, step, geometric, edges, counts))
        return edges, counts

    monkeypatch.setattr(quadrature, "_steps", spy)
    STEPPING_CASES[case]()
    assert calls
    kinds = set()
    for bounds, step, geometric, flat, counts in calls:
        assert len(counts) == len(bounds) and sum(counts) == flat.size
        ends = np.cumsum(counts)
        for row, widths, count, last in zip(bounds, step, counts, ends):
            # the row's edges, its first bound before them
            edges = np.append(row[0], flat[last - count : last])
            assert np.all(np.diff(edges) > 0.0)
            i = 0
            for start, end, h, g in zip(row, row[1:], widths, geometric):
                if end <= edges[i]:
                    continue
                j = int(np.searchsorted(edges, end))
                assert edges[i] == start and edges[j] == end
                part, n = edges[i : j + 1], j - i
                if g:
                    bound, ratios = 10.0 ** (1.0 / h), part[1:] / part[:-1]
                    np.testing.assert_allclose(ratios, (end / part[0]) ** (1.0 / n), rtol=1e-12)
                    assert np.all(ratios <= bound * (1.0 + 1e-14))
                    assert n == 1 or (end / part[0]) ** (1.0 / (n - 1)) > bound
                else:
                    widths_ = np.diff(part)
                    np.testing.assert_allclose(widths_, (end - part[0]) / n, rtol=1e-10)
                    assert np.all(widths_ <= h * (1.0 + 1e-12))
                    assert n == 1 or (end - part[0]) / (n - 1) > h
                kinds.add(g)
                i = j
            assert i == edges.size - 1 and edges[-1] == max(row[0], row[-1])
    # the stub is one uniform stretch; every other case has uniform and
    # geometric stretches
    assert kinds == ({False} if case == "stub" else {True, False})


class TestFarField:
    # Envelope runs carry the far field -int S cos(delta*t) as a boundary
    # term plus an O(t**-4) remainder, so each point's first layout is its
    # last unless bisection is needed. The references are 25-digit values of
    # benchmark/make_refs.py::exact_rate.

    def one_round(self, model, em, t, cfg):
        first = first_layout_size(model, em, t, cfg)
        res = decay_rate_numeric(model, em, t, cfg)
        assert res.panels_used == first
        return res

    def test_edge_block_converges_in_one_round(self):
        # the late eta = 0.5 point that once needed a fourfold wider zero block
        res = self.one_round(bb(0.5), EM, 77736.50302387758, CFG)
        assert abs(res.value - 0.09894920211783992) <= res.error_estimate

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
    def test_no_envelope_run_starts_at_zero(self, exact_rate, rel_tol):
        # eta = 0: a run left of the transition that began at 1.1e-16 instead
        # of 0 skipped the S(0)/t edge term, missing its estimate 1,280-fold
        model, t = BroadbandReservoir(1e-3, 0.0, 57.39741625910708), 126577.15353015346
        res = self.one_round(model, EM, t, QuadratureConfig(rel_tol=rel_tol))
        reference = exact_rate(model, EM, t)
        assert abs(res.value - reference) <= res.error_estimate

    def test_strict_tolerance_in_one_round(self, exact_rate):
        # an eta = 2 point where the divided-difference bound on the dropped
        # oscillation could not be brought under rel_tol 1e-12
        model, t = bb(2.0, omega_x=590.716), 80.296
        res = self.one_round(model, EM, t, QuadratureConfig(rel_tol=1e-12))
        assert abs(res.value - exact_rate(model, EM, t)) <= res.error_estimate

    def test_far_detuned_line(self, exact_rate):
        # the Lorentzian peak lies 15,915 lobes below the transition, outside
        # its block: without a block of its own the far-field bound is 3x
        # the value
        model, em = NarrowbandReservoir(g=1e-3, kappa=1e-5, omega_c=1.0), EmitterSpec(2.0)
        t = 1.0 / model.kappa
        res = self.one_round(model, em, t, CFG)
        assert abs(res.value - exact_rate(model, em, t)) <= res.error_estimate

    def test_line_detuning_formed_from_its_lobe(self, exact_rate):
        # the same line at rel_tol 1e-12: with omega - omega_c formed from a
        # rounded omega, each node near the line carried eps*omega_c/kappa of
        # relative error, and the value missed by 1.7e-12 relative, 2.7 times
        # its estimate. Formed from its lobe the value is within 1e-13. Its
        # estimate counts what rounding the line's position on the half-lobes
        # could cost (_line_shift), 1e-11 of the value here, so the point is
        # flagged at 1e-12, as the contour reference flags it
        model, em = NarrowbandReservoir(g=1e-3, kappa=1e-5, omega_c=1.0), EmitterSpec(2.0)
        t = 1.0 / model.kappa
        exact, cfg = exact_rate(model, em, t), QuadratureConfig(rel_tol=1e-12)
        res, converged = _outcome(model, em, t, cfg)
        assert not converged and res.panels_used == first_layout_size(model, em, t, cfg)
        assert abs(res.value - exact) <= min(res.error_estimate, 1e-13 * exact)
        assert not _oracle_outcome(model, em, t, cfg)[1]

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
    def test_far_detuned_line_in_the_stub(self, rel_tol):
        # k_left = 0 puts the line on profile panels, which take its
        # detuning from the panel's left end; from the rounded node omega
        # the value missed its estimate 3.16-fold at rel_tol 1e-8.
        # Against make_refs.exact_rate at 45 digits
        model = NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=48507.366611725585)
        em, t = EmitterSpec(901318.3673434687), 1.900273199920703e-11
        res = decay_rate_numeric(model, em, t, QuadratureConfig(rel_tol=rel_tol))
        assert abs(res.value - 1.900260730102253e-11) <= res.error_estimate

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
    def test_far_detuned_line_on_half_lobes(self, rel_tol):
        # the line lies 76,554 half-lobes below the transition, where its
        # position on their exact phases is off by rounding: about 6e-11 of
        # its phase (omega_c - omega0)*t = -2.4e5, most of the error. The
        # estimate counts it, so at rel_tol 1e-12 the point is flagged, as
        # the contour reference flags it (TestContourReference); against
        # make_refs.exact_rate at 45 digits
        model = NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=88557.75424499437)
        em, t = EmitterSpec(4408811.286910328), 0.05566859555858959
        res, converged = _outcome(model, em, t, QuadratureConfig(rel_tol=rel_tol))
        assert abs(res.value - 9.917502022217587e-13) <= res.error_estimate
        assert converged == (rel_tol == 1e-8)

    @pytest.mark.parametrize(
        "eta,omega_x,reference",
        [
            (1.5, 100.0, 0.000622066656882241),
            (0.5, 250.0, 0.09894929283575281),
            (4.0, 1e4, 1.0282957080130803e-14),
        ],
        ids=["eta1.5", "eta0.5", "eta4"],
    )
    def test_run_ends_are_zeros_to_rounding(self, eta, omega_x, reference):
        # At omega0*t = 1e12 a run end's phase (z - omega0)*t is off a
        # multiple of 2*pi by about eps*omega0*t, so each end leaves an
        # S*sin(delta*t)/t term of about 2R*eps*omega0*t/(2*pi*c)**2; without
        # its bound these points missed by 3.25, 2.42 and 2.76 times the
        # estimate. The references are exact_rate's, at 40 digits for eta = 4
        # (25 digits lose 6.7e-13 relative there).
        res = decay_rate_numeric(bb(eta, omega_x=omega_x), EM, 1e12, CFG)
        assert abs(res.value - reference) <= res.error_estimate

    @pytest.mark.parametrize(
        "model,em,t",
        [
            (bb(0.5), EM, 77736.50302387758),
            (NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=4.36), EmitterSpec(14.83), 8515.0),
        ],
        ids=["edge-block", "detuned-line"],
    )
    def test_tolerance_sets_the_cap(self, exact_rate, model, em, t):
        # at rel_tol 1e-8 a block a tenth of the largest bounds the far field
        # (an eta = 0.5 point with 40,160 panels at the largest cap, and a
        # line with kappa*t = 8515 that needs no block of 60,288 panels);
        # rel_tol 1e-12 takes a wider one
        omega_max = truncation_frequency(model, em, t, CFG)
        top = _build_panels(model, em, t, omega_max, _CAPS[-1], zero_counts(t, em.omega0, omega_max))[0].size
        reference = exact_rate(model, em, t)
        used = []
        for rel_tol in (1e-8, 1e-12):
            res = self.one_round(model, em, t, QuadratureConfig(rel_tol=rel_tol))
            assert abs(res.value - reference) <= res.error_estimate
            used.append(res.panels_used)
        assert used[0] < 0.1 * top
        assert used[0] < used[1] <= top


def fig1_points():
    """(model, emitter, t) over `fgr figure fig1`'s default grid."""
    grid = TimeGridSpec(1e-4, 1e5, 16).times()
    return [(bb(eta), EM, float(t)) for eta in _FIG1_ETAS for t in grid]


def config_points(config):
    """(model, emitter, t) over a CLI config's grid, and its rel_tol."""
    run = RunConfig.from_json_dict(config)
    points = [(run.model, run.emitter, float(t)) for t in run.time_grid.times()]
    return points, run.quadrature.rel_tol


class TestCapLadder:
    # Every point builds and probes the caps in turn and takes the first
    # its probe accepts: every cap below the one a point takes must fail
    # that probe.

    def check_ladder(self, monkeypatch, points, rel_tol):
        # the number of layouts built
        built = []
        build = quadrature._build_panels

        def counted(*args):
            built.append(args[4])
            return build(*args)

        monkeypatch.setattr(quadrature, "_build_panels", counted)
        cfg = QuadratureConfig(rel_tol=rel_tol)
        for model, em, t in points:
            omega_max = truncation_frequency(model, em, t, cfg)
            floor = quadrature._rate_floor(model, em, t)
            _first_layout(model, em, t, omega_max, rel_tol, floor)
            taken, lobes = built[-1], zero_counts(t, em.omega0, omega_max)
            for cap in _CAPS[: _CAPS.index(taken)]:
                a, b, _, kind = build(model, em, t, omega_max, cap, lobes)
                bound = quadrature._envelope_terms(model, em, t, a, b, kind)[2]
                assert bound > 0.25 * rel_tol * floor, (model, t, cap, taken)
        return len(built)

    def test_fig1(self, monkeypatch):
        # the ladder builds 852 layouts for these 725 points
        assert self.check_ladder(monkeypatch, fig1_points(), 1e-8) == 852

    @pytest.mark.parametrize("config", [BROAD_CONFIG, NARROW_CONFIG], ids=["broad", "narrow"])
    def test_golden_configs(self, monkeypatch, config):
        self.check_ladder(monkeypatch, *config_points(config))

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
    def test_property_points(self, monkeypatch, rel_tol):
        self.check_ladder(monkeypatch, [p[1:] for p in PROPERTY_POINTS], rel_tol)

    def test_cap_decision_logged(self, caplog):
        # eta = 3 at a fig1 time and rel_tol 1e-12, whose cut at eps = 1e-16
        # holds 18635 lobes: the probe rejects 32, 128 and 512 and takes 2048
        t, cfg = 10.0, QuadratureConfig(rel_tol=1e-12)
        with caplog.at_level(logging.INFO, logger="fgr"):
            decay_rate_numeric(bb(3.0), EM, t, cfg)
        assert not caplog.records
        with caplog.at_level(logging.DEBUG, logger="fgr"):
            decay_rate_numeric(bb(3.0), EM, t, cfg)
        assert [r.getMessage() for r in caplog.records] == [
            "t=10.0, 18635 lobes: took cap 2048; probed and rejected: [32, 128, 512]"
        ]


def property_points(seed=12):
    """A seeded grid of (id, model, emitter, t), all with omega0*t <= 1e5.

    Twelve exponential-cutoff points with eta <= 4 and omega_x/omega0 in
    [10, 1e4], and twelve Lorentzian lines with Q <= 1000: resonant, detuned
    by 5 to 100 kappa, or with omega0 in [0.05, 4]*omega_c. The last four of
    each family lie where a fixed 200-lobe block failed at rel_tol 1e-12:
    eta >= 1.4 at omega0*t <= 3, and detuned lines with kappa*t in [3.6, 240].
    """
    rng = np.random.default_rng(seed)
    points = []
    for i in range(12):
        hard = i >= 8
        eta = rng.uniform(1.4 if hard else 0.0, 4.0)
        omega_x = 10.0 ** rng.uniform(1.0, 4.0)
        w0t = 10.0 ** (rng.uniform(-0.5, 0.5) if hard else rng.uniform(-3.0, 5.0))
        points.append((f"bb-{i}", bb(eta, omega_x=omega_x), EM, w0t))
    for i in range(12):
        q = 10.0 ** rng.uniform(0.0, 3.0)
        model = NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=2.0 * q)
        if i < 3:
            omega0 = model.omega_c
        elif i < 8 and i % 2:
            omega0 = model.omega_c * rng.uniform(0.05, 4.0)
        else:
            omega0 = model.omega_c + rng.uniform(5.0, 100.0)
        kt = 10.0 ** (rng.uniform(math.log10(3.6), math.log10(240.0)) if i >= 8
                      else rng.uniform(-3.0, 3.0))
        t = min(kt / model.kappa, 1e5 / omega0)
        points.append((f"nb-{i}", model, EmitterSpec(omega0), t))
    return points


PROPERTY_POINTS = property_points()

# benchmark/make_refs.py::exact_rate(model, emitter, t) at its 25 digits for
# each point of PROPERTY_POINTS, pasted as repr floats: printing
# {name: exact_rate(model, em, t)} over property_points() gives this table
PROPERTY_REFERENCES = {
    "bb-0": 0.3313059777618677,
    "bb-1": 0.08564595862006567,
    "bb-2": 3.2961175371199935e-05,
    "bb-3": 0.000158172753256153,
    "bb-4": 0.056803968167223155,
    "bb-5": 6.897785907523317e-05,
    "bb-6": 0.005404604380643518,
    "bb-7": 3.0101912359188717e-07,
    "bb-8": 0.002278673985439304,
    "bb-9": 0.00578080387423292,
    "bb-10": 0.0013643030783972046,
    "bb-11": 0.0016144148587831765,
    "nb-0": 1.995726196936993,
    "nb-1": 1.5072450927485983,
    "nb-2": 0.0851901603316908,
    "nb-3": 0.010442958424571162,
    "nb-4": 0.0005476795062776494,
    "nb-5": 0.00019346036903255525,
    "nb-6": 0.0029353817729841354,
    "nb-7": 1.3010686251680983e-06,
    "nb-8": 0.0002640745362609922,
    "nb-9": 0.0007555758359410427,
    "nb-10": 0.0005168260426170003,
    "nb-11": 0.00023694252062227578,
}


class TestExactProperty:
    # every point of the seeded grid converges at every tolerance, within
    # its own estimate of the 25-digit rate; a failure here is a finding
    # to record, not a case to drop

    def test_table_covers_the_grid(self):
        assert list(PROPERTY_REFERENCES) == [p[0] for p in PROPERTY_POINTS]

    @pytest.mark.parametrize("name", ["bb-0", "nb-0"])
    def test_table_is_exact_rate(self, exact_rate, name):
        # one live reference per family, so the table stays the one
        # exact_rate gives
        _, model, em, t = next(p for p in PROPERTY_POINTS if p[0] == name)
        reference = PROPERTY_REFERENCES[name]
        assert exact_rate(model, em, t) == pytest.approx(reference, rel=1e-14)

    def test_table_is_the_closed_form(self):
        # the exponential-cutoff rows, which make_refs.py integrates in the
        # time domain, are the closed form of tests/exact.py to the last bit
        for name, model, em, t in PROPERTY_POINTS[:12]:
            assert closed_form_rate(model, em, t) == PROPERTY_REFERENCES[name], name

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-12, 1e-13])
    @pytest.mark.parametrize(
        "point", PROPERTY_POINTS, ids=[p[0] for p in PROPERTY_POINTS]
    )
    def test_within_estimate_of_exact_rate(self, point, rel_tol):
        name, model, em, t = point
        res = decay_rate_numeric(model, em, t, QuadratureConfig(rel_tol=rel_tol))
        assert abs(res.value - PROPERTY_REFERENCES[name]) <= res.error_estimate


def late_fig1_reference(eta, w0t):
    """(t, value, error) of the 25-digit mpmath point of benchmark/refs
    (grid offset 1) nearest omega0*t = w0t on the fig1 curve of eta."""
    path = os.path.join(
        os.path.dirname(__file__), "..", "benchmark", "refs", "fig1_broadband-offset1.json"
    )
    with open(path) as fh:
        curve = next(c for c in json.load(fh)["curves"] if c["eta"] == eta)
    i = min(range(len(curve["t"])), key=lambda k: abs(curve["t"][k] - w0t))
    assert curve["source"][i] == "mpmath" and abs(curve["t"][i] - w0t) < 0.1
    return curve["t"][i], curve["value"][i], curve["error"][i]


# pasted mpmath rates: benchmark/make_refs.py::exact_rate at 25 digits, and
# at 60 digits where 25 are short (eta = 4 at omega0*t = 1e12, eta = 100)
PASTED_REFERENCES = [
    ("eta2-w0t0.1", bb(2.0), EM, 0.1, 0.020412734391204283),
    ("eta0.5-w0t30", bb(0.5), EM, 30.0, 0.09871843110693507),
    (
        "narrowband-kt1",
        NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=20.0),
        EmitterSpec(20.0),
        1.0,
        0.7357292394136496,
    ),
    (
        "narrowband-kt1e-3",
        NarrowbandReservoir(g=1e-3, kappa=0.05, omega_c=1.0),
        EM,
        0.02,
        1.9678612671256706e-08,
    ),
    ("narrowband-q1000-kt1e-3", *nb_resonant(q=1000.0), 1e-3, 0.0009996234699997635),
    ("eta4-wx1e4-w0t1e12", bb(4.0, omega_x=1e4), EM, 1e12, 1.0282957080130803e-14),
    ("eta100-w0t100", bb(100.0), EM, 100.0, 1.8855320077127786e149),
    # the Zeno side, the four broadband `fgr verify` points, where the
    # golden rule and the ray cancel about 2,000-fold and the reference
    # takes the kernel with the pole at omega0 subtracted at rel_tol 1e-12
    ("eta0.5-w0t4e-6", bb(0.5), EM, 4e-6, 0.0002215566623480085),
    ("eta1-w0t4e-6", bb(1.0), EM, 4e-6, 0.0002499998753330831),
    ("eta2-w0t4e-6", bb(2.0), EM, 4e-6, 0.000499999500999832),
    ("eta3-w0t4e-6", bb(3.0), EM, 4e-6, 0.001499997504001492),
    (
        "line-q0.15-kt1e-4",
        NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=0.3),
        EmitterSpec(0.5),
        1e-4,
        5.927569138851377e-05,
    ),
]


class TestContourReference:
    # the contour reference lands within its own estimate of every pasted
    # mpmath rate, at the curve, benchmark and strict tolerances; a miss is
    # a finding to record

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-10, 1e-12])
    @pytest.mark.parametrize(
        "name,model,em,t,reference", PASTED_REFERENCES, ids=[p[0] for p in PASTED_REFERENCES]
    )
    def test_pasted_reference(self, name, model, em, t, reference, rel_tol):
        res = decay_rate_numeric_oracle(model, em, t, QuadratureConfig(rel_tol=rel_tol))
        assert abs(res.value - reference) <= res.error_estimate

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
    @pytest.mark.parametrize("point", PROPERTY_POINTS, ids=[p[0] for p in PROPERTY_POINTS])
    def test_property_reference(self, point, rel_tol):
        name, model, em, t = point
        res = decay_rate_numeric_oracle(model, em, t, QuadratureConfig(rel_tol=rel_tol))
        assert abs(res.value - PROPERTY_REFERENCES[name]) <= res.error_estimate

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
    @pytest.mark.parametrize("eta,w0t", TestInvariances.LATE_FIG1)
    def test_late_fig1_reference(self, eta, w0t, rel_tol):
        t, value, error = late_fig1_reference(eta, w0t)
        res = decay_rate_numeric_oracle(bb(eta), EM, t, QuadratureConfig(rel_tol=rel_tol))
        assert abs(res.value - value) <= res.error_estimate + error

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
    def test_far_detuned_line(self, rel_tol):
        # the residue's phase (omega_c - omega0)*t is about -2.4e5 here, and
        # its rounding is most of the error; against make_refs.exact_rate at
        # 45 digits. At rel_tol 1e-12 the reference flags the point
        model = NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=88557.75424499437)
        em = EmitterSpec(4408811.286910328)
        cfg = QuadratureConfig(rel_tol=rel_tol)
        res, _ = _oracle_outcome(model, em, 0.05566859555858959, cfg)
        assert abs(res.value - 9.917502022217587e-13) <= res.error_estimate

    def test_zeno_side_takes_the_subtracted_kernel(self, monkeypatch):
        # at rel_tol 1e-12 the golden rule and the ray cancel 2,000-fold at
        # omega0*t = 4e-6, and the second pass along the ray is kept
        calls = []
        phi2 = quadrature._phi2

        def record(w):
            calls.append(w.size)
            return phi2(w)

        monkeypatch.setattr(quadrature, "_phi2", record)
        res = decay_rate_numeric_oracle(bb(0.5), EM, 4e-6, QuadratureConfig(rel_tol=1e-8))
        assert calls == []
        res12 = decay_rate_numeric_oracle(bb(0.5), EM, 4e-6, QuadratureConfig(rel_tol=1e-12))
        assert sum(calls) == res12.panels_used - res.panels_used
        assert res12.error_estimate < 1e-14 * res12.value < res.error_estimate

    def test_point_logged(self, caplog):
        # one DEBUG line per point: its ray's end and decades, its cost, the
        # kernel kept and the estimate's terms, which sum to the estimate
        cfg = QuadratureConfig(rel_tol=1e-12)
        with caplog.at_level(logging.INFO, logger="fgr"):
            decay_rate_numeric_oracle(bb(0.5), EM, 4e-6, cfg)
        assert not caplog.records
        with caplog.at_level(logging.DEBUG, logger="fgr"):
            res = decay_rate_numeric_oracle(bb(0.5), EM, 4e-6, cfg)
        (message,) = [r.getMessage() for r in caplog.records]
        number = r"([-+.e\d]+)"
        match = re.fullmatch(
            rf"t=4e-06: ray ends at \|omega\| = {number}, (\d+) decades past its "
            rf"first end; (\d+) evaluations, kept the subtracted kernel; estimate "
            rf"{number} = rule difference {number} \+ tail {number} \+ rounding "
            rf"{number} \+ phase {number}",
            message,
        )
        assert match, message
        end, decades, evals, err, *terms = match.groups()
        assert end == f"{res.truncation_frequency:.3e}"
        first = 4.0 * max(EM.omega0, bb(0.5).omega_x)
        assert float(end) == pytest.approx(first * 10.0 ** int(decades), rel=1e-3)
        assert int(evals) == res.panels_used
        assert err == f"{res.error_estimate:.3e}"
        assert sum(map(float, terms)) == pytest.approx(res.error_estimate, rel=1e-3)
        assert float(terms[-1]) == 0.0


def _standard_envelope(t, d):
    # |kernel|/|R| beyond a distance d from omega0 along the ray
    return 4.0 / (t * d * d)


def _subtracted_envelope(t, d):
    # the same for the kernel with the pole at omega0 subtracted
    return min(t, 2.0 / d + 4.0 / (t * d * d))


def test_ray_end_is_the_first_decade_within_the_tail_limit():
    # the reference's ray ends at the first of 4*max(omega0, its RSC's
    # scale)*10**k whose closed-form tail bound meets 1e-3*rel_tol*floor,
    # chosen before any evaluation; the end a decade before it does not.
    # The 20 `fgr verify` points, a line and a power-Lorentz tail whose RSC
    # mass diverges keep the standard kernel at rel_tol 1e-8; the Zeno side
    # keeps the subtracted one, sized by its own envelope
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        heavy = bb(2.0, cutoff=PowerLorentzCutoff(mu=1.6))
    points = [(model, em, t, 1e-8, _standard_envelope) for _, model, em, t in _verify_cases()]
    points += [
        (NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=20.0), EmitterSpec(20.0), 1.0, 1e-8, _standard_envelope),
        (heavy, EM, 10.0, 1e-8, _standard_envelope),
        (bb(0.5), EM, 4e-6, 1e-12, _subtracted_envelope),
    ]
    decades = []
    for model, em, t, rel_tol, envelope in points:
        res = decay_rate_numeric_oracle(model, em, t, QuadratureConfig(rel_tol=rel_tol))
        end = res.truncation_frequency
        record = quadrature._model(model, em)
        first = 4.0 * max(em.omega0, record.scale)
        k = round(math.log10(end / first))
        assert end == pytest.approx(first * 10.0**k, rel=1e-12), (model, t)
        theta = record.theta
        limit = 1e-3 * rel_tol * quadrature._rate_floor(model, em, t)

        def tail(end):
            return quadrature._ray_tail(model, em, t, theta, functools.partial(envelope, t), end)

        assert tail(end) <= limit, (model, t)
        assert k == 0 or tail(end / 10.0) > limit, (model, t)
        decades.append(k)
    # the heavy tail runs several decades further than any verify point
    assert decades[-2] > max(decades[:20])


# 30-digit power-Lorentz rates, mu = 4, coupling 1e-3, omega_x = 250,
# omega0 = 1, computed on the real axis, not along the reference's ray:
#   Gamma(t) = (2/t) int_0^inf R(w) (1 - cos(d t))/d**2 dw,  d = w - omega0,
# in mpmath at 40 digits, on [0, omega0 + A] by mp.quad split at the kernel
# zeros omega0 + 2*pi*k/t, and beyond it as mp.quad of R/d**2 less
# mp.quadosc of R*cos(d t)/d**2 (zeros at omega0 + (k + 1/2)*pi/t); A = 50
# and A = 200 agree to 1e-33 or better
POWER_LORENTZ_TRUTH = [
    (1.0, 0.1, "0.060089612719864065201606261768451"),
    (1.0, 10.0, "0.0069962633149990609099280616499843"),
    (2.0, 0.1, "0.010205412016378153545696036612317"),
    (2.0, 10.0, "0.00012983956565391644459422225179257"),
]


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
@pytest.mark.parametrize("integrator", [decay_rate_numeric, decay_rate_numeric_oracle])
@pytest.mark.parametrize("eta,w0t,truth", POWER_LORENTZ_TRUTH)
def test_power_lorentz_truth(eta, w0t, truth, integrator, rel_tol):
    model = bb(eta, cutoff=PowerLorentzCutoff(mu=4.0))
    res = integrator(model, EM, w0t, QuadratureConfig(rel_tol=rel_tol))
    assert abs(res.value - float(truth)) <= res.error_estimate


def sweep_points(seed=11, n=600):
    """A seeded sweep of (family, model, emitter, t), one family in turn.

    Exponential cutoff: eta in [0, 4], omega_x/omega0 in [10, 1e4],
    omega0*t in [1e-4, 2e5]. Lorentzian: Q in [1, 1e3], resonant, detuned
    by 5 to 100 kappa, or with omega0 in [0.05, 4]*omega_c; kappa*t in
    [1e-3, 1e3] with omega0*t <= 2e5. Power-Lorentz: mu in {1.6, 2, 4, 8},
    eta < min(4, 2*mu + 1), half of them (where it lies below 4) within
    1e-3 to 1 of eta = 2*mu - 1, where the RSC mass starts to diverge;
    omega0*t in [1e-3, 1e5].
    """
    rng = np.random.default_rng(seed)
    points = []
    for i in range(n):
        family = ("exponential", "lorentzian", "power_lorentz")[i % 3]
        if family == "lorentzian":
            q = 10.0 ** rng.uniform(0.0, 3.0)
            model = NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=2.0 * q)
            kind = rng.integers(3)
            if kind == 0:
                omega0 = model.omega_c
            elif kind == 1:
                omega0 = model.omega_c + rng.uniform(5.0, 100.0)
            else:
                omega0 = model.omega_c * rng.uniform(0.05, 4.0)
            t = min(10.0 ** rng.uniform(-3.0, 3.0), 2e5 / omega0)
            points.append((family, model, EmitterSpec(omega0), t))
            continue
        omega_x = 10.0 ** rng.uniform(1.0, 4.0)
        if family == "exponential":
            model = bb(rng.uniform(0.0, 4.0), omega_x=omega_x)
            t = 10.0 ** rng.uniform(-4.0, math.log10(2e5))
        else:
            mu = float(rng.choice([1.6, 2.0, 4.0, 8.0]))
            edge = 2.0 * mu - 1.0
            if edge < 4.0 and rng.uniform() < 0.5:
                eta = edge + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 0.0)
            else:
                eta = rng.uniform(0.0, min(4.0, 2.0 * mu + 1.0))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                cutoff = PowerLorentzCutoff(mu=mu)
            model = bb(eta, omega_x=omega_x, cutoff=cutoff)
            t = 10.0 ** rng.uniform(-3.0, 5.0)
        points.append((family, model, EM, t))
    return points


@pytest.fixture(scope="session")
def sweep_outcomes():
    """{rel_tol: [((main, converged), (reference, converged)) per point of
    sweep_points()]} at rel_tol 1e-8 and 1e-12: both integrators as the
    module defines them, run once per session for every test that reads
    the sweep. A fixture is set up before the test body runs, so no
    monkeypatch of the test that first asks for it reaches these runs."""
    points = sweep_points()
    out = {}
    for rel_tol in (1e-8, 1e-12):
        cfg = QuadratureConfig(rel_tol=rel_tol)
        out[rel_tol] = [
            (_outcome(*p[1:], cfg), _oracle_outcome(*p[1:], cfg)) for p in points
        ]
    return out


class TestSeededSweep:
    # each point is one layout, and nothing raises but ConvergenceError

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
    def test_no_point_is_flagged(self, sweep_outcomes, rel_tol):
        # the power-Lorentz points too: their cut goes out until the tail
        # bound fits the tolerance (66 and 88 were flagged on a cut held
        # at 1e3*omega_x)
        flagged = [
            point
            for point, ((_, converged), _) in zip(sweep_points(), sweep_outcomes[rel_tol])
            if not converged
        ]
        assert flagged == []

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
    def test_reference_converges_and_agrees(self, sweep_outcomes, rel_tol):
        # the contour reference flags no point, and lies within the summed
        # estimates of every point the main integrator converges on
        flagged, apart = [], []
        for point, ((main, converged), (ref, ok)) in zip(
            sweep_points(), sweep_outcomes[rel_tol]
        ):
            if not ok:
                flagged.append(point)
            elif converged and abs(main.value - ref.value) > main.error_estimate + ref.error_estimate:
                apart.append(point)
        assert flagged == [] and apart == []


# where the off-resonant part (2/t)*M of the rate floor would exceed the
# value were it taken before t*omega_x = 1: t*omega_x = 0.039 here, and the
# floor from the moment over (0, inf) was 17.7 times the value, which made
# the point flag at rel_tol 1e-12
with warnings.catch_warnings():
    warnings.simplefilter("ignore", UserWarning)
    FLOOR_TRAP = (
        bb(3.0047722037237885, omega_x=11.318204990069237, cutoff=PowerLorentzCutoff(mu=2.0)),
        EM,
        0.003452421517548926,
    )


def test_rate_floor_is_below_the_rate(sweep_outcomes):
    # _rate_floor scales the far-field budget and the power-Lorentz cut, so
    # it must stay below the rate: on the sweep, fig1's grid, the verify
    # points and the trap point above it is at most 0.3 of the contour
    # reference's value (0.252 on the sweep)
    cfg = QuadratureConfig(rel_tol=1e-12)
    points = fig1_points() + [p[1:] for p in _verify_cases()] + [FLOOR_TRAP]
    values = [decay_rate_numeric_oracle(*p, cfg).value for p in points]
    points += [p[1:] for p in sweep_points()]
    values += [ref.value for _, (ref, _) in sweep_outcomes[1e-12]]
    ratios = [quadrature._rate_floor(*p) / v for p, v in zip(points, values)]
    assert max(ratios) <= 0.3
    # and the trap point converges at both tolerances
    model, em, t = FLOOR_TRAP
    assert t * model.omega_x < 1.0
    for rel_tol in (1e-8, 1e-12):
        decay_rate_numeric(model, em, t, QuadratureConfig(rel_tol=rel_tol))


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
@pytest.mark.parametrize("w0t", [10.0, 1e3])
@pytest.mark.parametrize("eta", [4.0, 10.0, 100.0, 130.0])
def test_large_eta_is_sized_by_the_off_resonant_rate(eta, w0t, rel_tol):
    # Gamma0 lies hundreds of decades below the rate at eta = 100 and 130,
    # so a floor from it alone left no far-field budget, and these points
    # took about 20,000 panels at either tolerance; the off-resonant floor
    # sizes them like the rest, within 1,000 panels at rel_tol 1e-8 and
    # 2,000 at 1e-12. Each agrees with the contour reference.
    cfg = QuadratureConfig(rel_tol=rel_tol)
    res = decay_rate_numeric(bb(eta), EM, w0t, cfg)
    ref = decay_rate_numeric_oracle(bb(eta), EM, w0t, cfg)
    assert res.panels_used <= (1_000 if rel_tol == 1e-8 else 2_000)
    assert abs(res.value - ref.value) <= res.error_estimate + ref.error_estimate


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
@pytest.mark.parametrize("omega_x", [250.0, 10.0])
@pytest.mark.parametrize("eta", [20.5, 100.0, 150.3])
def test_large_eta_late_times(eta, omega_x, rel_tol):
    # The contour reference rounds its phase t*(omega0 - s*cos(theta)) to
    # eps*omega0*t absolute, which the 8 ulps of its kernel's rounding term
    # do not scale with, and theta is smallest at large eta. At omega0*t up
    # to 1e4 both integrators still converge and agree within their summed
    # estimates (at most 0.11 of them, at eta = 150.3).
    cfg = QuadratureConfig(rel_tol=rel_tol)
    model = bb(eta, omega_x=omega_x)
    for w0t in (1e2, 1e3, 1e4):
        res = decay_rate_numeric(model, EM, w0t, cfg)
        ref = decay_rate_numeric_oracle(model, EM, w0t, cfg)
        assert abs(res.value - ref.value) <= res.error_estimate + ref.error_estimate


# omega0*t of the large-eta points checked against the closed form
LARGE_ETA_TIMES = (1e-3, 1e-2, 0.1, 1.0, 3.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6, 1e8, 1e10)


@pytest.fixture(scope="module")
def large_eta_exact():
    """{(omega_x, omega0*t): the closed-form rate} at eta = 150.3."""
    return {
        (wx, t): closed_form_rate(bb(150.3, omega_x=wx), EM, t)
        for wx in (10.0, 250.0)
        for t in LARGE_ETA_TIMES
    }


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
def test_large_eta_within_estimate_of_exact(large_eta_exact, rel_tol):
    # x**eta rounds by about eta/2 ulps of x's rounding, so the rounding
    # floor grows with eta (see _model's panel_ulps). Under a flat floor of
    # 5e-16 of the value, 22 of these 26 points missed their estimate at
    # rel_tol 1e-8 and 24 at 1e-12, by up to 1.48x; now the worst comes
    # within 0.34 of it.
    cfg = QuadratureConfig(rel_tol=rel_tol)
    for (wx, t), exact in large_eta_exact.items():
        res = decay_rate_numeric(bb(150.3, omega_x=wx), EM, t, cfg)
        assert abs(res.value - exact) <= res.error_estimate, (wx, t)


@pytest.fixture(scope="module")
def late_exact():
    """{(eta, omega_x, omega0*t): the closed-form rate} at late times."""
    return {
        (eta, wx, t): closed_form_rate(bb(eta, omega_x=wx), EM, t)
        for eta in (4.0, 20.5, 150.3)
        for wx in (10.0, 250.0)
        for t in (1e3, 1e5, 1e8)
    }


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
def test_reference_late_within_estimate_of_exact(late_exact, rel_tol):
    # The contour reference rounds its phase t*(omega0 - s*cos(theta)) to
    # eps*omega0*t absolute, which its rounding term does not scale with.
    # Up to omega0*t = 1e8 it still converges and lies within its own
    # estimate of the exact rate (the worst at 0.32 of it).
    cfg = QuadratureConfig(rel_tol=rel_tol)
    for (eta, wx, t), exact in late_exact.items():
        ref = decay_rate_numeric_oracle(bb(eta, omega_x=wx), EM, t, cfg)
        assert abs(ref.value - exact) <= ref.error_estimate, (eta, wx, t)


def _oracle_outcome(model, em, t, cfg):
    # the reference's result and whether it converged
    try:
        return decay_rate_numeric_oracle(model, em, t, cfg), True
    except ConvergenceError as exc:
        return exc.result, False


class TestJacobiPair:
    # the 16/8 Gauss-Jacobi pair for the weight (1 + x)**eta (_gauss_pair),
    # whose weights are divided by (1 + x)**eta so that it takes the
    # integrand itself; at eta = 0 it is the Gauss-Legendre pair _GL_PAIR

    @pytest.mark.parametrize("beta", [0.0, 0.01, 0.5, 1.5, 3.7, 50.5, 150.3])
    def test_exact_on_polynomials(self, beta):
        # each rule integrates (1 + x)**beta * x**k for k < 2n within 1e-14
        # of the integral of its modulus: the value itself for even k; for
        # odd k near beta = 0 the value cancels to 1e-2 of that scale. The
        # power is formed as the rule divides it out, exp(beta*log1p(x)).
        x, w = quadrature._gauss_pair(beta)
        power = np.exp(beta * np.log1p(x))
        with mp.workdps(50):
            b = mp.mpf(beta)
            for col, n in ((0, 16), (1, 8)):
                for k in range(2 * n):
                    exact = mp.fsum(
                        mp.binomial(k, j) * (-1) ** (k - j) * 2 ** (b + j + 1) / (b + j + 1)
                        for j in range(k + 1)
                    )
                    scale = exact + (2 * mp.beta(b + 1, k + 1) if k % 2 else 0)
                    got = math.fsum((w[:, col] * power * x**k).tolist())
                    assert abs(got - exact) <= 1e-14 * scale, (n, k)

    @pytest.mark.parametrize("beta", [0.0, 1e-9, 0.5, 169.5])
    def test_layout_and_range(self, beta):
        # laid out as _GL_PAIR, its rules apart, nodes inside (-1, 1) and
        # weights positive and finite without a RuntimeWarning up to the
        # eta ~ 170 where Gamma(eta + 1) overflows; near eta = 0 it is the
        # Gauss-Legendre pair
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, w = quadrature._gauss_pair(beta)
        assert x.shape == quadrature._GL_PAIR[0].shape and w.shape == quadrature._GL_PAIR[1].shape
        assert (np.abs(x) < 1.0).all() and np.unique(x).size == x.size
        assert (w[:16, 0] > 0.0).all() and (w[16:, 1] > 0.0).all() and np.isfinite(w).all()
        assert not w[:16, 1].any() and not w[16:, 0].any()
        if beta < 1e-6:
            np.testing.assert_allclose(x, quadrature._GL_PAIR[0], rtol=0.0, atol=1e-8)
            np.testing.assert_allclose(w, quadrature._GL_PAIR[1], rtol=0.0, atol=1e-8)


class TestRayHead:
    # the reference's ray starts where its integrand needs it (_ray_head),
    # a tenth of the least of omega0, 1/t and the RSC's scale; the
    # Gauss-Jacobi pair takes the head panel beside a branch point at 0

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
    def test_agrees_with_the_deep_head(self, monkeypatch, sweep_outcomes, rel_tol):
        # the head 1e-15*min(omega0, 1/t) of every model gives the same value
        # within the summed estimates, and converges alike
        cfg = QuadratureConfig(rel_tol=rel_tol)
        points = [p[1:] for p in PROPERTY_POINTS] + [p[1:] for p in sweep_points()[::6]]
        sized = [_oracle_outcome(*p[1:], cfg) for p in PROPERTY_POINTS]
        sized += [ref for _, ref in sweep_outcomes[rel_tol][::6]]
        monkeypatch.setattr(
            quadrature, "_ray_head", lambda scale, w0, t: 1e-15 * min(w0, 1.0 / t)
        )
        for p, (a, ok_a) in zip(points, sized):
            b, ok_b = _oracle_outcome(*p, cfg)
            assert ok_a == ok_b, p
            assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate, p
            assert a.panels_used < b.panels_used, p

    def test_verify_points_evaluation_budget(self):
        # the 20 `fgr verify` points at rel_tol 1e-8 take 32,808 evaluations
        # in all on one grid and its 16/8 pair; on two grids, at n and 2n
        # panels per decade, they took 69,904, and with the ray started at
        # 1e-15*min(omega0, 1/t) 160,528
        cfg = QuadratureConfig(rel_tol=1e-8)
        evals = sum(
            decay_rate_numeric_oracle(model, em, t, cfg).panels_used
            for _, model, em, t in _verify_cases()
        )
        assert evals <= 36_000

    @pytest.mark.parametrize(
        "model,branch",
        [
            (bb(0.5), True),
            (bb(2.5, cutoff=PowerLorentzCutoff(mu=4.0)), True),
            (bb(0.0), False),
            (bb(2.0), False),
            (bb(2.0, cutoff=PowerLorentzCutoff(mu=4.0)), False),
            (NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=20.0), False),
        ],
        ids=["eta0.5", "pl-eta2.5", "eta0", "eta2", "pl-eta2", "line"],
    )
    def test_head_depends_on_the_branch_point(self, monkeypatch, model, branch):
        # the head's width does not, but its rule does: the model record's
        # Gauss-Jacobi pair for s**eta where a branch point lies at omega = 0
        near = 1e-3  # min(omega0, 1/t) at omega0 = 1, t = 1e3
        record = quadrature._model(model, EM)
        assert quadrature._ray_head(record.scale, 1.0, 1e3) == 0.1 * near
        assert (record.head is not None) is branch
        if branch:
            for got, want in zip(record.head, quadrature._gauss_pair(model.eta)):
                assert np.array_equal(got, want)
        # the reference takes its head from the record: a record patched to
        # carry a copy of the pair hands that copy, and no other rule, to
        # the head panel, and no rule where there is no branch point
        copy = record.head and tuple(x.copy() for x in record.head)
        monkeypatch.setattr(
            quadrature, "_model", lambda r, e: dataclasses.replace(record, head=copy)
        )
        heads, values = [], quadrature._panel_values
        monkeypatch.setattr(
            quadrature,
            "_panel_values",
            lambda f, a, b, head=None: heads.append(head) or values(f, a, b, head),
        )
        _oracle_outcome(model, EM, 1e3, CFG)
        assert heads and all(head is copy for head in heads)


def _deep_stub(monkeypatch):
    # the stub [0, z] below the first kernel zero graded over 9 decades
    # toward omega = 0 whatever the model, and integrated by Gauss-Legendre
    # alone: the layouts and rules the tests below compare with. The stub is
    # the row of _build_panels' _steps call that starts at 0, one uniform
    # stretch, always its first.
    steps = quadrature._steps

    def stub(bounds, step, geometric):
        if geometric != quadrature._RUN_STRETCHES or bounds[0][0] != 0.0:
            return steps(bounds, step, geometric)
        z = bounds[0][-1]
        deep = quadrature._geom_run(1e-9 * z, z, step[0][-1])
        edges, counts = steps([deep[0], *bounds[1:]], [deep[1], *step[1:]], geometric)
        return np.append(1e-9 * z, edges), [counts[0] + 1, *counts[1:]]

    monkeypatch.setattr(quadrature, "_steps", stub)
    # the model record's head, where it has one, patched to Gauss-Legendre:
    # the record is cached, so a patch of the rule it was built with would
    # not reach a model built before the patch
    model_of = quadrature._model

    def legendre_head(reservoir, emitter):
        record = model_of(reservoir, emitter)
        return dataclasses.replace(record, head=record.head and quadrature._GL_PAIR)

    monkeypatch.setattr(quadrature, "_model", legendre_head)


def _outcome(model, em, t, cfg):
    # the main integrator's result and whether it converged
    try:
        return decay_rate_numeric(model, em, t, cfg), True
    except ConvergenceError as exc:
        return exc.result, False


class TestLeftStub:
    # the stub [0, z] below the first kernel zero z is one uniform stretch
    # for every model; where a fractional eta puts a branch point at
    # omega = 0, the Gauss-Jacobi pair takes the panel that reaches it

    @pytest.mark.parametrize(
        "model,em",
        [
            (bb(2.0), EM),
            (bb(1.0, cutoff=PowerLorentzCutoff(mu=4.0)), EM),
            (NarrowbandReservoir(g=1e-3, kappa=0.05, omega_c=1.0), EM),
            nb_resonant(10.0),
            (bb(0.5), EM),
            (bb(1.5, omega_x=10.0), EM),
            (bb(2.5, cutoff=PowerLorentzCutoff(mu=4.0)), EM),
        ],
        ids=["exp-eta2", "pl-eta1", "line-in-stub", "line-q10", "exp-eta0.5", "exp-eta1.5",
             "pl-eta2.5"],
    )
    @pytest.mark.parametrize("t", [1e-4, 0.02, 1.0, 30.0, 1e4])
    def test_analytic_stub_is_one_uniform_stretch(self, monkeypatch, model, em, t):
        # before the graded cuts, the stub holds at most ceil(z/step) equal
        # profile panels from 0, step = min(RSC cap, _PHASE_CAP/t), at a
        # branch point at omega = 0 too
        monkeypatch.setattr(quadrature, "_graded_points", lambda edges, cap: [])
        omega_max = truncation_frequency(model, em, t, CFG)
        lobes = zero_counts(t, em.omega0, omega_max)
        z = _phase_omega(em.omega0, t, -2 * lobes[0], 0.0)
        step = min(quadrature._model(model, em).width[3], _PHASE_CAP / t)
        for cap in (_CAPS[0], _CAPS[-1]):
            a, b, _, kind = _build_panels(model, em, t, omega_max, cap, lobes)
            stub = (kind == _PROFILE) & (b <= z)
            assert 1 <= stub.sum() <= math.ceil(z / step)
            assert a[stub][0] == 0.0 and b[stub][-1] == z
            np.testing.assert_allclose(b[stub] - a[stub], z / stub.sum(), rtol=1e-12)

    @pytest.mark.parametrize(
        "model",
        [bb(0.5), bb(1.5, omega_x=10.0), bb(2.5, cutoff=PowerLorentzCutoff(mu=4.0))],
        ids=["exp-eta0.5", "exp-eta1.5", "pl-eta2.5"],
    )
    @pytest.mark.parametrize("t", [6.7e-4, 1.0, 30.0, 77736.50302387758])
    def test_fractional_layout_keeps_the_deep_stub(self, monkeypatch, model, t):
        # the value of the 9-decade stub on Gauss-Legendre alone, within the
        # summed estimates, at both tolerances, for fewer panels
        for rel_tol in (1e-8, 1e-12):
            cfg = QuadratureConfig(rel_tol=rel_tol)
            with monkeypatch.context() as patch:
                _deep_stub(patch)
                deep, deep_ok = _outcome(model, EM, t, cfg)
            res, ok = _outcome(model, EM, t, cfg)
            assert ok and deep_ok
            assert abs(res.value - deep.value) <= res.error_estimate + deep.error_estimate
            assert res.panels_used < deep.panels_used

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
    def test_agrees_with_the_deep_stub(self, monkeypatch, sweep_outcomes, rel_tol):
        # the property points, every 6th sweep point (all exponential) and
        # as many sweep lines converge alike with the 9-decade stub of every
        # model on Gauss-Legendre alone, agree within the summed estimates
        # and take fewer panels
        cfg = QuadratureConfig(rel_tol=rel_tol)
        sweep, outcomes = sweep_points(), sweep_outcomes[rel_tol]
        points = [p[1:] for p in PROPERTY_POINTS + sweep[::6] + sweep[1::6]]
        uniform = [_outcome(*p[1:], cfg) for p in PROPERTY_POINTS]
        uniform += [main for main, _ in outcomes[::6] + outcomes[1::6]]
        _deep_stub(monkeypatch)
        for p, (a, ok_a) in zip(points, uniform):
            b, ok_b = _outcome(*p, cfg)
            assert ok_a == ok_b, p
            assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate, p
            assert a.panels_used < b.panels_used, p

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
    def test_kernel_zero_on_the_branch_point(self, rel_tol):
        # omega0 = 2*pi at t = 1 puts the kernel zero k = -1 exactly on the
        # branch point at omega = 0. The half-lobe [0, pi] above it is the
        # stub, whose first panel the Gauss-Jacobi pair takes; cut at
        # 2*omega_x as a half-lobe instead, it was flagged at both
        # tolerances, with an estimate of 1.65e-11
        model, em, t = bb(0.5, omega_x=1.0), EmitterSpec(2.0 * math.pi), 1.0
        assert _phase_omega(em.omega0, t, -2, 0.0) == 0.0
        cfg = QuadratureConfig(rel_tol=rel_tol)
        res = decay_rate_numeric(model, em, t, cfg)
        ref = decay_rate_numeric_oracle(model, em, t, cfg)
        assert abs(res.value - ref.value) <= res.error_estimate + ref.error_estimate
        omega_max = truncation_frequency(model, em, t, cfg)
        a, b, m, kind = _build_panels(model, em, t, omega_max, _CAPS[0], zero_counts(t, em.omega0, omega_max))
        # the stub's profile panels run up to the half-lobe m = -1
        first = np.argmax(kind == _PHASE)
        z = _phase_omega(em.omega0, t, -1, 0.0)
        assert (kind[:first] == _PROFILE).all() and m[first] == -1 and a[first] == 0.0
        assert a[0] == 0.0 and b[0] == 0.5 * z and b[first - 1] == z


def integer_eta_points():
    """(cutoff, model, t) for eta in {0, ..., 4}, the exponential cutoff and
    the power-Lorentz one at mu = 4 and 8, omega_x/omega0 in {10, 250, 1e4},
    omega0*t a decade apart from 1e-4 to 1e6: 495 points, all analytic at
    omega = 0."""
    points = []
    cutoffs = [("exponential", None)]
    cutoffs += [("power_lorentz", PowerLorentzCutoff(mu=mu)) for mu in (4.0, 8.0)]
    for name, cutoff in cutoffs:
        for eta in range(5):
            for omega_x in (10.0, 250.0, 1e4):
                model = bb(float(eta), omega_x=omega_x, cutoff=cutoff)
                points += [(name, model, 10.0**k) for k in range(-4, 7)]
    return points


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
def test_integer_eta_against_the_reference(rel_tol):
    # The seeded sweep draws eta continuously, so none of its broadband
    # points is analytic at omega = 0; these all are. Each lies within the
    # summed estimates of the contour reference, and none is flagged. With
    # power-Lorentz panels 0.6*omega_x wide near omega = 0, 7 (mu = 4) and
    # 32 (mu = 8) early points were flagged at rel_tol 1e-12 on their 8-node
    # estimate, 1.0-3.2e-12 of the value at mu = 4.
    cfg = QuadratureConfig(rel_tol=rel_tol)
    for _, model, t in integer_eta_points():
        res, ok = _outcome(model, EM, t, cfg)
        ref, _ = _oracle_outcome(model, EM, t, cfg)
        assert abs(res.value - ref.value) <= res.error_estimate + ref.error_estimate, (model, t)
        assert ok, (model, t)


class TestRefinement:
    # each point is one layout, evaluated once: a line that panels widening
    # by ratio 2 away from its centre leave short of rel_tol 1e-12, and
    # heavy tails whose bound beyond omega_max no layout can lower

    def test_bisection(self):
        # a resonant Q = 100 line at kappa*t = 0.1: with widths growing by
        # ratio 1.6 away from the line its one layout meets rel_tol 1e-12
        model = NarrowbandReservoir(g=1e-3, kappa=5e-3, omega_c=1.0)
        cfg = QuadratureConfig(rel_tol=1e-12)
        t = 20.0
        first = first_layout_size(model, EM, t, cfg)
        res = decay_rate_numeric(model, EM, t, cfg)
        assert res.panels_used == first
        oracle = decay_rate_numeric_oracle(model, EM, t, cfg)
        assert res.value == pytest.approx(oracle.value, rel=1e-10)
        # 25-digit mpmath value of the closed-form Lorentzian identity
        reference = 1.9349612765140062e-05
        assert abs(res.value - reference) <= res.error_estimate

    def test_tail_bound_above_tolerance_stops_refinement(self):
        # a heavy power-Lorentz tail just below the integrability edge
        # eta = 2*mu + 1: 40 decades past 1e3*omega_x the bound beyond
        # omega_max alone still exceeds rel_tol*value, no panel can lower
        # it, and the cut goes out no further
        with pytest.warns(UserWarning):
            cutoff = PowerLorentzCutoff(mu=1.6)
        model, t = bb(4.19, cutoff=cutoff), 10.0
        first = first_layout_size(model, EM, t, CFG)
        with pytest.raises(
            ConvergenceError, match=r"alone exceeds the tolerance at omega_max = 2\.500e\+45$"
        ) as excinfo:
            decay_rate_numeric(model, EM, t, CFG)
        assert excinfo.value.result.panels_used == first

    def test_tight_tolerance_cut_follows_rel_tol(self):
        # a line at rel_tol 1e-13, in the default config otherwise: the cut
        # follows rel_tol, so the point converges within its estimate of its
        # 25-digit rate (PASTED_REFERENCES); under a cut fixed at 1e-12 its
        # tail bound alone exceeded the tolerance
        model, em = NarrowbandReservoir(g=1.0, kappa=1.0, omega_c=20.0), EmitterSpec(20.0)
        res = decay_rate_numeric(model, em, 1.0, QuadratureConfig(rel_tol=1e-13))
        assert abs(res.value - 0.7357292394136496) <= res.error_estimate

    def test_divergent_rsc_mass_reaches_the_tail_bound(self):
        # mu = 1.2 < (eta + 1)/2: the RSC mass diverges, so there is no
        # short-time slope to scale the far-field budget by, but the rate is
        # finite; next to eta = 2*mu + 1 the point ends as the mu = 1.6 one
        # above does
        with pytest.warns(UserWarning):
            cutoff = PowerLorentzCutoff(mu=1.2)
        model, t = bb(3.35, cutoff=cutoff), 10.0
        with pytest.raises(ConvergenceError, match="tail bound") as excinfo:
            decay_rate_numeric(model, EM, t, CFG)
        assert excinfo.value.result.panels_used == first_layout_size(model, EM, t, CFG)

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
    def test_divergent_rsc_mass_converges(self, rel_tol):
        # eta = 2 at mu = 1.2: the floor is a tenth of the off-resonant part
        # (2/t)*M, which here exceeds the golden rule, and the cut goes out
        # until the heavy tail's bound fits; the point converges and agrees
        # with the contour reference (it used to end on the tail bound)
        with pytest.warns(UserWarning):
            cutoff = PowerLorentzCutoff(mu=1.2)
        model, t, cfg = bb(2.0, cutoff=cutoff), 10.0, QuadratureConfig(rel_tol=rel_tol)
        late = (2.0 / t) * quadrature._model(model, EM).mass
        assert late > golden_rule_rate(model, EM)
        assert quadrature._rate_floor(model, EM, t) == 0.1 * late
        res = decay_rate_numeric(model, EM, t, cfg)
        ref = decay_rate_numeric_oracle(model, EM, t, cfg)
        assert abs(res.value - ref.value) <= res.error_estimate + ref.error_estimate


class TestModelRecord:
    # what both integrators take from a model and its emitter alone is built
    # once a pair (quadrature._model), not once a point

    def test_curve_builds_its_record_once(self):
        model, grid = bb(1.7), np.geomspace(1e-3, 1e3, 25)
        quadrature._model.cache_clear()
        rate_curve(model, EM, grid, CFG)
        for t in grid:
            decay_rate_numeric_oracle(model, EM, float(t), CFG)
        info = quadrature._model.cache_info()
        assert info.misses == 1 and info.currsize == 1
        assert info.hits >= 2 * grid.size

    # ratios, their error estimates and the reference's rates at
    # omega0*t = 1e-3, 1e-1, 10 and 1e3, as computed per point from the
    # model before the record existed, re-recorded (each within the summed
    # estimates) since the phase panels take pi/2's low part, and since the
    # Gauss-Legendre pair is the Gauss-Jacobi builder's eta = 0 case
    PASTED = {
        "exp-eta1.7": (
            [699.7350116615316, 193.38668411186575, 3.0496125196751094, 1.0204965899996512],
            [1.0774570709287534e-12, 2.648191005103734e-13, 4.004870119833281e-12, 9.299842544980039e-11],
            [0.09179484418709964, 0.025369461639139283, 0.0004000638833407564, 0.0001338740007511037],
        ),
        "exp-eta2": (
            [4700.3645918694165, 815.4521889231697, 9.27155755056736, 1.0827155983291568],
            [1.1659398641222864e-11, 1.2652434417938927e-12, 5.13404925407551e-10, 9.299850101209672e-11],
            [0.11766145858576127, 0.020412734391203464, 0.0002320894397593654, 2.710298191735864e-05],
        ),
        "pl-eta2.5": (
            [3387.837314601518, 3445.7886123814965, 35.08158609541448, 1.3408156537182887],
            [3.030258295016024e-11, 1.0788595468215558e-08, 2.4760296320216965e-10, 9.299876304463397e-11],
            [0.005384738381603158, 0.0054768480517173495, 5.57598094574496e-05, 2.131135837710846e-06],
        ),
        "line-q10": (
            [2.4602235357229226e-05, 0.0024581330078116206, 0.21303639655030293, 0.9799997344721483],
            [7.438245948489187e-18, 7.422853759583315e-16, 7.550936817726313e-14, 2.4669251043684912e-11],
            [4.920447071446105e-05, 0.004916266015623554, 0.4260727931006326, 1.9599994689687412],
        ),
    }
    MODELS = pytest.mark.parametrize(
        "model,em,key",
        [
            (bb(1.7), EM, "exp-eta1.7"),
            (bb(2.0), EM, "exp-eta2"),
            (bb(2.5, cutoff=PowerLorentzCutoff(mu=4.0)), EM, "pl-eta2.5"),
            (*nb_resonant(10.0), "line-q10"),
        ],
        ids=["exp-eta1.7", "exp-eta2", "pl-eta2.5", "line-q10"],
    )

    @MODELS
    def test_cold_and_warm_cache_give_the_pasted_values(self, model, em, key):
        # both integrators give, bit for bit, the values computed per point
        # from the model, on a cold cache and again on the warm one
        grid = np.geomspace(1e-3, 1e3, 4) / em.omega0

        def run():
            curve = rate_curve(model, em, grid, CFG)
            refs = [decay_rate_numeric_oracle(model, em, float(t), CFG).value for t in grid]
            return curve.ratios.tolist(), curve.error_estimates.tolist(), refs

        quadrature._model.cache_clear()
        assert run() == self.PASTED[key]
        assert quadrature._model.cache_info().misses == 1
        assert run() == self.PASTED[key]

    @MODELS
    def test_used_record_equals_a_fresh_build(self, model, em, key):
        # the cached record is read-only, so after a curve and the reference
        # have used it, it still equals one built anew
        quadrature._model.cache_clear()
        record = quadrature._model(model, em)
        rate_curve(model, em, np.geomspace(1e-3, 1e3, 4) / em.omega0, CFG)
        decay_rate_numeric_oracle(model, em, 1.0 / em.omega0, CFG)
        assert quadrature._model(model, em) is record
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.gamma0 = 0.0
        fresh = quadrature._model.__wrapped__(model, em)
        for f in dataclasses.fields(record):
            mine, theirs = getattr(record, f.name), getattr(fresh, f.name)
            if f.name == "head" and mine is not None:
                for x, y in zip(mine, theirs):
                    assert not x.flags.writeable
                    np.testing.assert_array_equal(x, y)
            else:
                assert mine == theirs


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

    @pytest.mark.parametrize("eta", [100.0, 150.0])
    def test_overflowing_ratio_names_eta(self, eta):
        # at eta = 100 the ratio to the golden-rule rate overflows a float;
        # at eta = 150 that rate itself underflows to 0. Either is refused
        # with a ValueError, not an inf ratio or a division by zero.
        with pytest.raises(ValueError, match=f"eta={eta}"):
            rate_curve(bb(eta), EM, [0.1, 1.0], CFG)

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
        cfg = QuadratureConfig(rel_tol=1e-16)
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
